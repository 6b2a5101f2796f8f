#include "dtree/histogram.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "data/discretize.hpp"
#include "data/golf.hpp"
#include "data/partition.hpp"
#include "data/quest.hpp"

namespace pdt::dtree {
namespace {

std::vector<data::RowId> all_rows(const data::Dataset& ds) {
  std::vector<data::RowId> rows(ds.num_rows());
  std::iota(rows.begin(), rows.end(), data::RowId{0});
  return rows;
}

TEST(Histogram, Table2OutlookAtGolfRoot) {
  // The paper's Table 2: sunny 2/3, overcast 4/0, rain 3/2.
  const data::Dataset golf = data::golf_dataset();
  const auto rows = all_rows(golf);
  const auto table =
      categorical_distribution(golf, rows, data::golf_attr::kOutlook);
  EXPECT_EQ(table, (std::vector<std::int64_t>{2, 3, 4, 0, 3, 2}));
}

TEST(Histogram, Table3HumidityBinaryTests) {
  // The paper's Table 3: for each distinct Humidity value, the <=/> class
  // distributions. Spot-check the rows printed in the paper.
  const data::Dataset golf = data::golf_dataset();
  const auto rows = all_rows(golf);
  const auto table =
      continuous_binary_distribution(golf, rows, data::golf_attr::kHumidity);
  ASSERT_EQ(table.size(), 9u) << "nine distinct humidity values";

  // 65: <= gives 1 Play / 0 Don't; > gives 8 / 5.
  EXPECT_DOUBLE_EQ(table[0].value, 65.0);
  EXPECT_EQ(table[0].le, (std::vector<std::int64_t>{1, 0}));
  EXPECT_EQ(table[0].gt, (std::vector<std::int64_t>{8, 5}));
  // 70: <= gives 3 / 1; > gives 6 / 4.
  EXPECT_DOUBLE_EQ(table[1].value, 70.0);
  EXPECT_EQ(table[1].le, (std::vector<std::int64_t>{3, 1}));
  EXPECT_EQ(table[1].gt, (std::vector<std::int64_t>{6, 4}));
  // 75: <= gives 4 / 1.
  EXPECT_EQ(table[2].le, (std::vector<std::int64_t>{4, 1}));
  // 80: <= gives 7 / 2 (the paper's fifth row).
  EXPECT_DOUBLE_EQ(table[4].value, 80.0);
  EXPECT_EQ(table[4].le, (std::vector<std::int64_t>{7, 2}));
  EXPECT_EQ(table[4].gt, (std::vector<std::int64_t>{2, 3}));
  // 96: everything on the <= side: 9 / 5.
  EXPECT_DOUBLE_EQ(table[8].value, 96.0);
  EXPECT_EQ(table[8].le, (std::vector<std::int64_t>{9, 5}));
  EXPECT_EQ(table[8].gt, (std::vector<std::int64_t>{0, 0}));
}

/// The per-(row, attribute) loop accumulate must agree with: a kind
/// check and a binary search over the cuts for every value.
Hist naive_accumulate(const AttrLayout& layout, const SlotMapper& mapper,
                      std::span<const data::RowId> rows) {
  const data::Dataset& ds = mapper.dataset();
  Hist h(static_cast<std::size_t>(layout.total()), 0);
  for (const data::RowId row : rows) {
    for (int a = 0; a < ds.num_attributes(); ++a) {
      const int s = ds.schema().attr(a).is_categorical()
                        ? ds.cat(a, row)
                        : data::bin_of(ds.cont(a, row), mapper.boundaries(a));
      ++h[static_cast<std::size_t>(layout.index(a, s, ds.label(row)))];
    }
  }
  return h;
}

void expect_matches_naive(const data::Dataset& ds, int cont_bins) {
  const SlotMapper mapper(ds, cont_bins);
  const AttrLayout layout(ds.schema(), cont_bins);
  // Scattered, partial row sets: each processor's share of a random
  // distribution, plus every row.
  const data::RowDeal deal = data::partition_random(ds.num_rows(), 3, 17);
  std::vector<std::vector<data::RowId>> parts;
  for (std::size_t m = 0; m < 3; ++m) {
    parts.emplace_back(deal.rows.begin() + deal.offsets[m],
                       deal.rows.begin() + deal.offsets[m + 1]);
  }
  parts.push_back(all_rows(ds));
  for (const auto& rows : parts) {
    Hist h(static_cast<std::size_t>(layout.total()), 0);
    accumulate(h, layout, mapper, rows);
    EXPECT_EQ(h, naive_accumulate(layout, mapper, rows))
        << rows.size() << " rows, " << cont_bins << " bins";
  }
}

TEST(Histogram, AccumulateMatchesNaiveLoopOnGolf) {
  for (const int bins : {2, 4, 32}) {
    expect_matches_naive(data::golf_dataset(), bins);
  }
}

TEST(Histogram, AccumulateMatchesNaiveLoopOnRawQuest) {
  const data::Dataset ds =
      data::quest_generate(5000, {.function = 2, .seed = 9});
  for (const int bins : {2, 3, 32, 256}) expect_matches_naive(ds, bins);
}

TEST(Histogram, AccumulateMatchesDirectCounts) {
  const data::Dataset ds = data::quest_generate(300, {.seed = 12});
  const SlotMapper mapper(ds, 8);
  const AttrLayout layout(ds.schema(), 8);
  const auto rows = all_rows(ds);
  Hist h(static_cast<std::size_t>(layout.total()), 0);
  accumulate(h, layout, mapper, rows);

  // Every attribute's table has identical class marginals equal to the
  // overall class distribution.
  const auto expected = class_counts_of_rows(ds, rows);
  for (int a = 0; a < layout.num_attributes(); ++a) {
    std::vector<std::int64_t> marginal(2, 0);
    for (int s = 0; s < layout.slots(a); ++s) {
      for (int c = 0; c < 2; ++c) {
        marginal[static_cast<std::size_t>(c)] +=
            h[static_cast<std::size_t>(layout.index(a, s, c))];
      }
    }
    EXPECT_EQ(marginal, expected) << "attribute " << a;
  }
  EXPECT_EQ(class_counts(h, layout), expected);
}

TEST(Histogram, AccumulateIsAdditive) {
  const data::Dataset ds = data::quest_generate(200, {.seed = 14});
  const SlotMapper mapper(ds, 8);
  const AttrLayout layout(ds.schema(), 8);
  const auto rows = all_rows(ds);
  const std::span<const data::RowId> first(rows.data(), 90);
  const std::span<const data::RowId> rest(rows.data() + 90, rows.size() - 90);

  Hist whole(static_cast<std::size_t>(layout.total()), 0);
  accumulate(whole, layout, mapper, rows);
  Hist parts(static_cast<std::size_t>(layout.total()), 0);
  accumulate(parts, layout, mapper, first);
  accumulate(parts, layout, mapper, rest);
  EXPECT_EQ(whole, parts);
}

/// Row-major cells of `rows` (cell attributes only), as the parallel
/// formulations store them.
std::vector<std::uint8_t> cells_of(const AttrLayout& layout,
                                   const SlotMapper& mapper,
                                   std::span<const data::RowId> rows) {
  const std::vector<int>& attrs = layout.cell_attrs();
  std::vector<std::uint8_t> cells(rows.size() * attrs.size());
  const auto& labels = mapper.dataset().labels();
  for (std::size_t k = 0; k < attrs.size(); ++k) {
    std::size_t i = 0;
    mapper.for_each_slot(attrs[k], rows, [&](data::RowId row, int s) {
      cells[i++ * attrs.size() + k] = static_cast<std::uint8_t>(
          s * layout.num_classes() + labels[row]);
    });
  }
  return cells;
}

TEST(Histogram, CellsMatchGatherForEveryRunLength) {
  // cont_bins 200 gives the continuous attributes 400 cells, past a
  // byte: their tables stay untouched, the categorical ones match.
  const data::Dataset ds = data::quest_generate(3001, {.seed = 15});
  for (const int bins : {32, 200}) {
    const SlotMapper mapper(ds, bins);
    const AttrLayout layout(ds.schema(), bins);
    ASSERT_FALSE(layout.cell_attrs().empty());
    const auto rows = all_rows(ds);
    std::vector<std::uint32_t> scratch;
    // Below, at and above the direct-count cutoff, odd and even lengths.
    for (const std::size_t n : {std::size_t{1}, std::size_t{31},
                                std::size_t{32}, std::size_t{33},
                                std::size_t{1000}, rows.size()}) {
      const std::span<const data::RowId> part(rows.data(), n);
      Hist want(static_cast<std::size_t>(layout.total()), 0);
      for (const int a : layout.cell_attrs()) {
        accumulate_attr(
            std::span<std::int64_t>(want).subspan(
                static_cast<std::size_t>(layout.offset(a)),
                static_cast<std::size_t>(layout.slots(a) * 2)),
            layout, mapper, a, part);
      }
      Hist got(static_cast<std::size_t>(layout.total()), 0);
      accumulate_cells(got, layout, cells_of(layout, mapper, part), scratch);
      EXPECT_EQ(got, want) << n << " rows, " << bins << " bins";
    }
  }
}

TEST(Histogram, CellAttributesFitAByte) {
  const data::Dataset ds = data::quest_generate(100, {.seed = 16});
  // slots x C: continuous 128 x 2 = 256 fits, 129 x 2 does not; the
  // categorical attributes (5, 20, 9 values) always fit.
  EXPECT_EQ(AttrLayout(ds.schema(), 128).cell_attrs().size(), 9u);
  const AttrLayout wide(ds.schema(), 129);
  EXPECT_EQ(wide.cell_attrs(), (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(wide.cell_of(0), -1);
  EXPECT_EQ(wide.cell_of(4), 1);
}

TEST(Histogram, EmptyRowsLeaveZeros) {
  const data::Dataset ds = data::golf_dataset();
  const SlotMapper mapper(ds, 4);
  const AttrLayout layout(ds.schema(), 4);
  Hist h(static_cast<std::size_t>(layout.total()), 0);
  accumulate(h, layout, mapper, {});
  for (const auto v : h) {
    EXPECT_EQ(v, 0);
  }
  EXPECT_EQ(class_counts(h, layout), (std::vector<std::int64_t>{0, 0}));
}

TEST(Histogram, FormattersMentionNamesAndCounts) {
  const data::Dataset golf = data::golf_dataset();
  const auto rows = all_rows(golf);
  const auto table =
      categorical_distribution(golf, rows, data::golf_attr::kOutlook);
  const std::string text = format_categorical_distribution(
      golf, table, data::golf_attr::kOutlook);
  EXPECT_NE(text.find("sunny"), std::string::npos);
  EXPECT_NE(text.find("overcast"), std::string::npos);
  EXPECT_NE(text.find("Play"), std::string::npos);

  const auto bin = continuous_binary_distribution(
      golf, rows, data::golf_attr::kHumidity);
  const std::string btext =
      format_binary_distribution(golf, bin, data::golf_attr::kHumidity);
  EXPECT_NE(btext.find("Humidity"), std::string::npos);
  EXPECT_NE(btext.find("<="), std::string::npos);
}

}  // namespace
}  // namespace pdt::dtree
