#include "dtree/slots.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>

#include "data/golf.hpp"
#include "data/quest.hpp"
#include "dtree/builder.hpp"

namespace pdt::dtree {
namespace {

TEST(AttrLayout, OffsetsAndTotals) {
  const data::Schema s = data::golf_schema();
  const AttrLayout layout(s, 8);
  // Outlook(3), Temp(8 bins), Humidity(8 bins), Windy(2); 2 classes.
  EXPECT_EQ(layout.num_attributes(), 4);
  EXPECT_EQ(layout.num_classes(), 2);
  EXPECT_EQ(layout.slots(0), 3);
  EXPECT_EQ(layout.slots(1), 8);
  EXPECT_EQ(layout.slots(3), 2);
  EXPECT_EQ(layout.offset(0), 0);
  EXPECT_EQ(layout.offset(1), 6);
  EXPECT_EQ(layout.offset(2), 22);
  EXPECT_EQ(layout.offset(3), 38);
  EXPECT_EQ(layout.total(), 42);
  EXPECT_EQ(layout.index(1, 2, 1), 6 + 2 * 2 + 1);
}

TEST(AttrLayout, HistWordsMatchPaperFormulaForAllCategorical) {
  // For all-categorical data, total = C * sum(M_a) = C * A_d * M.
  const data::Dataset raw = data::quest_generate(10, {});
  const AttrLayout layout(raw.schema(), 16);
  const data::Schema& s = raw.schema();
  int expected = 0;
  for (int a = 0; a < s.num_attributes(); ++a) {
    expected += (s.attr(a).is_categorical() ? s.attr(a).cardinality : 16) * 2;
  }
  EXPECT_EQ(layout.total(), expected);
}

/// Slot of every row of the mapper's dataset under `attr`, in row order.
std::vector<int> slots_of(const SlotMapper& mapper, int attr) {
  std::vector<data::RowId> rows(mapper.dataset().num_rows());
  std::iota(rows.begin(), rows.end(), data::RowId{0});
  std::vector<int> out;
  mapper.for_each_slot(attr, rows, [&](data::RowId row, int s) {
    EXPECT_EQ(row, out.size());
    out.push_back(s);
  });
  return out;
}

TEST(SlotMapper, CategoricalPassThrough) {
  const data::Dataset golf = data::golf_dataset();
  const SlotMapper mapper(golf, 4);
  const auto outlook = slots_of(mapper, data::golf_attr::kOutlook);
  const auto windy = slots_of(mapper, data::golf_attr::kWindy);
  ASSERT_EQ(outlook.size(), golf.num_rows());
  for (std::size_t i = 0; i < golf.num_rows(); ++i) {
    EXPECT_EQ(outlook[i], golf.cat(data::golf_attr::kOutlook, i));
    EXPECT_EQ(windy[i], golf.cat(data::golf_attr::kWindy, i));
  }
}

TEST(SlotMapper, ContinuousBinsCoverRange) {
  const data::Dataset golf = data::golf_dataset();
  const SlotMapper mapper(golf, 4);
  const auto humidity = slots_of(mapper, data::golf_attr::kHumidity);
  ASSERT_EQ(humidity.size(), golf.num_rows());
  for (std::size_t i = 0; i < golf.num_rows(); ++i) {
    EXPECT_GE(humidity[i], 0);
    EXPECT_LT(humidity[i], 4);
    EXPECT_EQ(humidity[i],
              mapper.slot_of_value(data::golf_attr::kHumidity,
                                   golf.cont(data::golf_attr::kHumidity, i)));
  }
  // Humidity range [65, 96]: min maps to slot 0, max to slot 3.
  EXPECT_EQ(mapper.slot_of_value(data::golf_attr::kHumidity, 65.0), 0);
  EXPECT_EQ(mapper.slot_of_value(data::golf_attr::kHumidity, 96.0), 3);
}

TEST(SlotMapper, StoredSlotsEqualTheLookupUpTo256Bins) {
  // The byte column holds UniformBins::bin of every value, up to the
  // top slot 255 a uint8 can hold.
  const data::Dataset ds = data::quest_generate(3000, {.seed = 4});
  for (const int bins : {2, 32, 256}) {
    const SlotMapper mapper(ds, bins);
    for (int a = 0; a < ds.num_attributes(); ++a) {
      if (!ds.schema().attr(a).is_continuous()) continue;
      const auto slots = slots_of(mapper, a);
      for (std::size_t i = 0; i < ds.num_rows(); ++i) {
        ASSERT_EQ(slots[i], mapper.slot_of_value(a, ds.cont(a, i)))
            << bins << " bins, attr " << a << ", row " << i;
      }
    }
  }
}

/// `f` must throw std::invalid_argument naming cont_bins and its value.
template <class F>
void expect_rejects_cont_bins(int bins, F&& f) {
  try {
    f();
    ADD_FAILURE() << "cont_bins " << bins << " accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cont_bins"), std::string::npos) << what;
    EXPECT_NE(what.find("got " + std::to_string(bins)), std::string::npos)
        << what;
  }
}

TEST(SlotMapper, RejectsContBinsOutsideTwoTo256) {
  const data::Dataset ds = data::quest_generate(200, {.seed = 2});
  for (const int bins : {0, 1, -3, 257}) {
    expect_rejects_cont_bins(bins, [&] { (void)SlotMapper(ds, bins); });
    expect_rejects_cont_bins(bins, [&] {
      GrowOptions opt;
      opt.cont_bins = bins;
      (void)grow_bfs(ds, opt);
    });
  }
}

TEST(SlotMapper, BoundariesAreMonotoneAndConsistent) {
  const data::Dataset ds = data::quest_generate(500, {.seed = 6});
  const SlotMapper mapper(ds, 32);
  const int attr = data::quest_attr::kSalary;
  const auto& cuts = mapper.boundaries(attr);
  ASSERT_EQ(cuts.size(), 31u);
  for (std::size_t i = 1; i < cuts.size(); ++i) {
    EXPECT_LT(cuts[i - 1], cuts[i]);
  }
  // slot_of_value is the inverse of the boundary relation: values strictly
  // below boundary(s) map to slots <= s.
  for (int s = 0; s < 31; ++s) {
    EXPECT_EQ(mapper.slot_of_value(attr, mapper.boundary(attr, s) - 1e-6), s);
    EXPECT_EQ(mapper.slot_of_value(attr, mapper.boundary(attr, s)), s + 1);
  }
}

TEST(SlotMapper, BinCentersBetweenBoundaries) {
  const data::Dataset ds = data::quest_generate(500, {.seed = 8});
  const SlotMapper mapper(ds, 8);
  const int attr = data::quest_attr::kAge;
  const auto [lo, hi] = ds.cont_range(attr);
  for (int s = 0; s < 8; ++s) {
    const double c = mapper.bin_center(attr, s);
    EXPECT_GE(c, lo);
    EXPECT_LE(c, hi);
    if (s > 0) {
      EXPECT_GE(c, mapper.boundary(attr, s - 1));
    }
    if (s < 7) {
      EXPECT_LE(c, mapper.boundary(attr, s));
    }
  }
}

}  // namespace
}  // namespace pdt::dtree
