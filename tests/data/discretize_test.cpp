#include "data/discretize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "data/quest.hpp"

namespace pdt::data {
namespace {

TEST(UniformBoundaries, EvenSpacing) {
  const auto cuts = uniform_boundaries(0.0, 10.0, 5);
  ASSERT_EQ(cuts.size(), 4u);
  EXPECT_DOUBLE_EQ(cuts[0], 2.0);
  EXPECT_DOUBLE_EQ(cuts[1], 4.0);
  EXPECT_DOUBLE_EQ(cuts[2], 6.0);
  EXPECT_DOUBLE_EQ(cuts[3], 8.0);
}

TEST(UniformBoundaries, SingleBinHasNoCuts) {
  EXPECT_TRUE(uniform_boundaries(0.0, 1.0, 1).empty());
}

TEST(BinOf, BoundaryValuesGoRight) {
  const std::vector<double> cuts{2.0, 4.0};
  EXPECT_EQ(bin_of(1.9, cuts), 0);
  EXPECT_EQ(bin_of(2.0, cuts), 1);
  EXPECT_EQ(bin_of(3.9, cuts), 1);
  EXPECT_EQ(bin_of(4.0, cuts), 2);
  EXPECT_EQ(bin_of(100.0, cuts), 2);
  EXPECT_EQ(bin_of(-5.0, cuts), 0);
}

// UniformBins::bin must return exactly what bin_of (upper_bound) returns
// over the same cuts, for every double: the trees depend on it.

constexpr int kBinCounts[] = {2, 3, 32, 255, 256, 1024};
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Values where rounding decides the bin: each cut, the doubles just
/// below and above it, the range ends and both infinities.
std::vector<double> edge_values(const UniformBins& bins) {
  std::vector<double> out{bins.lo(), bins.hi(), -kInf, kInf,
                          std::nextafter(bins.lo(), -kInf),
                          std::nextafter(bins.hi(), kInf)};
  for (const double c : bins.cuts()) {
    out.push_back(c);
    out.push_back(std::nextafter(c, -kInf));
    out.push_back(std::nextafter(c, kInf));
  }
  return out;
}

/// Number of values where the O(1) lookup and the binary search disagree.
int mismatches(const UniformBins& bins, const std::vector<double>& values) {
  int bad = 0;
  for (const double v : values) {
    if (bins.bin(v) != bin_of(v, bins.cuts())) ++bad;
  }
  return bad;
}

TEST(UniformBins, CutsAreUniformBoundaries) {
  for (const int k : kBinCounts) {
    const UniformBins bins(-3.5, 17.25, k);
    EXPECT_EQ(bins.count(), k);
    EXPECT_EQ(bins.cuts(), uniform_boundaries(-3.5, 17.25, k));
  }
}

TEST(UniformBins, MatchesUpperBoundOnEveryQuestValue) {
  const Dataset ds = quest_generate(20000, {.function = 2, .seed = 1});
  for (const int k : kBinCounts) {
    for (int a = 0; a < ds.num_attributes(); ++a) {
      if (!ds.schema().attr(a).is_continuous()) continue;
      const auto [lo, hi] = ds.cont_range(a);
      const UniformBins bins(lo, hi, k);
      EXPECT_EQ(mismatches(bins, ds.cont_column(a)), 0)
          << ds.schema().attr(a).name << " bins=" << k;
      EXPECT_EQ(mismatches(bins, edge_values(bins)), 0)
          << ds.schema().attr(a).name << " bins=" << k;
    }
  }
}

TEST(UniformBins, MatchesUpperBoundAtEdgesOfAwkwardRanges) {
  // Ranges whose widths are not representable, tiny, huge or negative.
  const std::pair<double, double> ranges[] = {
      {0.1, 0.7},       {-1.0, 1.0},     {1e-300, 3e-300},
      {-1e300, 1e300},  {1.0, 1.0 + 1e-12},
      {20000.0, 150000.0}, {-7.3, -7.2999},
      {1.0, std::nextafter(1.0, 2.0)}};
  for (const auto& [lo, hi] : ranges) {
    for (const int k : kBinCounts) {
      const UniformBins bins(lo, hi, k);
      EXPECT_EQ(mismatches(bins, edge_values(bins)), 0)
          << "[" << lo << ", " << hi << "] bins=" << k;
    }
  }
}

TEST(UniformBins, ConstantColumn) {
  // hi == lo: every cut equals lo, so lo and above go to the last bin.
  for (const int k : kBinCounts) {
    const UniformBins bins(4.0, 4.0, k);
    EXPECT_EQ(bins.bin(4.0), k - 1);
    EXPECT_EQ(bins.bin(kInf), k - 1);
    EXPECT_EQ(bins.bin(std::nextafter(4.0, kInf)), k - 1);
    EXPECT_EQ(bins.bin(std::nextafter(4.0, -kInf)), 0);
    EXPECT_EQ(bins.bin(-kInf), 0);
    EXPECT_EQ(mismatches(bins, edge_values(bins)), 0) << "bins=" << k;
  }
}

TEST(UniformBins, RangeEndsAndInfinities) {
  const UniformBins bins(65.0, 96.0, 4);
  EXPECT_EQ(bins.bin(65.0), 0);
  EXPECT_EQ(bins.bin(96.0), 3);
  EXPECT_EQ(bins.bin(-kInf), 0);
  EXPECT_EQ(bins.bin(kInf), 3);
  EXPECT_EQ(bins.bin(-1e308), 0);
  EXPECT_EQ(bins.bin(1e308), 3);
}

TEST(DiscretizeUniform, BinsMatchUpperBoundOverUniformBoundaries) {
  const Dataset raw = quest_generate(5000, {.function = 2, .seed = 5});
  const Dataset ds = discretize_uniform(raw, quest_paper_bins());
  const std::vector<int> paper = quest_paper_bins();
  for (int a = 0; a < raw.num_attributes(); ++a) {
    if (!raw.schema().attr(a).is_continuous()) continue;
    const auto [lo, hi] = raw.cont_range(a);
    const auto cuts =
        uniform_boundaries(lo, hi, paper[static_cast<std::size_t>(a)]);
    for (std::size_t i = 0; i < raw.num_rows(); ++i) {
      ASSERT_EQ(ds.cat(a, i), bin_of(raw.cont(a, i), cuts))
          << raw.schema().attr(a).name << " row " << i;
    }
  }
}

TEST(DiscretizeUniform, QuestPaperBinsProduceAllCategorical) {
  const Dataset raw = quest_generate(2000, {.function = 2, .seed = 3});
  const Dataset ds = discretize_uniform(raw, quest_paper_bins());
  EXPECT_EQ(ds.num_rows(), raw.num_rows());
  EXPECT_EQ(ds.schema().num_categorical(), 9);
  EXPECT_EQ(ds.schema().num_continuous(), 0);
  // The paper's bin counts: salary 13, commission 14, age 6, hvalue 11,
  // hyears 10, loan 20; the 3 nominal attributes keep their cardinality.
  EXPECT_EQ(ds.schema().attr(quest_attr::kSalary).cardinality, 13);
  EXPECT_EQ(ds.schema().attr(quest_attr::kCommission).cardinality, 14);
  EXPECT_EQ(ds.schema().attr(quest_attr::kAge).cardinality, 6);
  EXPECT_EQ(ds.schema().attr(quest_attr::kElevel).cardinality, 5);
  EXPECT_EQ(ds.schema().attr(quest_attr::kCar).cardinality, 20);
  EXPECT_EQ(ds.schema().attr(quest_attr::kZipcode).cardinality, 9);
  EXPECT_EQ(ds.schema().attr(quest_attr::kHvalue).cardinality, 11);
  EXPECT_EQ(ds.schema().attr(quest_attr::kHyears).cardinality, 10);
  EXPECT_EQ(ds.schema().attr(quest_attr::kLoan).cardinality, 20);
  // Binned continuous attributes keep their order; nominal ones do not.
  EXPECT_TRUE(ds.schema().attr(quest_attr::kSalary).ordered);
  EXPECT_FALSE(ds.schema().attr(quest_attr::kCar).ordered);
}

TEST(DiscretizeUniform, PreservesLabelsAndMonotoneBinning) {
  const Dataset raw = quest_generate(1000, {.function = 2, .seed = 4});
  const Dataset ds = discretize_uniform(raw, quest_paper_bins());
  for (std::size_t i = 0; i < ds.num_rows(); ++i) {
    EXPECT_EQ(ds.label(i), raw.label(i));
    const int bin = ds.cat(quest_attr::kAge, i);
    EXPECT_GE(bin, 0);
    EXPECT_LT(bin, 6);
  }
  // Monotone: a larger raw value never lands in a smaller bin.
  for (std::size_t i = 0; i + 1 < ds.num_rows(); ++i) {
    const double va = raw.cont(quest_attr::kAge, i);
    const double vb = raw.cont(quest_attr::kAge, i + 1);
    const int ba = ds.cat(quest_attr::kAge, i);
    const int bb = ds.cat(quest_attr::kAge, i + 1);
    if (va < vb) {
      EXPECT_LE(ba, bb);
    } else if (va > vb) {
      EXPECT_GE(ba, bb);
    }
  }
}

TEST(QuantileBoundaries, EqualWeightsSplitEvenly) {
  std::vector<WeightedValue> vals;
  for (int i = 0; i < 100; ++i) {
    vals.push_back({static_cast<double>(i), 1.0});
  }
  const auto cuts = quantile_boundaries(vals, 4);
  ASSERT_EQ(cuts.size(), 3u);
  EXPECT_NEAR(cuts[0], 24.5, 1.0);
  EXPECT_NEAR(cuts[1], 49.5, 1.0);
  EXPECT_NEAR(cuts[2], 74.5, 1.0);
}

TEST(QuantileBoundaries, SkewedWeights) {
  // Nearly all mass at value 0: the first boundary must hug it.
  std::vector<WeightedValue> vals{{0.0, 97.0}, {1.0, 1.0}, {2.0, 1.0},
                                  {3.0, 1.0}};
  const auto cuts = quantile_boundaries(vals, 2);
  ASSERT_LE(cuts.size(), 1u);
  if (!cuts.empty()) {
    EXPECT_LT(cuts[0], 1.0);
  }
}

TEST(QuantileBoundaries, EmptyAndZeroWeight) {
  EXPECT_TRUE(quantile_boundaries({}, 4).empty());
  EXPECT_TRUE(quantile_boundaries({{1.0, 0.0}}, 4).empty());
}

TEST(KMeansBoundaries, SeparatesTwoClearClusters) {
  std::vector<WeightedValue> vals;
  for (int i = 0; i < 10; ++i) {
    vals.push_back({static_cast<double>(i), 1.0});        // cluster near 5
    vals.push_back({100.0 + static_cast<double>(i), 1.0});  // near 105
  }
  const auto cuts = kmeans_boundaries(vals, 2);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_GT(cuts[0], 9.0);
  EXPECT_LT(cuts[0], 100.0);
}

TEST(KMeansBoundaries, AtMostKMinusOneCuts) {
  std::vector<WeightedValue> vals;
  for (int i = 0; i < 64; ++i) {
    vals.push_back({static_cast<double>(i * i % 37), 1.0 + i % 3});
  }
  for (int k = 1; k <= 8; ++k) {
    const auto cuts = kmeans_boundaries(vals, k);
    EXPECT_LT(static_cast<int>(cuts.size()), k);
    // Cuts are strictly ascending.
    for (std::size_t i = 1; i < cuts.size(); ++i) {
      EXPECT_LT(cuts[i - 1], cuts[i]);
    }
  }
}

TEST(KMeansBoundaries, DegenerateInputs) {
  EXPECT_TRUE(kmeans_boundaries({}, 4).empty());
  EXPECT_TRUE(kmeans_boundaries({{5.0, 2.0}}, 4).empty());
  // All mass at one point: no cuts even with k > 1.
  EXPECT_TRUE(
      kmeans_boundaries({{5.0, 1.0}, {5.0, 1.0}, {5.0, 3.0}}, 3).empty());
}

TEST(KMeansBoundaries, DeterministicAcrossCalls) {
  std::vector<WeightedValue> vals;
  for (int i = 0; i < 50; ++i) {
    vals.push_back({static_cast<double>((i * 17) % 23), 1.0});
  }
  EXPECT_EQ(kmeans_boundaries(vals, 5), kmeans_boundaries(vals, 5));
}

}  // namespace
}  // namespace pdt::data
