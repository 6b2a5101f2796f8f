#include "data/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace pdt::data {
namespace {

class RandomPartitionTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RandomPartitionTest, ConservesRowsAndBalances) {
  const auto [n, p] = GetParam();
  const RowDeal deal = partition_random(static_cast<std::size_t>(n), p, 123);
  ASSERT_EQ(static_cast<int>(deal.offsets.size()), p + 1);
  EXPECT_EQ(deal.offsets.front(), 0u);
  EXPECT_EQ(deal.offsets.back(), static_cast<std::uint32_t>(n));
  EXPECT_EQ(deal.rows.size(), static_cast<std::size_t>(n));
  EXPECT_TRUE(std::is_sorted(deal.offsets.begin(), deal.offsets.end()));

  // Every row appears exactly once.
  std::set<RowId> seen;
  for (const RowId r : deal.rows) {
    EXPECT_LT(r, static_cast<RowId>(n));
    EXPECT_TRUE(seen.insert(r).second) << "duplicate row " << r;
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));

  // Counts differ by at most one (the paper's N/P initial distribution),
  // the first N mod P processors holding the extra row.
  for (int m = 0; m < p; ++m) {
    const std::uint32_t count = deal.offsets[static_cast<std::size_t>(m) + 1] -
                                deal.offsets[static_cast<std::size_t>(m)];
    EXPECT_EQ(count, static_cast<std::uint32_t>(n / p + (m < n % p ? 1 : 0)))
        << "processor " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RandomPartitionTest,
    ::testing::Values(std::make_tuple(100, 1), std::make_tuple(100, 4),
                      std::make_tuple(101, 4), std::make_tuple(7, 8),
                      std::make_tuple(1000, 16), std::make_tuple(1000, 128)));

TEST(PartitionRandom, DealsOnePermutationRoundRobin) {
  // Processor m holds entries m, m + P, m + 2P, ... of the permutation the
  // one-processor deal returns whole.
  const RowDeal whole = partition_random(103, 1, 42);
  const RowDeal dealt = partition_random(103, 5, 42);
  std::size_t k = 0;
  for (std::size_t m = 0; m < 5; ++m) {
    for (std::size_t i = m; i < whole.rows.size(); i += 5) {
      EXPECT_EQ(dealt.rows[k++], whole.rows[i]) << "processor " << m;
    }
  }
}

TEST(PartitionRandom, DeterministicPerSeedAndActuallyShuffled) {
  const RowDeal a = partition_random(1000, 8, 42);
  const RowDeal b = partition_random(1000, 8, 42);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.offsets, b.offsets);
  const RowDeal c = partition_random(1000, 8, 43);
  EXPECT_NE(a.rows, c.rows);
  // Not the identity order.
  const RowDeal whole = partition_random(1000, 1, 42);
  EXPECT_FALSE(std::is_sorted(whole.rows.begin(), whole.rows.end()));
}

}  // namespace
}  // namespace pdt::data
