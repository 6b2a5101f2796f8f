// Sibling subtraction in expand_level: one child table per split is the
// parent's reduced table minus its siblings' instead of a scan of its
// rows. The counts are exact int64, so every formulation at every machine
// size and buffer capacity must still grow the serial oracle's tree, derive
// at least one table, and leave no parent table cached when the build ends.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/builder.hpp"
#include "dtree/serialize.hpp"

namespace pdt::core {
namespace {

enum class Setup { Binned, RawKMeans, Exact };

const char* to_string(Setup s) {
  switch (s) {
    case Setup::Binned: return "binned";
    case Setup::RawKMeans: return "raw_kmeans";
    case Setup::Exact: return "exact_continuous";
  }
  return "?";
}

data::Dataset dataset(Setup s) {
  data::Dataset raw = data::quest_generate(2000, {.function = 2, .seed = 5});
  if (s != Setup::Binned) return raw;
  return data::discretize_uniform(raw, data::quest_paper_bins());
}

ParOptions options(Setup s) {
  ParOptions opt;
  if (s == Setup::RawKMeans) {
    opt.grow.cont_split = dtree::ContSplit::KMeans;
    opt.grow.cont_bins = 32;
    opt.grow.per_node_bins = 8;
    opt.grow.min_records = 8;
  }
  opt.exact_continuous = s == Setup::Exact;
  return opt;
}

/// The serial oracle of each setup: grow_bfs for the slot-based paths,
/// grow_dfs_exact for Section 3.4's parallel sorting.
std::string oracle_digest(Setup s, const data::Dataset& ds,
                          const dtree::GrowOptions& grow) {
  return dtree::model_digest(s == Setup::Exact
                                 ? dtree::grow_dfs_exact(ds, grow)
                                 : dtree::grow_bfs(ds, grow));
}

/// Splits whose children get histogrammed: internal nodes whose children
/// sit above the depth limit. The synchronous formulation derives exactly
/// one table for each of them.
std::int64_t histogrammed_parents(const dtree::Tree& tree, int max_depth) {
  std::int64_t n = 0;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const dtree::Node& node = tree.node(id);
    if (!node.is_leaf() && node.depth + 1 < max_depth) ++n;
  }
  return n;
}

using Config = std::tuple<Setup, Formulation, int, int>;

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  const auto [s, f, procs, buffer] = info.param;
  return std::string(to_string(s)) + "_" + core::to_string(f) + "_P" +
         std::to_string(procs) + "_buf" + std::to_string(buffer);
}

class SiblingSubtractionTest : public ::testing::TestWithParam<Config> {};

TEST_P(SiblingSubtractionTest, MatchesOracleAndDrainsTheCache) {
  const auto [s, f, procs, buffer] = GetParam();
  const data::Dataset ds = dataset(s);
  ParOptions opt = options(s);
  opt.num_procs = procs;
  opt.comm_buffer_nodes = buffer;
  const ParResult res = build(f, ds, opt);

  EXPECT_EQ(dtree::model_digest(res.tree), oracle_digest(s, ds, opt.grow));
  const std::int64_t parents =
      histogrammed_parents(res.tree, opt.grow.max_depth);
  ASSERT_GT(parents, 0);
  EXPECT_GT(res.derived_histograms, 0);
  if (f == Formulation::Sync) {
    EXPECT_EQ(res.derived_histograms, parents);
  } else {
    EXPECT_LE(res.derived_histograms, parents);
  }
  EXPECT_EQ(res.parent_tables_left, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Formulations, SiblingSubtractionTest,
    ::testing::Combine(::testing::Values(Setup::Binned, Setup::RawKMeans,
                                         Setup::Exact),
                       ::testing::Values(Formulation::Sync,
                                         Formulation::Partitioned,
                                         Formulation::Hybrid),
                       ::testing::Values(1, 3, 4, 7, 16, 17),
                       ::testing::Values(1, 100)),
    config_name);

class SiblingSubtractionDepthCap
    : public ::testing::TestWithParam<Formulation> {};

TEST_P(SiblingSubtractionDepthCap, CappedChildrenLeaveNoEntry) {
  // Children at the depth limit stay leaves without being histogrammed,
  // so their parents' tables must not stay cached.
  const data::Dataset ds = dataset(Setup::Binned);
  ParOptions opt;
  opt.grow.max_depth = 3;
  opt.num_procs = 4;
  const ParResult res = build(GetParam(), ds, opt);

  EXPECT_EQ(dtree::model_digest(res.tree),
            dtree::model_digest(dtree::grow_bfs(ds, opt.grow)));
  EXPECT_EQ(res.tree.depth(), 3);
  EXPECT_GT(res.derived_histograms, 0);
  if (GetParam() == Formulation::Sync) {
    EXPECT_EQ(res.derived_histograms, histogrammed_parents(res.tree, 3));
  }
  EXPECT_EQ(res.parent_tables_left, 0);
}

INSTANTIATE_TEST_SUITE_P(Formulations, SiblingSubtractionDepthCap,
                         ::testing::Values(Formulation::Sync,
                                           Formulation::Partitioned,
                                           Formulation::Hybrid),
                         [](const auto& info) {
                           return std::string(core::to_string(info.param));
                         });

}  // namespace
}  // namespace pdt::core
