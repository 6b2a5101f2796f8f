#include "core/frontier.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "data/discretize.hpp"
#include "data/golf.hpp"
#include "data/quest.hpp"

namespace pdt::core {
namespace {

data::Dataset quest_binned(std::size_t n, std::uint64_t seed) {
  return data::discretize_uniform(
      data::quest_generate(n, {.function = 2, .seed = seed}),
      data::quest_paper_bins());
}

/// All row ids present across a frontier (for conservation checks).
std::multiset<data::RowId> frontier_rows(const std::vector<NodeWork>& f) {
  std::multiset<data::RowId> rows;
  for (const NodeWork& nw : f) rows.insert(nw.rows.begin(), nw.rows.end());
  return rows;
}

TEST(ParContext, RecordWordsCountsContinuousTwice) {
  const data::Dataset golf = data::golf_dataset();
  ParOptions opt;
  mpsim::Machine m(2, opt.cost);
  ParContext ctx(golf, opt, m);
  // Outlook(1) + Temp(2) + Humidity(2) + Windy(1) + label(1) = 7 words.
  EXPECT_DOUBLE_EQ(ctx.record_words(), 7.0);
}

TEST(ParContext, HistWordsIsLayoutTotal) {
  const data::Dataset ds = quest_binned(100, 1);
  ParOptions opt;
  mpsim::Machine m(2, opt.cost);
  ParContext ctx(ds, opt, m);
  // All-categorical Quest: C * sum(M_a) = 2 * 108 = 216.
  EXPECT_DOUBLE_EQ(ctx.hist_words(), 216.0);
}

TEST(ParContext, InitialRootDistributesAllRows) {
  const data::Dataset ds = quest_binned(1000, 2);
  ParOptions opt;
  opt.num_procs = 8;
  mpsim::Machine m(8, opt.cost);
  ParContext ctx(ds, opt, m);
  const mpsim::Group g = mpsim::Group::whole(m);
  const NodeWork root = ctx.initial_root(g);
  EXPECT_EQ(root.node_id, 0);
  EXPECT_EQ(root.total_records(), 1000);
  ASSERT_EQ(root.members(), 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(root.member_records(i), 125);
  }
}

TEST(ExpandLevel, ConservesRowsAcrossSplits) {
  const data::Dataset ds = quest_binned(2000, 3);
  ParOptions opt;
  opt.num_procs = 4;
  mpsim::Machine m(4, opt.cost);
  ParContext ctx(ds, opt, m);
  const mpsim::Group g = mpsim::Group::whole(m);
  std::vector<NodeWork> frontier{ctx.initial_root(g)};
  const auto before = frontier_rows(frontier);

  std::vector<NodeWork> next = expand_level(ctx, g, frontier);
  ASSERT_FALSE(next.empty());
  // Rows are conserved: every original row appears in exactly one child,
  // on the same member that held it before (no data movement in the
  // synchronous step).
  EXPECT_EQ(frontier_rows(next), before);
}

TEST(ExpandLevel, GrowsTheSharedTree) {
  const data::Dataset ds = quest_binned(2000, 4);
  ParOptions opt;
  opt.num_procs = 2;
  mpsim::Machine m(2, opt.cost);
  ParContext ctx(ds, opt, m);
  const mpsim::Group g = mpsim::Group::whole(m);
  std::vector<NodeWork> frontier{ctx.initial_root(g)};
  EXPECT_EQ(ctx.tree().num_nodes(), 1);
  frontier = expand_level(ctx, g, frontier);
  EXPECT_GT(ctx.tree().num_nodes(), 1);
  // Child node ids match the frontier's node ids.
  for (const NodeWork& nw : frontier) {
    EXPECT_GT(nw.node_id, 0);
    EXPECT_LT(nw.node_id, ctx.tree().num_nodes());
    EXPECT_GT(nw.total_records(), 0);
  }
}

TEST(ExpandLevel, ChargesComputeToEveryMember) {
  const data::Dataset ds = quest_binned(1000, 5);
  ParOptions opt;
  opt.num_procs = 4;
  mpsim::Machine m(4, opt.cost);
  ParContext ctx(ds, opt, m);
  const mpsim::Group g = mpsim::Group::whole(m);
  std::vector<NodeWork> frontier{ctx.initial_root(g)};
  (void)expand_level(ctx, g, frontier);
  for (int r = 0; r < 4; ++r) {
    EXPECT_GT(m.stats(r).compute_time, 0.0);
    EXPECT_GT(m.stats(r).comm_time, 0.0);
  }
}

TEST(ExpandLevel, ReportsCommCostMatchingEq2) {
  const data::Dataset ds = quest_binned(1000, 6);
  ParOptions opt;
  opt.num_procs = 4;
  opt.comm_buffer_nodes = 100;
  mpsim::Machine m(4, opt.cost);
  ParContext ctx(ds, opt, m);
  const mpsim::Group g = mpsim::Group::whole(m);
  std::vector<NodeWork> frontier{ctx.initial_root(g)};
  mpsim::Time comm = 0.0;
  (void)expand_level(ctx, g, frontier, &comm);
  // One node, one flush: (t_s + t_w * 216) * log2(4).
  const double expected = (opt.cost.t_s + opt.cost.t_w * 216.0) * 2;
  EXPECT_DOUBLE_EQ(comm, expected);
}

TEST(ExpandLevel, BufferLimitCausesMultipleFlushes) {
  const data::Dataset ds = quest_binned(4000, 7);
  ParOptions small = ParOptions{};
  small.num_procs = 2;
  small.comm_buffer_nodes = 1;
  ParOptions big = ParOptions{};
  big.num_procs = 2;
  big.comm_buffer_nodes = 1000;

  auto run = [&](const ParOptions& o) {
    mpsim::Machine m(o.num_procs, o.cost);
    ParContext ctx(ds, o, m);
    const mpsim::Group g = mpsim::Group::whole(m);
    std::vector<NodeWork> frontier{ctx.initial_root(g)};
    // Expand a few levels to get a multi-node frontier, then measure.
    for (int i = 0; i < 4 && !frontier.empty(); ++i) {
      frontier = expand_level(ctx, g, frontier);
    }
    mpsim::Time comm = 0.0;
    frontier = expand_level(ctx, g, frontier, &comm);
    return std::pair(comm, m.total_stats().messages_sent);
  };
  const auto [comm_small, msgs_small] = run(small);
  const auto [comm_big, msgs_big] = run(big);
  EXPECT_GT(comm_small, comm_big)
      << "per-node flushes pay the start-up latency many times";
  EXPECT_GT(msgs_small, msgs_big);
}

TEST(ExpandLevel, SingleProcessorHasZeroComm) {
  const data::Dataset ds = quest_binned(500, 8);
  ParOptions opt;
  opt.num_procs = 1;
  mpsim::Machine m(1, opt.cost);
  ParContext ctx(ds, opt, m);
  const mpsim::Group g = mpsim::Group::whole(m);
  std::vector<NodeWork> frontier{ctx.initial_root(g)};
  mpsim::Time comm = 0.0;
  while (!frontier.empty()) {
    frontier = expand_level(ctx, g, frontier, &comm);
  }
  EXPECT_DOUBLE_EQ(comm, 0.0);
  EXPECT_DOUBLE_EQ(m.total_stats().comm_time, 0.0);
  EXPECT_DOUBLE_EQ(m.total_stats().idle_time, 0.0);
}

TEST(ExpandLevel, MaxDepthFiltersNodes) {
  const data::Dataset ds = quest_binned(500, 9);
  ParOptions opt;
  opt.num_procs = 1;
  opt.grow.max_depth = 0;
  mpsim::Machine m(1, opt.cost);
  ParContext ctx(ds, opt, m);
  const mpsim::Group g = mpsim::Group::whole(m);
  std::vector<NodeWork> frontier{ctx.initial_root(g)};
  frontier = expand_level(ctx, g, frontier);
  EXPECT_TRUE(frontier.empty());
  EXPECT_EQ(ctx.tree().num_nodes(), 1);
}

TEST(FrontierHelpers, RecordCounts) {
  const std::vector<NodeWork> f{NodeWork{1, {1, 2, 3, 4}, {0, 3, 4}, {}},
                                NodeWork{2, {5, 6}, {0, 0, 2}, {}}};
  EXPECT_EQ(frontier_records(f), 6);
  EXPECT_EQ(frontier_member_records(f, 0), 3);
  EXPECT_EQ(frontier_member_records(f, 1), 3);
}

}  // namespace
}  // namespace pdt::core
