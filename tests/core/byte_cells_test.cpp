// Byte cells of the flat row store. Every frontier node carries cells and
// must hold slot * C + label of each of its rows, in row order, after
// every step that builds or moves rows: the root, each level's partition,
// the hybrid's moving phase, the partitioned formulation's shuffle, Eq. 4
// balancing, fail-stop recovery (the checkpoint keeps the cells) and a
// resume from pdt-ckpt-v1 (which gathers them). Attributes whose slots x C
// pass 256 never get a cell, and builds that mix both kinds must still
// grow the serial tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>

#include "core/ckpt.hpp"
#include "core/frontier.hpp"
#include "core/recovery.hpp"
#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/builder.hpp"
#include "dtree/serialize.hpp"
#include "mpsim/fault.hpp"

namespace pdt::core {
namespace {

namespace fs = std::filesystem;

data::Dataset quest_binned(std::size_t n, std::uint64_t seed) {
  return data::discretize_uniform(
      data::quest_generate(n, {.function = 2, .seed = seed}),
      data::quest_paper_bins());
}

/// Binned Quest whose salary (the attribute function 2 splits on first)
/// has `bins` values: ordered bins, or one nominal value per bin.
data::Dataset quest_wide_salary(std::size_t n, int bins, bool nominal) {
  std::vector<int> per_attr = data::quest_paper_bins();
  per_attr[0] = bins;
  const data::Dataset binned = data::discretize_uniform(
      data::quest_generate(n, {.function = 2, .seed = 11}), per_attr);
  if (!nominal) return binned;
  std::vector<data::Attribute> attrs;
  for (int a = 0; a < binned.num_attributes(); ++a) {
    attrs.push_back(a == 0 ? data::Attribute::categorical("salary", bins)
                           : binned.schema().attr(a));
  }
  data::Dataset out(data::Schema(std::move(attrs), 2, {"Group A", "Group B"}),
                    n);
  for (std::size_t row = 0; row < n; ++row) {
    out.add_row(binned.label(row));
    for (int a = 0; a < binned.num_attributes(); ++a) {
      out.set_cat(a, row, binned.cat(a, row));
    }
  }
  return out;
}

/// Whether every cell of `nw` is slot * C + label of its row, with the
/// slot taken from the dataset itself: the stored category, or the
/// micro-bin of the raw value.
bool cells_match(const ParContext& ctx, const NodeWork& nw) {
  const data::Dataset& ds = ctx.dataset();
  const std::vector<int>& attrs = ctx.layout().cell_attrs();
  if (nw.cells.size() != nw.rows.size() * attrs.size()) return false;
  for (std::size_t i = 0; i < nw.rows.size(); ++i) {
    const data::RowId row = nw.rows[i];
    for (std::size_t k = 0; k < attrs.size(); ++k) {
      const int a = attrs[k];
      const int slot = ds.schema().attr(a).is_categorical()
                           ? ds.cat(a, row)
                           : ctx.mapper().slot_of_value(a, ds.cont(a, row));
      if (nw.cells[i * attrs.size() + k] !=
          slot * ctx.layout().num_classes() + ds.label(row)) {
        return false;
      }
    }
  }
  return true;
}

/// Every node has cells, and every cell matches its row.
void expect_cells(const ParContext& ctx, const std::vector<NodeWork>& f,
                  const std::string& where) {
  for (const NodeWork& nw : f) {
    EXPECT_FALSE(nw.cells.empty()) << where << ": node " << nw.node_id;
    EXPECT_TRUE(cells_match(ctx, nw)) << where << ": node " << nw.node_id;
  }
}

std::vector<data::RowId> rows_of(const NodeWork& nw, int m) {
  const auto s = nw.member_rows(m);
  return {s.begin(), s.end()};
}

class ByteCellsLevels : public ::testing::TestWithParam<int> {};

TEST_P(ByteCellsLevels, MatchTheirRowsAfterEveryLevel) {
  const int procs = GetParam();
  const data::Dataset ds = quest_binned(3000, 21);
  ParOptions opt;
  opt.num_procs = procs;
  mpsim::Machine m(procs, opt.cost);
  ParContext ctx(ds, opt, m);
  ASSERT_EQ(ctx.layout().cell_attrs().size(), 9u);
  const mpsim::Group g = mpsim::Group::whole(m);
  std::vector<NodeWork> frontier{ctx.initial_root(g)};
  expect_cells(ctx, frontier, "root");
  for (int level = 0; !frontier.empty(); ++level) {
    frontier = expand_level(ctx, g, frontier);
    expect_cells(ctx, frontier, "level " + std::to_string(level));
  }
  EXPECT_EQ(dtree::model_digest(ctx.tree()),
            dtree::model_digest(dtree::grow_bfs(ds, opt.grow)));
}

INSTANTIATE_TEST_SUITE_P(Procs, ByteCellsLevels, ::testing::Values(1, 3, 16));

/// A frontier a few levels below the root on `procs` members.
std::vector<NodeWork> frontier_at(ParContext& ctx, const mpsim::Group& g,
                                  int levels) {
  std::vector<NodeWork> frontier{ctx.initial_root(g)};
  for (int l = 0; l < levels; ++l) frontier = expand_level(ctx, g, frontier);
  return frontier;
}

TEST(ByteCells, HybridFoldKeepsMemberOrder) {
  const data::Dataset ds = quest_binned(3000, 22);
  ParOptions opt;
  opt.num_procs = 8;
  mpsim::Machine m(8, opt.cost);
  ParContext ctx(ds, opt, m);
  std::vector<NodeWork> frontier =
      frontier_at(ctx, mpsim::Group::whole(m), 3);
  ASSERT_FALSE(frontier.empty());
  for (NodeWork& nw : frontier) {
    const NodeWork before = nw;
    const NodeWork half = fold_halves(nw, 4);
    EXPECT_EQ(nw.total_records(), 0);
    ASSERT_EQ(half.members(), 4);
    for (int lm = 0; lm < 4; ++lm) {
      std::vector<data::RowId> want = rows_of(before, lm);
      const std::vector<data::RowId> partner = rows_of(before, lm + 4);
      want.insert(want.end(), partner.begin(), partner.end());
      EXPECT_EQ(rows_of(half, lm), want);
    }
    EXPECT_FALSE(half.cells.empty());
    EXPECT_TRUE(cells_match(ctx, half));
  }
}

TEST(ByteCells, PartitionedSpreadFillsFairShares) {
  const data::Dataset ds = quest_binned(3000, 23);
  ParOptions opt;
  opt.num_procs = 6;
  mpsim::Machine m(6, opt.cost);
  ParContext ctx(ds, opt, m);
  std::vector<NodeWork> frontier =
      frontier_at(ctx, mpsim::Group::whole(m), 2);
  ASSERT_FALSE(frontier.empty());
  const std::vector<int> members{1, 2, 4};
  for (NodeWork& nw : frontier) {
    std::vector<data::RowId> all = nw.rows;
    const std::int64_t total = nw.total_records();
    std::vector<std::int64_t> moved(36, 0);
    const NodeWork spread = spread_over(nw, members, moved);
    ASSERT_EQ(spread.members(), 3);
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(spread.member_records(j), total / 3 + (j < total % 3 ? 1 : 0));
    }
    std::vector<data::RowId> got = spread.rows;
    std::sort(all.begin(), all.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, all);
    std::int64_t changed = 0;
    for (const std::int64_t n : moved) changed += n;
    EXPECT_LE(changed, total);
    EXPECT_TRUE(cells_match(ctx, spread));
  }
}

TEST(ByteCells, BalancePlanMovesCellsWithRows) {
  const data::Dataset ds = quest_binned(3000, 24);
  ParOptions opt;
  opt.num_procs = 4;
  mpsim::Machine m(4, opt.cost);
  ParContext ctx(ds, opt, m);
  const mpsim::Group g = mpsim::Group::whole(m);
  std::vector<NodeWork> frontier = frontier_at(ctx, g, 3);
  ASSERT_GT(frontier.size(), 1u);
  // Skew the members first: member 3 gives most of its rows to member 0.
  const std::int64_t from3 = frontier_member_records(frontier, 3);
  move_member_rows(ctx, g, frontier, {{3, 0, from3 - 5}});
  expect_cells(ctx, frontier, "skewed");
  std::vector<std::int64_t> counts(4);
  for (int i = 0; i < 4; ++i) counts[i] = frontier_member_records(frontier, i);
  const std::vector<mpsim::Transfer> plan = mpsim::Group::plan_balance(counts);
  ASSERT_FALSE(plan.empty());
  move_member_rows(ctx, g, frontier, plan);
  expect_cells(ctx, frontier, "balanced");
  std::int64_t lo = frontier_member_records(frontier, 0);
  std::int64_t hi = lo;
  for (int i = 1; i < 4; ++i) {
    lo = std::min(lo, frontier_member_records(frontier, i));
    hi = std::max(hi, frontier_member_records(frontier, i));
  }
  EXPECT_LE(hi - lo, 1);
  // The next level partitions the moved cells.
  frontier = expand_level(ctx, g, frontier);
  expect_cells(ctx, frontier, "after balance");
}

TEST(ByteCells, RecoveredNodesKeepTheirCells) {
  const data::Dataset ds = quest_binned(2000, 25);
  mpsim::FaultPlan plan;
  plan.fail_stop(2, 2);
  ParOptions opt;
  opt.num_procs = 4;
  opt.fault = &plan;
  mpsim::Machine machine(4);
  ParContext ctx(ds, opt, machine);
  mpsim::Group g = mpsim::Group::whole(machine);
  std::vector<NodeWork> frontier = frontier_at(ctx, g, 2);
  const LevelCheckpoint ck = take_checkpoint(ctx, g, frontier, 2);
  machine.fault()->enter_level(2, g.ranks());
  try {
    machine.charge_compute(2, 1.0);
    FAIL() << "expected RankFailure";
  } catch (const mpsim::RankFailure& rf) {
    recover_from_failure(ctx, g, frontier, ck, rf);
  }
  ASSERT_EQ(g.size(), 3);
  ASSERT_FALSE(frontier.empty());
  // The checkpoint kept the cells, and regroup carried them to the
  // survivors: they hold before the next level expands.
  expect_cells(ctx, frontier, "recovered");
  while (!frontier.empty()) {
    frontier = expand_level(ctx, g, frontier);
    expect_cells(ctx, frontier, "after recovery");
  }
  EXPECT_EQ(dtree::model_digest(ctx.tree()),
            dtree::model_digest(dtree::grow_bfs(ds, opt.grow)));
}

TEST(ByteCells, ResumedNodesGatherTheirCells) {
  const data::Dataset ds = quest_binned(2000, 26);
  const fs::path dir = fs::path(::testing::TempDir()) / "byte_cells_resume";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ParOptions opt;
  opt.num_procs = 3;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 1000;
  const ParResult full = build_sync(ds, opt);
  ASSERT_GT(full.recovery.durable_checkpoints, 3);

  ParOptions ropt = opt;
  ropt.resume = true;
  ropt.resume_epoch = 3;
  mpsim::Machine machine(3, ropt.cost);
  ParContext ctx(ds, ropt, machine);
  RunSnapshot snap;
  ASSERT_TRUE(resume_from_checkpoint(ctx, "sync", &snap));
  ASSERT_EQ(snap.parts.size(), 1u);
  std::vector<NodeWork> frontier = std::move(snap.parts.front().frontier);
  ASSERT_FALSE(frontier.empty());
  // The file holds rows only; the resume gathered every node's cells.
  expect_cells(ctx, frontier, "resumed");
  const mpsim::Group g = mpsim::Group::whole(machine);
  while (!frontier.empty()) {
    frontier = expand_level(ctx, g, frontier);
    expect_cells(ctx, frontier, "after resume");
  }
  EXPECT_TRUE(ctx.tree().same_as(full.tree));
  fs::remove_all(dir);
}

// Mixed schemas: some attributes carry cells, others (slots x C > 256)
// are always gathered, in one build.
enum class Mixed { WideOrdered, WideNominalMultiway, FineContinuous };

const char* to_string(Mixed s) {
  switch (s) {
    case Mixed::WideOrdered: return "salary150";
    case Mixed::WideNominalMultiway: return "salary300_multiway";
    case Mixed::FineContinuous: return "cont_bins200";
  }
  return "?";
}

data::Dataset mixed_dataset(Mixed s) {
  switch (s) {
    case Mixed::WideOrdered: return quest_wide_salary(2000, 150, false);
    case Mixed::WideNominalMultiway: return quest_wide_salary(2000, 300, true);
    case Mixed::FineContinuous:
      return data::quest_generate(2000, {.function = 2, .seed = 12});
  }
  return {};
}

ParOptions mixed_options(Mixed s) {
  ParOptions opt;
  if (s == Mixed::WideNominalMultiway) {
    opt.grow.policy = dtree::SplitPolicy::Multiway;
  }
  if (s == Mixed::FineContinuous) opt.grow.cont_bins = 200;
  return opt;
}

using MixedConfig = std::tuple<Mixed, Formulation, int>;

std::string mixed_name(const ::testing::TestParamInfo<MixedConfig>& info) {
  const auto [s, f, procs] = info.param;
  return std::string(to_string(s)) + "_" + core::to_string(f) + "_P" +
         std::to_string(procs);
}

class ByteCellsMixed : public ::testing::TestWithParam<MixedConfig> {};

TEST_P(ByteCellsMixed, MatchesOracleDigest) {
  const auto [s, f, procs] = GetParam();
  const data::Dataset ds = mixed_dataset(s);
  ParOptions opt = mixed_options(s);
  opt.num_procs = procs;
  const dtree::AttrLayout layout(ds.schema(), opt.grow.cont_bins);
  ASSERT_GT(layout.cell_attrs().size(), 0u);
  ASSERT_LT(layout.cell_attrs().size(),
            static_cast<std::size_t>(layout.num_attributes()));
  const ParResult res = build(f, ds, opt);
  EXPECT_EQ(dtree::model_digest(res.tree),
            dtree::model_digest(dtree::grow_bfs(ds, opt.grow)));
  EXPECT_EQ(res.parent_tables_left, 0);
  if (s == Mixed::WideNominalMultiway) {
    // Child indices past a byte take the wide routing path.
    int widest = 0;
    for (int id = 0; id < res.tree.num_nodes(); ++id) {
      widest = std::max(widest, res.tree.node(id).test.num_children);
    }
    EXPECT_GT(widest, 256);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formulations, ByteCellsMixed,
    ::testing::Combine(::testing::Values(Mixed::WideOrdered,
                                         Mixed::WideNominalMultiway,
                                         Mixed::FineContinuous),
                       ::testing::Values(Formulation::Sync,
                                         Formulation::Partitioned,
                                         Formulation::Hybrid),
                       ::testing::Values(1, 3, 16, 17)),
    mixed_name);

}  // namespace
}  // namespace pdt::core
