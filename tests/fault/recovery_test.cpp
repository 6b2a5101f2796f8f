// Checkpoint/recovery mechanics (DESIGN.md §7): the pure checkpoint tax,
// direct take_checkpoint/recover_from_failure invariants (group shrink,
// row conservation, memory rollback), and end-to-end builds whose
// recovered tree matches the fault-free one with overheads accounted.
#include "core/recovery.hpp"

#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"

namespace pdt::core {
namespace {

data::Dataset small_dataset(std::size_t n = 1500) {
  return data::discretize_uniform(
      data::quest_generate(n, {.function = 2, .seed = 3}),
      data::quest_paper_bins());
}

TEST(Checkpoint, DirectAccountingAndScratchRoundTrip) {
  const data::Dataset ds = small_dataset(400);
  mpsim::FaultPlan plan;  // empty but armed: checkpoints on, no faults
  ParOptions opt;
  opt.num_procs = 4;
  opt.fault = &plan;
  mpsim::Machine machine(4);
  ParContext ctx(ds, opt, machine);
  mpsim::Group g = mpsim::Group::whole(machine);
  std::vector<NodeWork> frontier{ctx.initial_root(g)};

  const LevelCheckpoint ck = take_checkpoint(ctx, g, frontier, 0);
  EXPECT_EQ(ck.level, 0);
  EXPECT_EQ(ck.ranks, g.ranks());
  EXPECT_EQ(frontier_records(ck.frontier),
            static_cast<std::int64_t>(ds.num_rows()));
  EXPECT_EQ(ck.bytes, static_cast<std::int64_t>(ds.num_rows()) *
                          ctx.record_bytes());
  EXPECT_EQ(ctx.recovery.checkpoints, 1);
  EXPECT_EQ(ctx.recovery.checkpoint_bytes, ck.bytes);

  // Each member paid t_io per record word it staged, and the staging
  // scratch was fully released again.
  mpsim::Time expected_io = 0.0;
  for (int m = 0; m < g.size(); ++m) {
    expected_io += machine.cost().t_io *
                   static_cast<double>(frontier_member_records(frontier, m)) *
                   ctx.record_words();
    EXPECT_EQ(machine.mem(g.rank(m)).live_for(mpsim::MemTag::Scratch), 0);
    EXPECT_GT(machine.mem(g.rank(m)).peak_for(mpsim::MemTag::Scratch), 0);
    EXPECT_GT(machine.stats(g.rank(m)).io_time, 0.0);
  }
  EXPECT_DOUBLE_EQ(ctx.recovery.checkpoint_io_us, expected_io);
}

TEST(Recovery, DirectRestoreShrinksGroupAndConservesRows) {
  const data::Dataset ds = small_dataset(400);
  mpsim::FaultPlan plan;
  plan.fail_stop(2, 0);
  ParOptions opt;
  opt.num_procs = 4;
  opt.fault = &plan;
  mpsim::Machine machine(4);
  ParContext ctx(ds, opt, machine);
  mpsim::Group g = mpsim::Group::whole(machine);
  std::vector<NodeWork> frontier{ctx.initial_root(g)};

  const LevelCheckpoint ck = take_checkpoint(ctx, g, frontier, 0);
  const std::int64_t dead_shard = ck.frontier[0].member_records(2);
  ASSERT_GT(dead_shard, 0);

  machine.fault()->enter_level(0, g.ranks());
  ASSERT_FALSE(machine.fault()->alive(2));
  try {
    machine.charge_compute(2, 1.0);
    FAIL() << "expected RankFailure";
  } catch (const mpsim::RankFailure& rf) {
    recover_from_failure(ctx, g, frontier, ck, rf);
  }

  // The group shrank to the survivors and the frontier re-indexed to it.
  EXPECT_EQ(g.ranks(), (std::vector<mpsim::Rank>{0, 1, 3}));
  ASSERT_EQ(frontier.size(), 1u);
  ASSERT_EQ(frontier[0].members(), 3);
  EXPECT_EQ(frontier_records(frontier),
            static_cast<std::int64_t>(ds.num_rows()));
  // The redistribution left the survivors balanced to within one record.
  std::int64_t lo = frontier[0].member_records(0);
  std::int64_t hi = lo;
  for (int m = 1; m < 3; ++m) {
    lo = std::min(lo, frontier[0].member_records(m));
    hi = std::max(hi, frontier[0].member_records(m));
  }
  EXPECT_LE(hi - lo, 1);

  EXPECT_EQ(ctx.recovery.failures, 1);
  EXPECT_EQ(ctx.recovery.records_redistributed, dead_shard);
  EXPECT_DOUBLE_EQ(ctx.recovery.detect_us, machine.cost().t_timeout);
  EXPECT_GT(ctx.recovery.recovery_us, 0.0);
  EXPECT_TRUE(machine.fault()->recovered(2));
  // The dead rank's memory is gone; survivors carry the whole row store.
  EXPECT_EQ(machine.mem(2).live_total, 0);
  std::int64_t live_records = 0;
  for (const mpsim::Rank r : g.ranks()) {
    live_records += machine.mem(r).live_for(mpsim::MemTag::Records);
  }
  EXPECT_EQ(live_records, static_cast<std::int64_t>(ds.num_rows()) *
                              ctx.record_bytes());
}

TEST(RecoveryBuild, EmptyPlanPaysPureCheckpointTax) {
  const data::Dataset ds = small_dataset();
  ParOptions opt;
  opt.num_procs = 4;
  const ParResult baseline = build(Formulation::Sync, ds, opt);
  mpsim::FaultPlan plan;
  opt.fault = &plan;
  const ParResult res = build(Formulation::Sync, ds, opt);

  EXPECT_TRUE(res.tree.same_as(baseline.tree));
  EXPECT_GT(res.parallel_time, baseline.parallel_time);
  EXPECT_EQ(res.recovery.checkpoints, res.levels);  // one per sync level
  EXPECT_EQ(res.recovery.failures, 0);
  EXPECT_GT(res.recovery.checkpoint_bytes, 0);
  EXPECT_GT(res.recovery.checkpoint_io_us, 0.0);
  EXPECT_DOUBLE_EQ(res.recovery.detect_us, 0.0);
  EXPECT_DOUBLE_EQ(res.recovery.recovery_us, 0.0);
  EXPECT_FALSE(baseline.recovery.any());
  EXPECT_TRUE(res.recovery.any());
}

TEST(RecoveryBuild, FailStopOverheadsAreAccounted) {
  const data::Dataset ds = small_dataset();
  ParOptions opt;
  opt.num_procs = 4;
  opt.trace = true;
  const ParResult serial = build_serial(ds, opt);
  mpsim::FaultPlan plan;
  plan.fail_stop(1, 1);
  opt.fault = &plan;
  for (const Formulation f : {Formulation::Sync, Formulation::Partitioned,
                              Formulation::Hybrid}) {
    const ParResult res = build(f, ds, opt);
    SCOPED_TRACE(to_string(f));
    EXPECT_TRUE(res.tree.same_as(serial.tree));
    EXPECT_EQ(res.recovery.failures, 1);
    EXPECT_GT(res.recovery.records_redistributed, 0);
    EXPECT_GE(res.recovery.detect_us, res.recovery.failures *
                                          opt.cost.t_timeout);
    EXPECT_GT(res.recovery.recovery_us, 0.0);
    // The trace narrates the episode: checkpoints, the detection, and the
    // recovery event.
    std::size_t ckpt = 0, fail = 0, rec = 0;
    for (const mpsim::TraceEvent& e : res.trace) {
      if (e.kind == mpsim::EventKind::Checkpoint) ++ckpt;
      if (e.kind == mpsim::EventKind::RankFail) ++fail;
      if (e.kind == mpsim::EventKind::Recovery) ++rec;
    }
    EXPECT_EQ(ckpt, static_cast<std::size_t>(res.recovery.checkpoints));
    EXPECT_GE(fail, 1u);
    EXPECT_EQ(rec, static_cast<std::size_t>(res.recovery.failures));
  }
}

TEST(RecoveryBuild, StragglerInflatesTimeButNotTheTree) {
  const data::Dataset ds = small_dataset();
  ParOptions opt;
  opt.num_procs = 4;
  mpsim::FaultPlan ckpt_only;
  opt.fault = &ckpt_only;
  for (const Formulation f : {Formulation::Sync, Formulation::Hybrid}) {
    SCOPED_TRACE(to_string(f));
    opt.fault = &ckpt_only;
    const ParResult base = build(f, ds, opt);
    mpsim::FaultPlan slow;
    slow.straggler(1, 0, 3, 4.0);
    opt.fault = &slow;
    const ParResult res = build(f, ds, opt);
    EXPECT_GT(res.parallel_time, base.parallel_time);
    EXPECT_TRUE(res.tree.same_as(base.tree));
    EXPECT_EQ(res.recovery.failures, 0);
  }
}

}  // namespace
}  // namespace pdt::core
