// The event-sourced execution log (DESIGN.md §8): the recorder's shadow
// clocks (an identity ClockFold) track the machine's bit-exactly after
// every charge, barrier, wait, timeout and retry; phase/level stamps land
// on the right events; and a blame-on fold attributes idle gaps to the
// rank (and phase) everyone was waiting on.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "mpsim/event_log.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/machine.hpp"
#include "obs/observability.hpp"

namespace pdt::obs {
namespace {

using mpsim::BlameEdge;
using mpsim::ClockFold;
using mpsim::EventRecorder;
using mpsim::ExecEvent;
using mpsim::Machine;

/// In-process blame: a blame-on identity fold over the recorded events.
std::vector<BlameEdge> blame_edges(const EventRecorder& rec) {
  ClockFold fold(rec.nprocs(), rec.cost(), rec.cost(), /*blame=*/true);
  for (const ExecEvent& e : rec.events()) fold.apply(e);
  return fold.blame();
}

TEST(EventLogTest, ShadowClocksTrackMachineBitExactly) {
  Machine m(4);
  EventRecorder rec;
  m.set_event_recorder(&rec);
  mpsim::FaultPlan plan;
  plan.transient_timeout(/*rank=*/1, /*level=*/0, /*count=*/2);
  m.arm_faults(plan);
  m.fault()->enter_level(0, {0, 1, 2, 3});

  const auto expect_in_step = [&](const char* after) {
    ASSERT_EQ(rec.nprocs(), 4);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(rec.clocks()[static_cast<std::size_t>(r)], m.clock(r))
          << "rank " << r << " shadow clock diverged after " << after;
    }
    EXPECT_EQ(rec.max_clock(), m.max_clock()) << after;
  };

  m.charge_compute_time(0, 10.7);
  expect_in_step("compute");
  m.charge_compute_time(1, 3.3);
  expect_in_step("compute");
  m.charge_comm(2, 40.0 + 5 * 0.11, 5.0, 5.0, 1, 40.0);
  expect_in_step("comm");
  m.charge_io(3, 2.5);
  expect_in_step("io");
  m.barrier_over({0, 1, 2, 3});
  expect_in_step("barrier");
  m.charge_compute_time(1, 0.1);
  expect_in_step("compute");
  m.wait_until(0, 55.0);
  expect_in_step("wait_until");
  m.wait_for(2, 1);
  expect_in_step("wait_for");
  m.charge_compute_time(3, 7.25);
  expect_in_step("compute");
  (void)m.charge_timeout({0, 1, 3}, /*dead=*/2);
  expect_in_step("charge_timeout");
  // Rank 1's transient fault fails two attempts: two backed-off windows.
  m.admit_collective({0, 1, 2, 3}, "all-reduce");
  EXPECT_EQ(m.retries(), 2u);
  expect_in_step("admit_collective");
  m.charge_compute_time(2, 1.5);
  expect_in_step("compute");
}

TEST(EventLogTest, EscalatedRetriesKeepShadowClocksInStep) {
  Machine m(4);
  EventRecorder rec;
  m.set_event_recorder(&rec);
  mpsim::FaultPlan plan;
  plan.corrupt_link(/*a=*/2, /*b=*/0, /*level=*/0,
                    /*count=*/Machine::kMaxRetryAttempts + 1);
  m.arm_faults(plan);
  m.fault()->enter_level(0, {0, 1, 2, 3});
  m.charge_compute_time(1, 12.0);

  const auto expect_in_step = [&](const char* after) {
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(rec.clocks()[static_cast<std::size_t>(r)], m.clock(r))
          << "rank " << r << " shadow clock diverged after " << after;
    }
  };
  // Every failed attempt is logged before the escalation throws, and the
  // barrier that raises the escalated rank advances no clock, so it logs
  // nothing to replay.
  EXPECT_THROW(m.admit_collective({0, 1, 2, 3}, "transfers"),
               mpsim::RankFailure);
  expect_in_step("escalation");
  const std::size_t logged = rec.events().size();
  EXPECT_THROW(m.barrier_over({0, 1, 2, 3}, "checkpoint"),
               mpsim::RankFailure);
  EXPECT_EQ(rec.events().size(), logged);
  expect_in_step("barrier on the escalated rank");
  m.fault()->mark_recovered(2);
  m.barrier_over({0, 1, 2, 3}, "checkpoint");
  expect_in_step("barrier without it");
}

TEST(EventLogTest, PhaseAndLevelStampsLandOnCharges) {
  Machine m(2);
  EventRecorder rec;
  m.set_event_recorder(&rec);

  rec.open_phase("histogram");
  m.set_rank_level(0, 3);
  m.charge_compute_time(0, 1.0);
  rec.close_phase();
  m.charge_compute_time(1, 2.0);  // outside any phase

  ASSERT_EQ(rec.events().size(), 2u);
  const ExecEvent& in_phase = rec.events()[0];
  EXPECT_EQ(rec.phase_names()[static_cast<std::size_t>(in_phase.phase)],
            "histogram");
  EXPECT_EQ(in_phase.level, 3);
  const ExecEvent& outside = rec.events()[1];
  EXPECT_EQ(outside.phase, 0);
  EXPECT_EQ(rec.phase_names()[0], "(unattributed)");
  EXPECT_EQ(outside.level, -1);
}

TEST(EventLogTest, BlameChargesIdleToTheLastArrival) {
  Machine m(3);
  EventRecorder rec;
  m.set_event_recorder(&rec);

  rec.open_phase("split-eval");
  m.set_rank_level(0, 2);
  m.set_rank_level(1, 2);
  m.set_rank_level(2, 2);
  m.charge_compute_time(0, 10.0);
  m.charge_compute_time(1, 30.0);  // rank 1 is the holder
  m.charge_compute_time(2, 25.0);
  rec.close_phase();
  m.barrier_over({0, 1, 2});

  const std::vector<BlameEdge> edges = blame_edges(rec);
  ASSERT_EQ(edges.size(), 2u);
  // Sorted by idle descending: rank 0 idled 20us, rank 2 idled 5us,
  // both waiting on rank 1's split-eval work.
  EXPECT_EQ(edges[0].idler, 0);
  EXPECT_EQ(edges[0].holder, 1);
  EXPECT_EQ(edges[0].idler_level, 2);
  EXPECT_DOUBLE_EQ(edges[0].idle_us, 20.0);
  EXPECT_EQ(rec.phase_names()[static_cast<std::size_t>(edges[0].holder_phase)],
            "split-eval");
  EXPECT_EQ(edges[1].idler, 2);
  EXPECT_EQ(edges[1].holder, 1);
  EXPECT_DOUBLE_EQ(edges[1].idle_us, 5.0);
  // idle_pct is relative to the idler's final clock (30us post-barrier).
  EXPECT_NEAR(edges[0].idle_pct, 20.0 / 30.0 * 100.0, 1e-9);
}

TEST(EventLogTest, WaitForBlamesThePeer) {
  Machine m(2);
  EventRecorder rec;
  m.set_event_recorder(&rec);

  rec.open_phase("host-gather");
  m.charge_compute_time(0, 50.0);
  rec.close_phase();
  m.charge_compute_time(1, 10.0);
  m.wait_for(1, 0);

  const std::vector<BlameEdge> edges = blame_edges(rec);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].idler, 1);
  EXPECT_EQ(edges[0].holder, 0);
  EXPECT_DOUBLE_EQ(edges[0].idle_us, 40.0);
  EXPECT_EQ(rec.phase_names()[static_cast<std::size_t>(edges[0].holder_phase)],
            "host-gather");
}

// Full-build parity: the recorder that rode along inside Observability
// reports exactly the parallel time the run returned, for every
// formulation at several processor counts.
class EventLogBuild
    : public ::testing::TestWithParam<std::tuple<core::Formulation, int>> {};

TEST_P(EventLogBuild, RecorderMaxClockEqualsParallelTime) {
  const auto [f, procs] = GetParam();
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(2000, {.function = 2, .seed = 17}),
      data::quest_paper_bins());
  core::ParOptions opt;
  opt.num_procs = procs;
  Observability o;
  o.enable_event_log();
  opt.obs = &o;
  const core::ParResult res = core::build(f, ds, opt);

  const EventRecorder* rec = o.event_log();
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->nprocs(), procs);
  EXPECT_GT(rec->events().size(), 0u);
  // Bit-exact, not approximate: the shadow clocks ran the same arithmetic.
  EXPECT_EQ(rec->max_clock(), res.parallel_time);
}

INSTANTIATE_TEST_SUITE_P(
    Formulations, EventLogBuild,
    ::testing::Combine(::testing::Values(core::Formulation::Sync,
                                         core::Formulation::Partitioned,
                                         core::Formulation::Hybrid),
                       ::testing::Values(2, 4, 8)));

}  // namespace
}  // namespace pdt::obs
