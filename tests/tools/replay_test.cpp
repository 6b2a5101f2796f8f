// The headline invariant of the event-sourced log: pdt replay's offline
// re-execution of a pdt-events-v1 file under the recorded constants
// reproduces every per-rank virtual clock bit-exactly (operator==, no
// tolerance) — for all three formulations, several processor counts, and
// a run that absorbed an injected failure. What-if semantics ride along:
// doubling every constant doubles every clock exactly, and raising t_w
// never makes a replay faster.
#include "replay/replay.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "json/json.hpp"
#include "mpsim/event_log.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/machine.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"

namespace pdt::tools {
namespace {

// Serialize a recorder exactly as the bench harnesses do, then parse it
// back through the tool's own JSON reader — the round-trip every replay
// in production takes (json_double_exact must preserve every bit).
EventLog round_trip(const mpsim::EventRecorder& rec,
                    const obs::EventLogMeta& meta = {}) {
  std::ostringstream os;
  obs::write_events_report(os, rec, meta);
  JsonValue root;
  std::string err;
  EXPECT_TRUE(json_parse(os.str(), &root, &err)) << err;
  EventLog log;
  EXPECT_TRUE(parse_event_log(root, &log, &err)) << err;
  return log;
}

data::Dataset workload(std::size_t n, std::uint64_t seed = 11) {
  return data::discretize_uniform(
      data::quest_generate(n, {.function = 2, .seed = seed}),
      data::quest_paper_bins());
}

class ReplayIdentity
    : public ::testing::TestWithParam<std::tuple<core::Formulation, int>> {};

TEST_P(ReplayIdentity, ReproducesEveryClockBitExactly) {
  const auto [f, procs] = GetParam();
  core::ParOptions opt;
  opt.num_procs = procs;
  obs::Observability o;
  o.enable_event_log();
  opt.obs = &o;
  const core::ParResult res = core::build(f, workload(2000), opt);

  const EventLog log = round_trip(*o.event_log());
  ASSERT_EQ(log.nprocs, procs);
  ASSERT_GT(log.events.size(), 0u);

  const mpsim::ClockFold r = replay_log(log, log.cost);
  EXPECT_FALSE(r.unscalable());
  for (int rank = 0; rank < procs; ++rank) {
    EXPECT_EQ(r.clocks()[static_cast<std::size_t>(rank)],
              log.recorded_clocks[static_cast<std::size_t>(rank)])
        << "rank " << rank << " clock diverged on identity replay";
  }
  EXPECT_EQ(r.max_clock(), log.recorded_max_clock);
  EXPECT_EQ(r.max_clock(), res.parallel_time);
}

INSTANTIATE_TEST_SUITE_P(
    Formulations, ReplayIdentity,
    ::testing::Combine(::testing::Values(core::Formulation::Sync,
                                         core::Formulation::Partitioned,
                                         core::Formulation::Hybrid),
                       ::testing::Values(4, 8)));

TEST(ReplayFaultTest, IdentityHoldsThroughFailureDetectionAndRecovery) {
  mpsim::FaultPlan plan;
  plan.fail_stop(1, 2);
  core::ParOptions opt;
  opt.num_procs = 4;
  opt.fault = &plan;
  obs::Observability o;
  o.enable_event_log();
  opt.obs = &o;
  const core::ParResult res =
      core::build(core::Formulation::Hybrid, workload(2000), opt);
  ASSERT_EQ(res.recovery.failures, 1);

  const EventLog log = round_trip(*o.event_log());
  const mpsim::ClockFold r = replay_log(log, log.cost);
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(r.clocks()[static_cast<std::size_t>(rank)],
              log.recorded_clocks[static_cast<std::size_t>(rank)]);
  }
  EXPECT_EQ(r.max_clock(), res.parallel_time);
}

TEST(ReplayFaultTest, InProcessBlameMatchesReplayThroughRetries) {
  // Transient faults only: the backoff windows are the sole rank-failure
  // idle, so the in-process blame must charge them to the faulty rank
  // exactly as the offline replay does, and its shadow clocks must stay
  // in step for every edge recorded after them.
  mpsim::FaultPlan plan;
  plan.transient_timeout(/*rank=*/1, /*level=*/0, /*count=*/2);
  plan.transient_timeout(/*rank=*/2, /*level=*/1, /*count=*/1);
  core::ParOptions opt;
  opt.num_procs = 4;
  opt.fault = &plan;
  obs::Observability o;
  o.enable_event_log();
  opt.obs = &o;
  const core::ParResult res =
      core::build(core::Formulation::Sync, workload(2000), opt);
  ASSERT_EQ(res.recovery.retries, 3u);

  const mpsim::EventRecorder& rec = *o.event_log();
  mpsim::ClockFold in_process(rec.nprocs(), rec.cost(), rec.cost(),
                              /*blame=*/true);
  for (const mpsim::ExecEvent& e : rec.events()) in_process.apply(e);
  const std::vector<mpsim::BlameEdge> live = in_process.blame();
  const EventLog log = round_trip(rec);
  const std::vector<mpsim::BlameEdge> replayed =
      replay_log(log, log.cost, /*with_blame=*/true).blame();
  ASSERT_EQ(live.size(), replayed.size());
  int faulty_edges = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i].idler, replayed[i].idler) << i;
    EXPECT_EQ(live[i].idler_level, replayed[i].idler_level) << i;
    EXPECT_EQ(live[i].holder, replayed[i].holder) << i;
    EXPECT_EQ(live[i].holder_phase, replayed[i].holder_phase) << i;
    EXPECT_EQ(live[i].idle_us, replayed[i].idle_us) << i;
    EXPECT_EQ(live[i].idle_pct, replayed[i].idle_pct) << i;
    if (live[i].holder_phase == mpsim::kRankFailurePhase) ++faulty_edges;
  }
  // Every member, the faulty rank included, idles out the window: one
  // edge per (member, faulty rank) for rank 1's two windows at level 0
  // and rank 2's at level 1.
  EXPECT_EQ(faulty_edges, 8);
}

TEST(ReplayWhatIfTest, DoublingEveryConstantDoublesEveryClock) {
  // Hand-built log with every charge kind plus a barrier; multiplying
  // each constant by an exact power of two must scale each clock by
  // exactly 2.0 (dt * 2.0 is exact in IEEE arithmetic).
  mpsim::Machine m(2);
  mpsim::EventRecorder rec;
  m.set_event_recorder(&rec);
  const mpsim::CostModel& cm = m.cost();
  m.charge_compute_time(0, 100 * cm.t_c);
  m.charge_comm(1, cm.t_s + 12 * cm.t_w, 12.0, 12.0, 1, cm.t_s);
  m.charge_io(0, 30 * cm.t_io);
  m.barrier_over({0, 1});

  const EventLog log = round_trip(rec);
  mpsim::CostModel doubled = log.cost;
  doubled.t_s *= 2.0;
  doubled.t_w *= 2.0;
  doubled.t_c *= 2.0;
  doubled.t_io *= 2.0;
  doubled.t_timeout *= 2.0;
  const mpsim::ClockFold r = replay_log(log, doubled);
  EXPECT_FALSE(r.unscalable());
  for (int rank = 0; rank < 2; ++rank) {
    EXPECT_EQ(r.clocks()[static_cast<std::size_t>(rank)],
              2.0 * log.recorded_clocks[static_cast<std::size_t>(rank)]);
  }
}

TEST(ReplayWhatIfTest, RaisingBandwidthCostNeverSpeedsUpTheRun) {
  core::ParOptions opt;
  opt.num_procs = 4;
  obs::Observability o;
  o.enable_event_log();
  opt.obs = &o;
  (void)core::build(core::Formulation::Sync, workload(2000), opt);
  const EventLog log = round_trip(*o.event_log());

  double prev = 0.0;
  for (const double tw : {0.05, 0.11, 0.2, 0.5, 1.0}) {
    mpsim::CostModel c = log.cost;
    c.t_w = tw;
    const double clock = replay_log(log, c).max_clock();
    EXPECT_GE(clock, prev) << "t_w=" << tw;
    prev = clock;
  }
}

TEST(ReplaySweepTest, ParsesGridsAndSinglePoints) {
  std::vector<SweepAxis> axes;
  std::string err;
  ASSERT_TRUE(parse_sweep_spec("t_s=10:80:10,t_w=0.11", &axes, &err)) << err;
  ASSERT_EQ(axes.size(), 2u);
  EXPECT_EQ(axes[0].key, "t_s");
  EXPECT_DOUBLE_EQ(axes[0].lo, 10.0);
  EXPECT_DOUBLE_EQ(axes[0].hi, 80.0);
  EXPECT_DOUBLE_EQ(axes[0].step, 10.0);
  EXPECT_EQ(axes[1].key, "t_w");
  EXPECT_DOUBLE_EQ(axes[1].lo, 0.11);
  EXPECT_DOUBLE_EQ(axes[1].hi, 0.11);

  axes.clear();
  EXPECT_FALSE(parse_sweep_spec("t_q=1:2:1", &axes, &err));  // unknown key
  EXPECT_FALSE(parse_sweep_spec("t_s=5:1:1", &axes, &err));  // hi < lo
  EXPECT_FALSE(parse_sweep_spec("t_s", &axes, &err));        // no value
  EXPECT_FALSE(parse_sweep_spec("t_w=-0.2:0.0:0.1", &axes, &err));  // LO < 0
  EXPECT_NE(err.find("t_w=-0.2"), std::string::npos) << err;
  EXPECT_FALSE(parse_sweep_spec("t_w=0:1:inf", &axes, &err));  // 0 * inf
  EXPECT_FALSE(parse_sweep_spec("t_w=0:1:nan", &axes, &err));
}

TEST(ReplayCheckTest, CorruptedRecordedClockFailsTheGate) {
  core::ParOptions opt;
  opt.num_procs = 4;
  obs::Observability o;
  o.enable_event_log();
  opt.obs = &o;
  (void)core::build(core::Formulation::Sync, workload(1000), opt);
  EventLog log = round_trip(*o.event_log());

  ReplayOptions ropt;
  ropt.check = true;
  std::ostringstream sink;
  EXPECT_EQ(run_replay({log}, ropt, sink), 0);

  log.recorded_clocks[1] += 1e-9;  // even one ulp-scale nudge must trip it
  std::ostringstream sink2;
  EXPECT_EQ(run_replay({log}, ropt, sink2), 1);
}

// The host overlay: a profiled run's wall-clock account rides inside the
// events log, survives the JSON round trip, and run_replay charts
// predicted (virtual) vs measured (host) scaling from it.
TEST(ReplayHostTest, OverlayRoundTripsAndIdentityStillHolds) {
  core::ParOptions opt;
  opt.num_procs = 4;
  obs::Observability o;
  o.enable_event_log();
  o.enable_host_profiler();
  opt.obs = &o;
  (void)core::build(core::Formulation::Hybrid, workload(2000), opt);

  std::ostringstream os;
  obs::EventLogMeta meta;
  meta.procs = 4;
  obs::write_events_report(os, *o.event_log(), meta, o.host_profiler());
  JsonValue root;
  std::string err;
  ASSERT_TRUE(json_parse(os.str(), &root, &err)) << err;
  EventLog log;
  ASSERT_TRUE(parse_event_log(root, &log, &err)) << err;

  EXPECT_TRUE(log.has_host);
  EXPECT_EQ(log.host_clock, "steady_clock");
  EXPECT_GT(log.host_total_ns, 0.0);
  EXPECT_GT(log.host_samples, 0u);
  EXPECT_FALSE(log.host_by_phase.empty());
  for (const HostPhaseRow& row : log.host_by_phase) {
    EXPECT_FALSE(row.phase.empty());
    EXPECT_GE(row.host_ns, 0.0);
  }

  // The overlay is bookkeeping only — the identity replay of the event
  // stream itself must still be bit-exact.
  const mpsim::ClockFold r = replay_log(log, log.cost);
  EXPECT_EQ(r.max_clock(), log.recorded_max_clock);
}

TEST(ReplayHostTest, RunReplayChartsPredictedVsMeasuredScaling) {
  auto record = [](int procs) {
    core::ParOptions opt;
    opt.num_procs = procs;
    obs::Observability o;
    o.enable_event_log();
    o.enable_host_profiler();
    opt.obs = &o;
    (void)core::build(core::Formulation::Hybrid, workload(2000), opt);
    std::ostringstream os;
    obs::EventLogMeta meta;
    meta.procs = procs;
    meta.n = 2000;
    obs::write_events_report(os, *o.event_log(), meta, o.host_profiler());
    JsonValue root;
    std::string err;
    EXPECT_TRUE(json_parse(os.str(), &root, &err)) << err;
    EventLog log;
    EXPECT_TRUE(parse_event_log(root, &log, &err)) << err;
    log.name = "P" + std::to_string(procs);
    return log;
  };
  const EventLog p2 = record(2);
  const EventLog p8 = record(8);

  std::ostringstream out;
  EXPECT_EQ(run_replay({p2, p8}, ReplayOptions{}, out), 0);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"host\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"ns_per_virtual_us\""), std::string::npos);
  EXPECT_NE(doc.find("\"scaling\""), std::string::npos);
  EXPECT_NE(doc.find("\"predicted_speedup\""), std::string::npos);
  EXPECT_NE(doc.find("\"measured_host_ratio\""), std::string::npos);

  // Logs recorded without a host profiler produce no overlay.
  core::ParOptions opt;
  opt.num_procs = 4;
  obs::Observability o;
  o.enable_event_log();
  opt.obs = &o;
  (void)core::build(core::Formulation::Hybrid, workload(2000), opt);
  const EventLog plain = round_trip(*o.event_log());
  EXPECT_FALSE(plain.has_host);
  std::ostringstream out2;
  EXPECT_EQ(run_replay({plain}, ReplayOptions{}, out2), 0);
  EXPECT_EQ(out2.str().find("\"host\""), std::string::npos);
}

}  // namespace
}  // namespace pdt::tools
