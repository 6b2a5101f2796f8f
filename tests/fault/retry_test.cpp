// Transient-fault retry with exponential backoff: admit_collective's
// arithmetic (attempt i burns a 2^i detection window charged idle to
// every member), the accrual handed to the comm ledger, escalation to a
// detected fail-stop when the budget outlives kMaxRetryAttempts, and —
// at the formulation level — convergence to the fault-free tree with
// the retry cost visible in RecoveryStats, the ledger and the trace.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/serialize.hpp"
#include "mpsim/comm_ledger.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/group.hpp"
#include "mpsim/machine.hpp"
#include "obs/observability.hpp"

namespace pdt::mpsim {
namespace {

const std::vector<Rank> kAll{0, 1, 2, 3};

TEST(Retry, TransientTimeoutHealsWithExponentialBackoff) {
  Machine m(4);
  const Time T = m.cost().t_timeout;
  FaultPlan plan;
  plan.transient_timeout(/*rank=*/1, /*level=*/0, /*count=*/2);
  m.arm_faults(plan);
  m.fault()->enter_level(0, kAll);
  m.wait_until(0, 100.0);  // stagger one clock so the horizon is 100
  m.trace().enable(true);

  m.admit_collective(kAll, "all-reduce");

  // Attempt 0 waits one window to 100+T, attempt 1 waits 2^1 windows on
  // top: every member lands at exactly 100 + 3T.
  for (const Rank r : kAll) EXPECT_EQ(m.clock(r), 100.0 + 3.0 * T) << r;
  EXPECT_EQ(m.retries(), 2u);
  // Each attempt charges its window to all 4 members: (1 + 2) * T * 4.
  EXPECT_EQ(m.retry_us(), 12.0 * T);
  EXPECT_EQ(m.escalations(), 0);
  EXPECT_TRUE(m.fault()->alive(1));  // healed, not killed

  std::vector<TraceEvent> retries;
  for (const TraceEvent& ev : m.trace().events()) {
    if (ev.kind == EventKind::Retry) retries.push_back(ev);
  }
  ASSERT_EQ(retries.size(), 2u);
  EXPECT_EQ(retries[0].rank, 1);
  EXPECT_EQ(retries[0].words, 1.0);  // backoff multiplier rides in words
  EXPECT_NE(retries[0].detail.find("attempt 1 of all-reduce"),
            std::string::npos);
  EXPECT_NE(retries[0].detail.find("backoff x1"), std::string::npos);
  EXPECT_EQ(retries[1].words, 2.0);
  EXPECT_NE(retries[1].detail.find("backoff x2"), std::string::npos);

  // Budget spent, fault healed: the next collective is clean.
  const Time before = m.clock(0);
  m.admit_collective(kAll, "all-reduce");
  EXPECT_EQ(m.clock(0), before);
  EXPECT_EQ(m.retries(), 2u);
}

TEST(Retry, AccrualIsHandedOverOnce) {
  Machine m(4);
  const Time T = m.cost().t_timeout;
  FaultPlan plan;
  plan.transient_timeout(1, 0, 2);
  m.arm_faults(plan);
  m.fault()->enter_level(0, kAll);
  m.admit_collective(kAll, "barrier");

  // The pending accrual is what the next ledger entry absorbs; taking
  // it clears it, so retry cost is attributed exactly once.
  const Machine::RetryAccrual acc = m.take_retry_accrual();
  EXPECT_EQ(acc.us, 12.0 * T);
  EXPECT_EQ(acc.attempts, 2u);
  const Machine::RetryAccrual again = m.take_retry_accrual();
  EXPECT_EQ(again.us, 0.0);
  EXPECT_EQ(again.attempts, 0u);
  // Run-cumulative counters are unaffected by the take.
  EXPECT_EQ(m.retries(), 2u);
  EXPECT_EQ(m.retry_us(), 12.0 * T);
}

TEST(Retry, CorruptLinkBlamesTheFlakyNicOwner) {
  Machine m(4);
  FaultPlan plan;
  plan.corrupt_link(/*a=*/0, /*b=*/2, /*level=*/0, /*count=*/1);
  m.arm_faults(plan);
  m.fault()->enter_level(0, kAll);
  m.trace().enable(true);

  // A collective without both endpoints never trips the checksum.
  m.admit_collective({1, 3}, "all-reduce");
  EXPECT_EQ(m.retries(), 0u);

  m.admit_collective(kAll, "all-reduce");
  EXPECT_EQ(m.retries(), 1u);
  ASSERT_EQ(m.trace().events().size(), 1u);
  EXPECT_EQ(m.trace().events()[0].kind, EventKind::Retry);
  EXPECT_EQ(m.trace().events()[0].rank, 0);  // rank a owns the flaky NIC
}

TEST(Retry, ExhaustedBudgetEscalatesToDetectedFailStop) {
  Machine m(4);
  FaultPlan plan;
  // More failures queued than the retry budget tolerates.
  plan.transient_timeout(2, 0, Machine::kMaxRetryAttempts + 2);
  m.arm_faults(plan);
  m.fault()->enter_level(0, kAll);

  try {
    m.admit_collective(kAll, "record-shuffle");
    FAIL() << "expected RankFailure";
  } catch (const RankFailure& e) {
    EXPECT_EQ(e.rank, 2);
    // The backoff windows already charged the survivors: the recovery
    // path must not charge the detection timeout again.
    EXPECT_TRUE(e.detected);
  }
  EXPECT_EQ(m.retries(), static_cast<std::uint64_t>(Machine::kMaxRetryAttempts));
  EXPECT_EQ(m.escalations(), 1);
  EXPECT_FALSE(m.fault()->alive(2));
}

TEST(Retry, DisarmedAndSingletonCollectivesAreNoOps) {
  Machine m(4);
  m.admit_collective(kAll, "barrier");  // no plan armed
  EXPECT_EQ(m.retries(), 0u);

  FaultPlan plan;
  plan.transient_timeout(1, 0, 1);
  m.arm_faults(plan);
  m.fault()->enter_level(0, kAll);
  m.admit_collective({1}, "barrier");  // singleton: nothing to retry
  EXPECT_EQ(m.retries(), 0u);
  for (const Rank r : kAll) EXPECT_EQ(m.clock(r), 0.0);
}

TEST(Retry, FailedCollectiveBooksItsRetriesOnItsOwnEntry) {
  Machine m(4);
  CommLedger ledger;
  m.set_comm_ledger(&ledger);
  const Time T = m.cost().t_timeout;
  FaultPlan plan;
  plan.transient_timeout(2, 0, Machine::kMaxRetryAttempts + 1);
  m.arm_faults(plan);
  m.fault()->enter_level(0, kAll);
  const Group g(m, kAll);

  EXPECT_THROW(g.charge_all_reduce(8.0), RankFailure);
  // The failed call moved nothing, but its entry carries every retry it
  // burned: windows of 1 + 2 + 4 + 8 timeouts on each of 4 members.
  ASSERT_EQ(ledger.entries().size(), 1u);
  const CollectiveEntry& e = ledger.entries()[0];
  EXPECT_EQ(e.kind, CollectiveKind::AllReduce);
  EXPECT_EQ(e.group_base, 0);
  EXPECT_EQ(e.group_size, 4);
  EXPECT_EQ(e.words, 0.0);
  EXPECT_EQ(e.messages, 0u);
  EXPECT_EQ(e.retries,
            static_cast<std::uint64_t>(Machine::kMaxRetryAttempts));
  EXPECT_EQ(e.retry_us, 15.0 * T * 4.0);
  EXPECT_EQ(e.retry_us, m.retry_us());
  // Nothing is left pending for a later call to absorb.
  EXPECT_EQ(m.take_retry_accrual().attempts, 0u);
}

TEST(Retry, CallAfterAFailedOneAbsorbsNoRetries) {
  Machine m(4);
  CommLedger ledger;
  m.set_comm_ledger(&ledger);
  FaultPlan plan;
  plan.corrupt_link(1, 3, 0, Machine::kMaxRetryAttempts + 1);
  m.arm_faults(plan);
  m.fault()->enter_level(0, kAll);

  EXPECT_THROW(Group(m, kAll).charge_broadcast(4.0), RankFailure);
  m.fault()->mark_recovered(1);
  const Group survivors(m, {0, 2, 3});
  survivors.charge_all_reduce(4.0);

  ASSERT_EQ(ledger.entries().size(), 2u);
  EXPECT_EQ(ledger.entries()[0].kind, CollectiveKind::Broadcast);
  EXPECT_EQ(ledger.entries()[0].retries,
            static_cast<std::uint64_t>(Machine::kMaxRetryAttempts));
  const CollectiveEntry& next = ledger.entries()[1];
  EXPECT_EQ(next.kind, CollectiveKind::AllReduce);
  EXPECT_EQ(next.group_size, 3);
  EXPECT_EQ(next.retries, 0u);
  EXPECT_EQ(next.retry_us, 0.0);
  EXPECT_EQ(ledger.kind_totals(CollectiveKind::AllReduce).retries, 0u);
}

TEST(Retry, EmptyTransferPlanStillBooksItsRetries) {
  Machine m(4);
  CommLedger ledger;
  m.set_comm_ledger(&ledger);
  FaultPlan plan;
  plan.transient_timeout(0, 0, 1);
  m.arm_faults(plan);
  m.fault()->enter_level(0, kAll);

  // Nothing to move, yet the entry barrier burned one retry: the call
  // writes an entry that carries only that cost.
  Group(m, kAll).charge_transfers({}, 2.0);
  ASSERT_EQ(ledger.entries().size(), 1u);
  const CollectiveEntry& e = ledger.entries()[0];
  EXPECT_EQ(e.kind, CollectiveKind::Transfers);
  EXPECT_EQ(e.messages, 0u);
  EXPECT_EQ(e.retries, 1u);
  EXPECT_EQ(e.retry_us, m.cost().t_timeout * 4.0);

  // Once the fault healed, an empty plan records nothing again.
  Group(m, kAll).charge_transfers({}, 2.0);
  EXPECT_EQ(ledger.entries().size(), 1u);
}

}  // namespace
}  // namespace pdt::mpsim

namespace pdt::core {
namespace {

data::Dataset workload() {
  return data::discretize_uniform(
      data::quest_generate(2000, {.function = 2, .seed = 3}),
      data::quest_paper_bins());
}

// Transient faults never change the tree — only the clocks. Every
// formulation must converge to the serial digest with the retry cost
// accounted in RecoveryStats, attributed in the comm ledger, and
// visible as Retry events in the trace.
class RetryConvergenceTest : public ::testing::TestWithParam<Formulation> {};

TEST_P(RetryConvergenceTest, TransientRunConvergesToFaultFreeDigest) {
  const data::Dataset ds = workload();
  const ParResult serial = build_serial(ds, ParOptions{});

  ParOptions clean;
  clean.num_procs = 4;
  const ParResult fault_free = build(GetParam(), ds, clean);

  // Level 0 keeps the whole machine in one group in every formulation,
  // so the transient deterministically fires there.
  mpsim::FaultPlan plan;
  plan.transient_timeout(/*rank=*/1, /*level=*/0, /*count=*/2);
  plan.corrupt_link(/*a=*/0, /*b=*/3, /*level=*/1, /*count=*/1);
  obs::Observability obs;
  ParOptions opt;
  opt.num_procs = 4;
  opt.fault = &plan;
  opt.obs = &obs;
  opt.trace = true;
  const ParResult res = build(GetParam(), ds, opt);

  EXPECT_TRUE(res.tree.same_as(serial.tree));
  EXPECT_TRUE(res.tree.same_as(fault_free.tree));
  EXPECT_GE(res.recovery.retries, 2u);
  EXPECT_GT(res.recovery.retry_us, 0.0);
  EXPECT_EQ(res.recovery.escalations, 0);
  EXPECT_EQ(res.recovery.failures, 0);
  // Backoff windows are real idle time: the faulty run is slower.
  EXPECT_GT(res.parallel_time, fault_free.parallel_time);

  // Ledger attribution: the retry cost lands on collective entries.
  std::uint64_t ledger_retries = 0;
  mpsim::Time ledger_retry_us = 0.0;
  for (const mpsim::CollectiveEntry& e : obs.comm_ledger().entries()) {
    ledger_retries += e.retries;
    ledger_retry_us += e.retry_us;
  }
  EXPECT_GT(ledger_retries, 0u);
  EXPECT_GT(ledger_retry_us, 0.0);
  EXPECT_LE(ledger_retry_us, res.recovery.retry_us + 1e-9);

  // Event-log visibility: Retry events carry the backoff multiplier.
  int retry_events = 0;
  for (const mpsim::TraceEvent& ev : res.trace) {
    if (ev.kind == mpsim::EventKind::Retry) {
      ++retry_events;
      EXPECT_GE(ev.words, 1.0);
      EXPECT_NE(ev.detail.find("backoff"), std::string::npos);
    }
  }
  EXPECT_GE(retry_events, 2);
}

TEST_P(RetryConvergenceTest, RetryEpisodeIsDeterministic) {
  const data::Dataset ds = workload();
  mpsim::FaultPlan plan;
  plan.transient_timeout(1, 0, 2);
  ParOptions opt;
  opt.num_procs = 4;
  opt.fault = &plan;
  const ParResult a = build(GetParam(), ds, opt);
  const ParResult b = build(GetParam(), ds, opt);
  EXPECT_EQ(a.parallel_time, b.parallel_time);  // exact, not approximate
  EXPECT_EQ(a.recovery.retries, b.recovery.retries);
  EXPECT_EQ(a.recovery.retry_us, b.recovery.retry_us);
  EXPECT_TRUE(a.tree.same_as(b.tree));
}

TEST_P(RetryConvergenceTest, UnfiredTransientLeavesClocksUntouched) {
  // Two armed runs, one with a transient scheduled far beyond the tree's
  // depth: the retry machinery on the fault-free path must cost nothing.
  const data::Dataset ds = workload();
  mpsim::FaultPlan empty;
  ParOptions base;
  base.num_procs = 4;
  base.fault = &empty;
  const ParResult plain = build(GetParam(), ds, base);

  mpsim::FaultPlan never;
  never.transient_timeout(1, /*level=*/40, /*count=*/1);
  ParOptions opt = base;
  opt.fault = &never;
  const ParResult res = build(GetParam(), ds, opt);
  EXPECT_EQ(res.parallel_time, plain.parallel_time);
  EXPECT_EQ(res.recovery.retries, 0u);
  EXPECT_EQ(res.recovery.retry_us, 0.0);
  EXPECT_TRUE(res.tree.same_as(plain.tree));
}

INSTANTIATE_TEST_SUITE_P(AllFormulations, RetryConvergenceTest,
                         ::testing::Values(Formulation::Sync,
                                           Formulation::Partitioned,
                                           Formulation::Hybrid),
                         [](const ::testing::TestParamInfo<Formulation>& i) {
                           return std::string(to_string(i.param));
                         });

// Exhausted retries merge into the existing fail-stop recovery: the
// escalated rank dies, the run absorbs it, and the tree still matches.
TEST(RetryEscalation, ExhaustedRetriesRecoverLikeAFailStop) {
  const data::Dataset ds = workload();
  const ParResult serial = build_serial(ds, ParOptions{});
  mpsim::FaultPlan plan;
  plan.transient_timeout(/*rank=*/1, /*level=*/0,
                         /*count=*/mpsim::Machine::kMaxRetryAttempts + 3);
  ParOptions opt;
  opt.num_procs = 4;
  opt.fault = &plan;
  for (const Formulation f : {Formulation::Sync, Formulation::Partitioned,
                              Formulation::Hybrid}) {
    SCOPED_TRACE(to_string(f));
    const ParResult res = build(f, ds, opt);
    EXPECT_TRUE(res.tree.same_as(serial.tree));
    EXPECT_EQ(res.recovery.escalations, 1);
    EXPECT_EQ(res.recovery.failures, 1);
    EXPECT_EQ(res.recovery.retries,
              static_cast<std::uint64_t>(mpsim::Machine::kMaxRetryAttempts));
  }
}

// The hybrid's rejoin ships rows over the union of a busy and an idle
// partition in one transfers collective, so a transient fault on a link
// between the two fires there. On this workload the first rejoin, at
// level 3, ships from busy ranks {4, 5} to idle ranks {2, 3}.
data::Dataset rejoin_workload() {
  return data::discretize_uniform(
      data::quest_generate(4000, {.function = 2, .seed = 1}),
      data::quest_paper_bins());
}

ParOptions rejoin_options(const mpsim::FaultPlan& plan) {
  ParOptions opt;
  opt.num_procs = 16;
  opt.split_ratio = 0.005;
  opt.fault = &plan;
  return opt;
}

ParResult build_rejoin(const data::Dataset& ds, const mpsim::FaultPlan& plan,
                       obs::Observability* obs = nullptr,
                       const std::string& ckpt_dir = "") {
  ParOptions opt = rejoin_options(plan);
  opt.obs = obs;
  opt.ckpt_dir = ckpt_dir;
  return build(Formulation::Hybrid, ds, opt);
}

std::int64_t live_records(const ParResult& res) {
  std::int64_t live = 0;
  for (const mpsim::MemStats& m : res.mem) {
    live += m.live_for(mpsim::MemTag::Records);
  }
  return live;
}

TEST(RejoinFaults, TransientInTheRejoinRetriesAndGrowsTheSerialTree) {
  const data::Dataset ds = rejoin_workload();
  const std::string serial =
      dtree::model_digest(build_serial(ds, ParOptions{}).tree);
  mpsim::FaultPlan plan;
  plan.corrupt_link(/*a=*/4, /*b=*/2, /*level=*/3, /*count=*/1);
  obs::Observability obs;
  const ParResult res = build_rejoin(ds, plan, &obs);

  EXPECT_EQ(res.recovery.retries, 1u);
  EXPECT_EQ(res.recovery.escalations, 0);
  EXPECT_EQ(res.recovery.failures, 0);
  // The retry lands on the rejoin's entry: transfers over {2, 3, 4, 5}.
  int retried = 0;
  for (const mpsim::CollectiveEntry& e : obs.comm_ledger().entries()) {
    if (e.retries == 0) continue;
    ++retried;
    EXPECT_EQ(e.kind, mpsim::CollectiveKind::Transfers);
    EXPECT_EQ(e.group_base, 2);
    EXPECT_EQ(e.group_size, 4);
    EXPECT_EQ(e.retries, 1u);
  }
  EXPECT_EQ(retried, 1);
  EXPECT_GT(res.rejoins, 0);
  EXPECT_EQ(dtree::model_digest(res.tree), serial);
  EXPECT_EQ(live_records(res), 0);
}

TEST(RejoinFaults, ExhaustedBudgetInTheRejoinIsRecovered) {
  const data::Dataset ds = rejoin_workload();
  const std::string serial =
      dtree::model_digest(build_serial(ds, ParOptions{}).tree);
  const mpsim::Time t_timeout = mpsim::CostModel::sp2().t_timeout;
  {
    // Level 3: busy rank 4 dies in the shipment. No row moved, and its
    // partition absorbs the death at its next checkpoint.
    SCOPED_TRACE("busy rank dies");
    mpsim::FaultPlan plan;
    plan.corrupt_link(4, 2, 3, 100);
    obs::Observability obs;
    ParOptions opt = rejoin_options(plan);
    opt.obs = &obs;
    opt.trace = true;
    ParResult res;
    ASSERT_NO_THROW(res = build(Formulation::Hybrid, ds, opt));
    EXPECT_EQ(res.recovery.escalations, 1);
    EXPECT_EQ(res.recovery.failures, 1);
    EXPECT_EQ(dtree::model_digest(res.tree), serial);
    EXPECT_EQ(live_records(res), 0);
    // The failed transfers call books its own retries: no later
    // collective absorbs them.
    const auto attempts =
        static_cast<std::uint64_t>(mpsim::Machine::kMaxRetryAttempts);
    EXPECT_EQ(res.recovery.retries, attempts);
    int retried = 0;
    for (const mpsim::CollectiveEntry& e : obs.comm_ledger().entries()) {
      if (e.retries == 0) continue;
      ++retried;
      EXPECT_EQ(e.kind, mpsim::CollectiveKind::Transfers);
      EXPECT_EQ(e.group_base, 2);
      EXPECT_EQ(e.group_size, 4);
      EXPECT_EQ(e.retries, attempts);
      EXPECT_EQ(e.retry_us, res.recovery.retry_us);
    }
    EXPECT_EQ(retried, 1);
    // The retries detected rank 4, so the checkpoint barrier raises its
    // failure without a second timeout.
    int fails = 0;
    for (const mpsim::TraceEvent& ev : res.trace) {
      if (ev.kind != mpsim::EventKind::RankFail) continue;
      EXPECT_EQ(ev.rank, 4);
      EXPECT_EQ(ev.detail.find("timed out in checkpoint"), std::string::npos)
          << ev.detail;
      ++fails;
    }
    EXPECT_EQ(fails, 1);
    EXPECT_EQ(res.recovery.detect_us, t_timeout);
  }
  {
    // Level 4: rank 4 is idle when a rejoin exhausts its budget. It held
    // no rows and leaves its idle group.
    SCOPED_TRACE("idle rank dies");
    mpsim::FaultPlan plan;
    plan.corrupt_link(4, 2, 4, 100);
    ParResult res;
    ASSERT_NO_THROW(res = build_rejoin(ds, plan));
    EXPECT_EQ(res.recovery.escalations, 1);
    EXPECT_EQ(res.recovery.failures, 1);
    EXPECT_EQ(res.recovery.detect_us, t_timeout);
    EXPECT_EQ(res.rejoins, 1);
    EXPECT_EQ(dtree::model_digest(res.tree), serial);
    EXPECT_EQ(live_records(res), 0);
  }
}

TEST(RejoinFaults, DurableEpochSkipsARankThatDiedInARejoin) {
  // With durable epochs on, rank 4 is busy when a rejoin exhausts its
  // budget at level 7, and an epoch is saved before its partition's next
  // checkpoint detects the death. The epoch must not charge the dead rank.
  const data::Dataset ds = rejoin_workload();
  const std::string serial =
      dtree::model_digest(build_serial(ds, ParOptions{}).tree);
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "rejoin_durable";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  mpsim::FaultPlan plan;
  plan.corrupt_link(4, 14, 7, 100);
  ParResult res;
  ASSERT_NO_THROW(res = build_rejoin(ds, plan, nullptr, dir.string()));
  EXPECT_EQ(res.recovery.escalations, 1);
  EXPECT_EQ(res.recovery.failures, 1);
  EXPECT_GT(res.recovery.durable_checkpoints, 0);
  EXPECT_EQ(dtree::model_digest(res.tree), serial);
  EXPECT_EQ(live_records(res), 0);
  std::filesystem::remove_all(dir);
}

TEST(RejoinFaults, EveryExhaustedBudgetOnRankFourIsRecovered) {
  // Every link that touches rank 4, and rank 4's own timeouts, at levels
  // 0 to 11, each failing more often than the retry budget allows (372
  // plans).
  const data::Dataset ds = rejoin_workload();
  const std::string serial =
      dtree::model_digest(build_serial(ds, ParOptions{}).tree);
  for (int level = 0; level < 12; ++level) {
    std::vector<mpsim::FaultPlan> plans(1);
    plans[0].transient_timeout(4, level, 100);
    for (mpsim::Rank r = 0; r < 16; ++r) {
      if (r == 4) continue;
      plans.emplace_back().corrupt_link(4, r, level, 100);
      plans.emplace_back().corrupt_link(r, 4, level, 100);
    }
    for (const mpsim::FaultPlan& plan : plans) {
      SCOPED_TRACE(plan.describe());
      obs::Observability obs;
      ParResult res;
      ASSERT_NO_THROW(res = build_rejoin(ds, plan, &obs));
      EXPECT_EQ(dtree::model_digest(res.tree), serial);
      // Every retry lands on exactly one ledger entry. The windows are
      // whole multiples of t_timeout, so the sums are exact.
      std::uint64_t retries = 0;
      mpsim::Time retry_us = 0.0;
      for (const mpsim::CollectiveEntry& e : obs.comm_ledger().entries()) {
        retries += e.retries;
        retry_us += e.retry_us;
      }
      EXPECT_EQ(retries, res.recovery.retries);
      EXPECT_EQ(retry_us, res.recovery.retry_us);
    }
  }
}

}  // namespace
}  // namespace pdt::core
