// Machine-level fault semantics: charges on a dead rank raise RankFailure
// without advancing its clock, collectives detect a dead member by waiting
// out the cost-model timeout instead of hanging, absorbed deaths are
// silently excluded, a rank an exhausted retry budget killed is raised
// without a second timeout, and stragglers scale every charge kind.
#include "mpsim/machine.hpp"

#include <gtest/gtest.h>

namespace pdt::mpsim {
namespace {

const std::vector<Rank> kAll{0, 1, 2, 3};

TEST(MachineFault, ChargeOnDeadRankThrowsWithoutAdvancingClock) {
  Machine m(4);
  FaultPlan plan;
  plan.fail_stop(2, 0);
  m.arm_faults(plan);
  m.fault()->enter_level(0, kAll);
  ASSERT_FALSE(m.fault()->alive(2));

  const Time before = m.clock(2);
  EXPECT_THROW(m.charge_compute(2, 10.0), RankFailure);
  EXPECT_THROW(m.charge_compute_time(2, 10.0), RankFailure);
  EXPECT_THROW(m.charge_comm(2, 5.0, 1.0, 1.0), RankFailure);
  EXPECT_THROW(m.charge_io(2, 5.0), RankFailure);
  EXPECT_DOUBLE_EQ(m.clock(2), before);
  EXPECT_DOUBLE_EQ(m.stats(2).compute_time, 0.0);

  try {
    m.charge_compute(2, 1.0);
    FAIL() << "expected RankFailure";
  } catch (const RankFailure& rf) {
    EXPECT_EQ(rf.rank, 2);
    EXPECT_EQ(rf.level, 0);
    EXPECT_FALSE(rf.detected);
  }
}

TEST(MachineFault, BarrierDetectsDeadMemberAfterTimeout) {
  Machine m(4);
  m.trace().enable(true);
  FaultPlan plan;
  plan.fail_stop(1, 0);
  m.arm_faults(plan);
  m.fault()->enter_level(0, kAll);
  m.charge_compute_time(0, 100.0);  // survivor horizon

  try {
    m.barrier_over(kAll, "all-reduce");
    FAIL() << "expected RankFailure";
  } catch (const RankFailure& rf) {
    EXPECT_EQ(rf.rank, 1);
    EXPECT_TRUE(rf.detected);
  }
  // Survivors waited out the heartbeat window past the horizon, as idle.
  const Time expected = 100.0 + m.cost().t_timeout;
  for (const Rank r : {0, 2, 3}) {
    EXPECT_DOUBLE_EQ(m.clock(r), expected) << "rank " << r;
  }
  EXPECT_DOUBLE_EQ(m.stats(2).idle_time, expected);
  EXPECT_DOUBLE_EQ(m.clock(1), 0.0);  // the dead rank's clock froze
  EXPECT_EQ(m.trace().count(EventKind::RankFail), 1u);
}

TEST(MachineFault, RecoveredDeathIsSilentlyExcluded) {
  Machine m(4);
  FaultPlan plan;
  plan.fail_stop(1, 0);
  m.arm_faults(plan);
  m.fault()->enter_level(0, kAll);
  m.fault()->mark_recovered(1);

  m.charge_compute_time(0, 50.0);
  EXPECT_NO_THROW(m.barrier_over(kAll, "barrier"));
  // A stale group listing the absorbed rank just proceeds without it: the
  // survivors synchronize at the plain horizon, no timeout is charged.
  for (const Rank r : {0, 2, 3}) {
    EXPECT_DOUBLE_EQ(m.clock(r), 50.0) << "rank " << r;
  }
  EXPECT_DOUBLE_EQ(m.clock(1), 0.0);
}

TEST(MachineFault, EscalatedRankRaisesAtTheNextBarrierWithoutASecondTimeout) {
  Machine m(4);
  m.trace().enable(true);
  FaultPlan plan;
  plan.transient_timeout(3, 0, Machine::kMaxRetryAttempts + 1);
  m.arm_faults(plan);
  m.fault()->enter_level(0, kAll);
  EXPECT_THROW(m.admit_collective(kAll, "record-shuffle"), RankFailure);
  ASSERT_TRUE(m.fault()->escalated(3));
  const Time after_retries = m.clock(0);

  // The retries already waited out rank 3's detection: the barrier
  // raises its failure at once, with no timeout and no second RankFail.
  try {
    m.barrier_over(kAll, "checkpoint");
    FAIL() << "expected RankFailure";
  } catch (const RankFailure& rf) {
    EXPECT_EQ(rf.rank, 3);
    EXPECT_EQ(rf.level, 0);
    EXPECT_TRUE(rf.detected);
  }
  for (const Rank r : {0, 1, 2}) {
    EXPECT_DOUBLE_EQ(m.clock(r), after_retries) << "rank " << r;
  }
  EXPECT_EQ(m.trace().count(EventKind::RankFail), 1u);

  // Once the recovery layer absorbed it, the rank is simply excluded.
  m.fault()->mark_recovered(3);
  EXPECT_NO_THROW(m.barrier_over(kAll, "checkpoint"));
}

TEST(MachineFault, BarrierRaisesTheFirstUnrecoveredDeadMember) {
  Machine m(4);
  FaultPlan plan;
  plan.fail_stop(1, 0).fail_stop(3, 0);
  m.arm_faults(plan);
  m.fault()->enter_level(0, kAll);
  m.fault()->mark_recovered(1);
  m.charge_compute_time(2, 40.0);

  try {
    m.barrier_over(kAll, "all-reduce");
    FAIL() << "expected RankFailure";
  } catch (const RankFailure& rf) {
    EXPECT_EQ(rf.rank, 3);
  }
  // Only the live members waited out the window; both dead clocks froze.
  const Time expected = 40.0 + m.cost().t_timeout;
  EXPECT_DOUBLE_EQ(m.clock(0), expected);
  EXPECT_DOUBLE_EQ(m.clock(2), expected);
  EXPECT_DOUBLE_EQ(m.clock(1), 0.0);
  EXPECT_DOUBLE_EQ(m.clock(3), 0.0);
}

TEST(MachineFault, StragglerScalesEveryChargeKind) {
  Machine m(2);
  FaultPlan plan;
  plan.straggler(1, 0, 0, 5.0);
  m.arm_faults(plan);
  m.fault()->enter_level(0, {0, 1});

  m.charge_compute_time(1, 10.0);
  EXPECT_DOUBLE_EQ(m.clock(1), 50.0);
  m.charge_comm(1, 10.0, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(m.clock(1), 100.0);
  m.charge_io(1, 10.0);
  EXPECT_DOUBLE_EQ(m.clock(1), 150.0);
  // charge_compute delegates to charge_compute_time, so the factor is
  // applied exactly once.
  m.charge_compute(1, 10.0);
  EXPECT_DOUBLE_EQ(m.clock(1), 150.0 + 10.0 * m.cost().t_c * 5.0);

  m.charge_compute_time(0, 10.0);  // the healthy rank pays face value
  EXPECT_DOUBLE_EQ(m.clock(0), 10.0);
}

TEST(MachineFault, EmptyArmedPlanChargesAtFaultFreeRates) {
  Machine plain(2);
  Machine armed(2);
  armed.arm_faults(FaultPlan{});
  for (Machine* m : {&plain, &armed}) {
    m->charge_compute_time(0, 12.5);
    m->charge_comm(1, 3.0, 2.0, 2.0);
    m->barrier_over({0, 1});
  }
  EXPECT_DOUBLE_EQ(armed.clock(0), plain.clock(0));
  EXPECT_DOUBLE_EQ(armed.clock(1), plain.clock(1));
}

}  // namespace
}  // namespace pdt::mpsim
