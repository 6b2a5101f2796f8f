#include "mpsim/machine.hpp"

#include <gtest/gtest.h>

namespace pdt::mpsim {
namespace {

TEST(Machine, StartsAtZero) {
  Machine m(4);
  EXPECT_EQ(m.size(), 4);
  for (int r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(m.clock(r), 0.0);
  }
  EXPECT_DOUBLE_EQ(m.max_clock(), 0.0);
  EXPECT_DOUBLE_EQ(m.min_clock(), 0.0);
}

TEST(Machine, ComputeChargesUnitsTimesTc) {
  CostModel cm;
  cm.t_c = 2.0;
  Machine m(2, cm);
  m.charge_compute(0, 10.0);
  EXPECT_DOUBLE_EQ(m.clock(0), 20.0);
  EXPECT_DOUBLE_EQ(m.clock(1), 0.0);
  EXPECT_DOUBLE_EQ(m.stats(0).compute_time, 20.0);
  EXPECT_DOUBLE_EQ(m.max_clock(), 20.0);
  EXPECT_DOUBLE_EQ(m.min_clock(), 0.0);
}

TEST(Machine, CommChargeTracksTrafficAndMessages) {
  Machine m(2);
  m.charge_comm(1, 5.0, 100.0, 40.0, 3);
  EXPECT_DOUBLE_EQ(m.clock(1), 5.0);
  EXPECT_DOUBLE_EQ(m.stats(1).comm_time, 5.0);
  EXPECT_EQ(m.stats(1).words_sent, 100u);
  EXPECT_EQ(m.stats(1).words_received, 40u);
  EXPECT_EQ(m.stats(1).messages_sent, 3u);
}

TEST(Machine, WaitUntilAccruesIdleOnlyForward) {
  Machine m(1);
  m.wait_until(0, 7.5);
  EXPECT_DOUBLE_EQ(m.clock(0), 7.5);
  EXPECT_DOUBLE_EQ(m.stats(0).idle_time, 7.5);
  m.wait_until(0, 3.0);  // already past; no-op
  EXPECT_DOUBLE_EQ(m.clock(0), 7.5);
  EXPECT_DOUBLE_EQ(m.stats(0).idle_time, 7.5);
}

TEST(Machine, ClockIsMonotone) {
  Machine m(1);
  double last = 0.0;
  for (int i = 0; i < 100; ++i) {
    switch (i % 3) {
      case 0: m.charge_compute(0, static_cast<double>(i)); break;
      case 1: m.charge_comm(0, 1.0, 1.0, 1.0); break;
      default: m.wait_until(0, m.clock(0) + 0.5); break;
    }
    EXPECT_GE(m.clock(0), last);
    last = m.clock(0);
  }
}

TEST(Machine, TotalStatsSumsRanks) {
  Machine m(3);
  m.charge_compute(0, 1.0);
  m.charge_compute(1, 2.0);
  m.charge_comm(2, 4.0, 10.0, 20.0, 2);
  const RankStats t = m.total_stats();
  EXPECT_DOUBLE_EQ(t.compute_time, (1.0 + 2.0) * m.cost().t_c);
  EXPECT_DOUBLE_EQ(t.comm_time, 4.0);
  EXPECT_EQ(t.words_sent, 10u);
  EXPECT_EQ(t.messages_sent, 2u);
}

TEST(Machine, ComputeTimeAndIoLandInTheirOwnBuckets) {
  Machine m(2);
  m.charge_compute_time(0, 4.25);
  m.charge_io(0, 1.5);
  EXPECT_DOUBLE_EQ(m.clock(0), 5.75);
  EXPECT_DOUBLE_EQ(m.stats(0).compute_time, 4.25);
  EXPECT_DOUBLE_EQ(m.stats(0).io_time, 1.5);
  EXPECT_DOUBLE_EQ(m.stats(0).comm_time, 0.0);
  EXPECT_DOUBLE_EQ(m.stats(0).idle_time, 0.0);
  EXPECT_DOUBLE_EQ(m.stats(0).busy_time(), 5.75);
  // Neither kind counts as traffic.
  EXPECT_EQ(m.stats(0).words_sent, 0u);
  EXPECT_EQ(m.stats(0).messages_sent, 0u);
  EXPECT_DOUBLE_EQ(m.clock(1), 0.0);
}

TEST(Machine, WaitForAdvancesToThePeerClockOnlyForward) {
  Machine m(3);
  m.charge_compute_time(1, 9.0);
  m.wait_for(0, 1);
  EXPECT_DOUBLE_EQ(m.clock(0), 9.0);
  EXPECT_DOUBLE_EQ(m.stats(0).idle_time, 9.0);
  // A peer behind the waiter moves nothing.
  m.wait_for(0, 2);
  EXPECT_DOUBLE_EQ(m.clock(0), 9.0);
  EXPECT_DOUBLE_EQ(m.stats(0).idle_time, 9.0);
  EXPECT_DOUBLE_EQ(m.clock(2), 0.0);
  EXPECT_DOUBLE_EQ(m.clock(1), 9.0);
  EXPECT_DOUBLE_EQ(m.stats(1).idle_time, 0.0);
}

TEST(Machine, BarrierOverAlignsOnlyItsMembers) {
  Machine m(4);
  m.charge_compute_time(0, 3.0);
  m.charge_compute_time(2, 8.0);
  m.charge_compute_time(3, 20.0);
  m.barrier_over({0, 1, 2});
  for (const Rank r : {0, 1, 2}) EXPECT_DOUBLE_EQ(m.clock(r), 8.0) << r;
  EXPECT_DOUBLE_EQ(m.stats(0).idle_time, 5.0);
  EXPECT_DOUBLE_EQ(m.stats(1).idle_time, 8.0);
  EXPECT_DOUBLE_EQ(m.stats(2).idle_time, 0.0);
  // The non-member is neither advanced nor charged idle.
  EXPECT_DOUBLE_EQ(m.clock(3), 20.0);
  EXPECT_DOUBLE_EQ(m.stats(3).idle_time, 0.0);
  // An empty rank list is a no-op.
  m.barrier_over({});
  EXPECT_DOUBLE_EQ(m.clock(0), 8.0);
}

TEST(Machine, ChargeTimeoutWaitsOutOneWindowPastTheSurvivorHorizon) {
  Machine m(4);
  m.charge_compute_time(0, 10.0);
  m.charge_compute_time(1, 30.0);
  m.charge_compute_time(2, 500.0);  // the dead rank's clock is not a horizon
  const Time deadline = m.charge_timeout({0, 1, 3}, /*dead=*/2);
  EXPECT_DOUBLE_EQ(deadline, 30.0 + m.cost().t_timeout);
  for (const Rank r : {0, 1, 3}) EXPECT_DOUBLE_EQ(m.clock(r), deadline) << r;
  EXPECT_DOUBLE_EQ(m.stats(3).idle_time, deadline);
  EXPECT_DOUBLE_EQ(m.stats(1).idle_time, m.cost().t_timeout);
  EXPECT_DOUBLE_EQ(m.clock(2), 500.0);
  EXPECT_DOUBLE_EQ(m.stats(2).idle_time, 0.0);
}

TEST(Machine, SetRankLevelNeverTouchesClocks) {
  Machine m(2);
  m.charge_compute_time(1, 2.0);
  m.set_rank_level(0, 5);
  m.set_rank_level(1, 7);
  EXPECT_DOUBLE_EQ(m.clock(0), 0.0);
  EXPECT_DOUBLE_EQ(m.clock(1), 2.0);
  EXPECT_DOUBLE_EQ(m.total_stats().idle_time, 0.0);
}

TEST(Machine, DisarmedMachineHasNoFaultsAndUnitLinks) {
  Machine m(4);
  EXPECT_EQ(m.fault(), nullptr);
  EXPECT_DOUBLE_EQ(m.link_factor(0, 3), 1.0);
  EXPECT_EQ(m.retries(), 0u);
  EXPECT_DOUBLE_EQ(m.retry_us(), 0.0);
  EXPECT_EQ(m.escalations(), 0);

  FaultPlan plan;
  plan.delay_link(0, 3, 2.5);
  m.arm_faults(plan);
  ASSERT_NE(m.fault(), nullptr);
  EXPECT_DOUBLE_EQ(m.link_factor(3, 0), 2.5);
  EXPECT_DOUBLE_EQ(m.link_factor(0, 1), 1.0);
}

TEST(Machine, PerTagPeaksAreKeptApartFromTheTotal) {
  Machine m(2);
  m.alloc_bytes(1, MemTag::Histogram, 200);
  m.alloc_bytes(1, MemTag::Scratch, 250);
  m.free_bytes(1, MemTag::Scratch, 250);
  m.alloc_bytes(1, MemTag::Records, 100);
  EXPECT_EQ(m.peak_bytes(1), 450);
  EXPECT_EQ(m.live_bytes(1), 300);
  EXPECT_EQ(m.mem(1).peak_for(MemTag::Histogram), 200);
  EXPECT_EQ(m.mem(1).peak_for(MemTag::Scratch), 250);
  EXPECT_EQ(m.mem(1).live_for(MemTag::Scratch), 0);
  EXPECT_EQ(m.mem(1).peak_for(MemTag::Records), 100);
  // Byte accounts never touch the clocks or another rank's account.
  EXPECT_DOUBLE_EQ(m.clock(1), 0.0);
  EXPECT_EQ(m.peak_bytes(0), 0);
}

TEST(Machine, BusyTimeExcludesIdle) {
  RankStats s;
  s.compute_time = 3.0;
  s.comm_time = 2.0;
  s.idle_time = 100.0;
  EXPECT_DOUBLE_EQ(s.busy_time(), 5.0);
}

TEST(Trace, DisabledByDefaultAndCountsKinds) {
  Machine m(2);
  EXPECT_FALSE(m.trace().enabled());
  m.trace().record({0.0, EventKind::Note, 0, 0, 1, 0.0, "dropped"});
  EXPECT_TRUE(m.trace().events().empty());
  m.trace().enable(true);
  m.trace().record({1.0, EventKind::AllReduce, 0, 0, 2, 10.0, "x"});
  m.trace().record({2.0, EventKind::AllReduce, 0, 0, 2, 10.0, "y"});
  m.trace().record({3.0, EventKind::MovingPhase, 0, 0, 2, 5.0, "z"});
  EXPECT_EQ(m.trace().count(EventKind::AllReduce), 2u);
  EXPECT_EQ(m.trace().count(EventKind::MovingPhase), 1u);
  EXPECT_EQ(m.trace().count(EventKind::Rejoin), 0u);
}

TEST(Trace, EventKindNames) {
  EXPECT_STREQ(to_string(EventKind::AllReduce), "all-reduce");
  EXPECT_STREQ(to_string(EventKind::PartitionSplit), "partition-split");
  EXPECT_STREQ(to_string(EventKind::LoadBalance), "load-balance");
}

}  // namespace
}  // namespace pdt::mpsim
