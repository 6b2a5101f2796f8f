// FaultPlan / FaultInjector semantics: plans are declarative and seeded
// plans reproducible; deaths fire exactly once at their scheduled
// (rank, level) and only for group members; straggler and link factors
// are pure functions of (plan, current level); transient budgets are
// consumed only by live members at their level; and only kill() marks a
// rank escalated.
#include "mpsim/fault.hpp"

#include <gtest/gtest.h>

namespace pdt::mpsim {
namespace {

TEST(FaultPlan, BuilderAccumulatesEntries) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.fail_stop(2, 1).straggler(1, 0, 3, 4.0).delay_link(0, 3, 2.5);
  EXPECT_FALSE(plan.empty());
  ASSERT_EQ(plan.fail_stops().size(), 1u);
  EXPECT_EQ(plan.fail_stops()[0].rank, 2);
  EXPECT_EQ(plan.fail_stops()[0].level, 1);
  ASSERT_EQ(plan.stragglers().size(), 1u);
  EXPECT_EQ(plan.stragglers()[0].rank, 1);
  EXPECT_EQ(plan.stragglers()[0].from_level, 0);
  EXPECT_EQ(plan.stragglers()[0].to_level, 3);
  EXPECT_DOUBLE_EQ(plan.stragglers()[0].factor, 4.0);
  ASSERT_EQ(plan.link_delays().size(), 1u);
  EXPECT_EQ(plan.link_delays()[0].a, 0);
  EXPECT_EQ(plan.link_delays()[0].b, 3);
  const std::string d = plan.describe();
  EXPECT_NE(d.find("rank 2"), std::string::npos);
  EXPECT_NE(d.find("level 1"), std::string::npos);
}

TEST(FaultPlan, BuildersRejectOutOfRangeValues) {
  // A silently-accepted bad plan would fire nothing and make a fault
  // test vacuously pass, so every builder validates eagerly.
  FaultPlan plan;
  EXPECT_THROW(plan.fail_stop(-1, 0), std::invalid_argument);
  EXPECT_THROW(plan.fail_stop(0, -1), std::invalid_argument);
  EXPECT_THROW(plan.straggler(-1, 0, 1, 2.0), std::invalid_argument);
  EXPECT_THROW(plan.straggler(0, -1, 1, 2.0), std::invalid_argument);
  EXPECT_THROW(plan.straggler(0, 3, 1, 2.0), std::invalid_argument);
  EXPECT_THROW(plan.straggler(0, 0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(plan.straggler(0, 0, 1, -2.0), std::invalid_argument);
  EXPECT_THROW(plan.delay_link(-1, 2, 2.0), std::invalid_argument);
  EXPECT_THROW(plan.delay_link(2, 2, 2.0), std::invalid_argument);
  EXPECT_THROW(plan.delay_link(0, 2, 0.0), std::invalid_argument);
  EXPECT_THROW(plan.corrupt_link(-1, 2, 0, 1), std::invalid_argument);
  EXPECT_THROW(plan.corrupt_link(1, 1, 0, 1), std::invalid_argument);
  EXPECT_THROW(plan.corrupt_link(0, 2, -1, 1), std::invalid_argument);
  EXPECT_THROW(plan.corrupt_link(0, 2, 0, 0), std::invalid_argument);
  EXPECT_THROW(plan.transient_timeout(-1, 0, 1), std::invalid_argument);
  EXPECT_THROW(plan.transient_timeout(0, -1, 1), std::invalid_argument);
  EXPECT_THROW(plan.transient_timeout(0, 0, 0), std::invalid_argument);
  // A rejected call leaves the plan untouched.
  EXPECT_TRUE(plan.empty());
  // The message names the module and the offending field.
  try {
    plan.transient_timeout(0, 0, -5);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("FaultPlan:"), 0u) << what;
    EXPECT_NE(what.find("count"), std::string::npos) << what;
  }
}

TEST(FaultPlan, DescribeCoversEveryFaultKind) {
  EXPECT_EQ(FaultPlan{}.describe(), "no faults");
  FaultPlan plan;
  plan.fail_stop(2, 1)
      .straggler(1, 0, 3, 4.0)
      .delay_link(0, 3, 2.5)
      .corrupt_link(0, 2, 1, 3)
      .transient_timeout(3, 2, 2);
  const std::string d = plan.describe();
  EXPECT_NE(d.find("fail-stop rank 2 @ level 1"), std::string::npos) << d;
  EXPECT_NE(d.find("straggler rank 1"), std::string::npos) << d;
  EXPECT_NE(d.find("link 0<->3"), std::string::npos) << d;
  EXPECT_NE(d.find("corrupt link 0<->2 @ level 1 x3"), std::string::npos)
      << d;
  EXPECT_NE(d.find("transient timeout rank 3 @ level 2 x2"),
            std::string::npos)
      << d;
}

TEST(FaultPlan, RandomIsDeterministicAndInRange) {
  const FaultPlan a = FaultPlan::random(42, 8, 6);
  const FaultPlan b = FaultPlan::random(42, 8, 6);
  EXPECT_EQ(a.describe(), b.describe());
  ASSERT_EQ(a.fail_stops().size(), b.fail_stops().size());
  for (std::size_t i = 0; i < a.fail_stops().size(); ++i) {
    EXPECT_EQ(a.fail_stops()[i].rank, b.fail_stops()[i].rank);
    EXPECT_EQ(a.fail_stops()[i].level, b.fail_stops()[i].level);
  }
  ASSERT_FALSE(a.fail_stops().empty());
  for (const FailStop& fs : a.fail_stops()) {
    EXPECT_GE(fs.rank, 0);
    EXPECT_LT(fs.rank, 8);
    EXPECT_GE(fs.level, 0);
    EXPECT_LE(fs.level, 6);
  }
  for (const Straggler& s : a.stragglers()) {
    EXPECT_GE(s.rank, 0);
    EXPECT_LT(s.rank, 8);
    EXPECT_LE(s.from_level, s.to_level);
    EXPECT_GT(s.factor, 1.0);
  }
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  // Over a handful of seeds at least one must differ from seed 42's plan
  // (identical draws for all five would mean the stream ignores the seed).
  const std::string base = FaultPlan::random(42, 8, 6).describe();
  bool any_different = false;
  for (const std::uint64_t seed : {43ull, 44ull, 45ull, 46ull, 47ull}) {
    if (FaultPlan::random(seed, 8, 6).describe() != base) {
      any_different = true;
      break;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(FaultInjector, DeathFiresOnceAtScheduledLevel) {
  FaultPlan plan;
  plan.fail_stop(2, 1);
  FaultInjector inj(plan, 4);
  const std::vector<Rank> all{0, 1, 2, 3};
  EXPECT_EQ(inj.num_alive(), 4);
  EXPECT_EQ(inj.deaths_fired(), 0);

  inj.enter_level(0, all);  // wrong level: nothing fires
  EXPECT_TRUE(inj.alive(2));

  inj.enter_level(1, all);
  EXPECT_FALSE(inj.alive(2));
  EXPECT_EQ(inj.num_alive(), 3);
  EXPECT_EQ(inj.deaths_fired(), 1);
  EXPECT_EQ(inj.alive_ranks(), (std::vector<Rank>{0, 1, 3}));

  inj.enter_level(1, all);  // already fired: no double-death
  EXPECT_EQ(inj.deaths_fired(), 1);

  EXPECT_FALSE(inj.recovered(2));
  inj.mark_recovered(2);
  EXPECT_TRUE(inj.recovered(2));
}

TEST(FaultInjector, DeathRequiresGroupMembership) {
  FaultPlan plan;
  plan.fail_stop(2, 1);
  FaultInjector inj(plan, 4);
  inj.enter_level(1, {0, 1});  // rank 2 is in another partition
  EXPECT_TRUE(inj.alive(2));
  inj.enter_level(1, {2, 3});
  EXPECT_FALSE(inj.alive(2));
}

TEST(FaultInjector, StragglerWindowIsLevelScoped) {
  FaultPlan plan;
  plan.straggler(1, 2, 4, 3.0);
  FaultInjector inj(plan, 4);
  const std::vector<Rank> all{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(inj.time_factor(1), 1.0);  // before any enter_level
  inj.enter_level(2, all);
  EXPECT_DOUBLE_EQ(inj.time_factor(1), 3.0);
  EXPECT_DOUBLE_EQ(inj.time_factor(0), 1.0);
  inj.enter_level(4, all);
  EXPECT_DOUBLE_EQ(inj.time_factor(1), 3.0);  // inclusive upper bound
  inj.enter_level(5, all);
  EXPECT_DOUBLE_EQ(inj.time_factor(1), 1.0);  // window closed
}

TEST(FaultInjector, LinkFactorIsSymmetric) {
  FaultPlan plan;
  plan.delay_link(0, 3, 2.0);
  FaultInjector inj(plan, 4);
  EXPECT_DOUBLE_EQ(inj.link_factor(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(inj.link_factor(3, 0), 2.0);
  EXPECT_DOUBLE_EQ(inj.link_factor(0, 1), 1.0);
}

TEST(FaultInjector, OnlyKillingALiveRankEscalatesIt) {
  FaultPlan plan;
  plan.fail_stop(2, 0);
  FaultInjector inj(plan, 4);
  EXPECT_FALSE(inj.escalated(1));

  inj.kill(1);
  EXPECT_FALSE(inj.alive(1));
  EXPECT_TRUE(inj.escalated(1));
  EXPECT_FALSE(inj.recovered(1));
  EXPECT_EQ(inj.alive_ranks(), (std::vector<Rank>{0, 2, 3}));

  // A scheduled death is detected by a timeout, not by retries: killing
  // the rank afterwards does not mark it escalated.
  inj.enter_level(0, {0, 1, 2, 3});
  EXPECT_FALSE(inj.alive(2));
  EXPECT_FALSE(inj.escalated(2));
  inj.kill(2);
  EXPECT_FALSE(inj.escalated(2));
  EXPECT_EQ(inj.alive_ranks(), (std::vector<Rank>{0, 3}));
}

TEST(FaultInjector, TransientWithinBudgetFailsThatManyAttemptsThenHeals) {
  FaultPlan plan;
  plan.transient_timeout(/*rank=*/3, /*level=*/1, /*count=*/3);
  FaultInjector inj(plan, 4);
  const std::vector<Rank> all{0, 1, 2, 3};
  inj.enter_level(1, all);

  const TransientVerdict v = inj.take_transient(all, /*max_attempts=*/4);
  EXPECT_EQ(v.failures, 3);
  EXPECT_EQ(v.faulty, 3);
  EXPECT_FALSE(v.exhausted);
  const TransientVerdict healed = inj.take_transient(all, 4);
  EXPECT_EQ(healed.failures, 0);
  EXPECT_FALSE(healed.exhausted);
  EXPECT_TRUE(inj.alive(3));  // the injector never kills on its own
}

TEST(FaultInjector, TransientBeyondBudgetIsExhaustedAndDrained) {
  FaultPlan plan;
  plan.corrupt_link(/*a=*/1, /*b=*/2, /*level=*/0, /*count=*/7);
  FaultInjector inj(plan, 4);
  const std::vector<Rank> all{0, 1, 2, 3};
  inj.enter_level(0, all);

  const TransientVerdict v = inj.take_transient(all, /*max_attempts=*/4);
  EXPECT_EQ(v.failures, 4);
  EXPECT_EQ(v.faulty, 1);  // rank a owns the flaky NIC
  EXPECT_TRUE(v.exhausted);
  // The rest of the budget is dropped with the escalated rank.
  EXPECT_EQ(inj.take_transient(all, 4).failures, 0);
}

TEST(FaultInjector, TransientNeedsLiveMembersAtItsLevel) {
  FaultPlan plan;
  plan.corrupt_link(0, 1, /*level=*/2, /*count=*/1);
  plan.transient_timeout(/*rank=*/3, /*level=*/2, /*count=*/1);
  FaultInjector inj(plan, 4);

  inj.enter_level(1, {0, 1, 2, 3});  // wrong level: both stay armed
  EXPECT_EQ(inj.take_transient({0, 1, 2, 3}, 4).failures, 0);

  inj.enter_level(2, {0, 1, 2, 3});
  // A collective without both link endpoints, or without the timed-out
  // rank, trips nothing.
  EXPECT_EQ(inj.take_transient({0, 2}, 4).failures, 0);
  EXPECT_EQ(inj.take_transient({1, 2}, 4).failures, 0);

  // A dead endpoint never fails a checksum; the timeout still fires.
  inj.kill(1);
  const TransientVerdict v = inj.take_transient({0, 1, 2, 3}, 4);
  EXPECT_EQ(v.failures, 1);
  EXPECT_EQ(v.faulty, 3);
  EXPECT_EQ(inj.take_transient({0, 1, 2, 3}, 4).failures, 0);
}

}  // namespace
}  // namespace pdt::mpsim
