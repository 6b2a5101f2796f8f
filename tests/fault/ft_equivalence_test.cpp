// The fault-tolerance analogue of the central equivalence property: for
// every formulation, any single-rank fail-stop at any early level must be
// absorbed with a recovered tree bit-identical to the fault-free serial
// tree. Plus the determinism guarantee the virtual clock makes possible:
// the same fault seed reproduces the run byte-for-byte (virtual time,
// recovery accounting, trace).
#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "mpsim/fault.hpp"

namespace pdt::core {
namespace {

data::Dataset workload() {
  return data::discretize_uniform(
      data::quest_generate(2000, {.function = 2, .seed = 3}),
      data::quest_paper_bins());
}

struct FtConfig {
  Formulation formulation;
  int procs;
  int level;   // tree level at which the victim dies
  int victim;  // rank that fail-stops
};

std::string ft_name(const ::testing::TestParamInfo<FtConfig>& info) {
  const FtConfig& c = info.param;
  std::string s = to_string(c.formulation);
  s += "_P" + std::to_string(c.procs);
  s += "_L" + std::to_string(c.level);
  s += "_r" + std::to_string(c.victim);
  return s;
}

class FtEquivalenceTest : public ::testing::TestWithParam<FtConfig> {};

TEST_P(FtEquivalenceTest, RecoveredTreeEqualsSerialTree) {
  const FtConfig& c = GetParam();
  const data::Dataset ds = workload();
  ParOptions opt;
  const ParResult serial = build_serial(ds, opt);
  opt.num_procs = c.procs;
  mpsim::FaultPlan plan;
  plan.fail_stop(c.victim, c.level);
  opt.fault = &plan;
  const ParResult res = build(c.formulation, ds, opt);
  EXPECT_TRUE(res.tree.same_as(serial.tree));
  EXPECT_EQ(res.tree.num_nodes(), serial.tree.num_nodes());
  // In the partitioned/hybrid formulations a victim's partition can finish
  // (or go idle) before its scheduled level, in which case the death never
  // fires — still a valid run. The synchronous formulation keeps every
  // rank in the one group for every level, so there the death must fire.
  if (c.formulation == Formulation::Sync) {
    EXPECT_EQ(res.recovery.failures, 1);
  } else {
    EXPECT_LE(res.recovery.failures, 1);
  }
  EXPECT_GT(res.recovery.checkpoints, 0);
}

std::vector<FtConfig> make_ft_configs() {
  std::vector<FtConfig> out;
  for (const Formulation f :
       {Formulation::Sync, Formulation::Partitioned, Formulation::Hybrid}) {
    for (const int p : {4, 8}) {
      for (const int level : {0, 1, 2}) {
        // Victims at the rank-space extremes plus the middle, so deaths
        // hit different partitions once the hybrid starts splitting.
        for (const int victim : {0, p / 2, p - 1}) {
          out.push_back({f, p, level, victim});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(SingleFailStop, FtEquivalenceTest,
                         ::testing::ValuesIn(make_ft_configs()), ft_name);

// Same seed, same run: the virtual clock makes the whole faulty episode —
// completion time, every recovery figure, the full event trace —
// reproducible to the last bit.
class FtDeterminismTest : public ::testing::TestWithParam<Formulation> {};

TEST_P(FtDeterminismTest, SameSeedReproducesRunExactly) {
  const data::Dataset ds = workload();
  const mpsim::FaultPlan plan = mpsim::FaultPlan::random(99, 8, 4);
  ParOptions opt;
  opt.num_procs = 8;
  opt.trace = true;
  opt.fault = &plan;
  const ParResult a = build(GetParam(), ds, opt);
  const ParResult b = build(GetParam(), ds, opt);

  EXPECT_EQ(a.parallel_time, b.parallel_time);  // exact, not approximate
  EXPECT_TRUE(a.tree.same_as(b.tree));
  EXPECT_EQ(a.recovery.checkpoints, b.recovery.checkpoints);
  EXPECT_EQ(a.recovery.failures, b.recovery.failures);
  EXPECT_EQ(a.recovery.checkpoint_bytes, b.recovery.checkpoint_bytes);
  EXPECT_EQ(a.recovery.checkpoint_io_us, b.recovery.checkpoint_io_us);
  EXPECT_EQ(a.recovery.detect_us, b.recovery.detect_us);
  EXPECT_EQ(a.recovery.recovery_us, b.recovery.recovery_us);
  EXPECT_EQ(a.recovery.records_redistributed,
            b.recovery.records_redistributed);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].time, b.trace[i].time) << "event " << i;
    EXPECT_EQ(a.trace[i].kind, b.trace[i].kind) << "event " << i;
    EXPECT_EQ(a.trace[i].rank, b.trace[i].rank) << "event " << i;
    EXPECT_EQ(a.trace[i].words, b.trace[i].words) << "event " << i;
    EXPECT_EQ(a.trace[i].detail, b.trace[i].detail) << "event " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormulations, FtDeterminismTest,
                         ::testing::Values(Formulation::Sync,
                                           Formulation::Partitioned,
                                           Formulation::Hybrid),
                         [](const ::testing::TestParamInfo<Formulation>& i) {
                           return std::string(to_string(i.param));
                         });

// Multiple deaths across the run: every absorbed failure still yields the
// serial tree, down to a single survivor if need be.
TEST(FtEquivalence, TwoDeathsAtDifferentLevels) {
  const data::Dataset ds = workload();
  ParOptions opt;
  const ParResult serial = build_serial(ds, opt);
  opt.num_procs = 4;
  mpsim::FaultPlan plan;
  plan.fail_stop(1, 0).fail_stop(3, 2);
  opt.fault = &plan;
  for (const Formulation f : {Formulation::Sync, Formulation::Partitioned,
                              Formulation::Hybrid}) {
    SCOPED_TRACE(to_string(f));
    const ParResult res = build(f, ds, opt);
    EXPECT_TRUE(res.tree.same_as(serial.tree));
    // The level-0 death always fires (every formulation starts with the
    // whole machine in one group); the later one fires only if its victim
    // is still busy at that level.
    EXPECT_GE(res.recovery.failures, 1);
    EXPECT_LE(res.recovery.failures, 2);
    if (f == Formulation::Sync) {
      EXPECT_EQ(res.recovery.failures, 2);
    }
  }
}

}  // namespace
}  // namespace pdt::core
