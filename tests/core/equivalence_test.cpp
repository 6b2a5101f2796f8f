// The central correctness property (DESIGN.md invariant 1): every parallel
// formulation, at every processor count, for every criterion, split policy,
// data distribution seed, and continuous-attribute handling, grows exactly
// the tree the serial algorithm grows.
#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/metrics.hpp"

namespace pdt::core {
namespace {

struct Config {
  Formulation formulation;
  int procs;
  dtree::Criterion criterion;
  std::uint64_t seed;
};

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  const Config& c = info.param;
  std::string s = to_string(c.formulation);
  s += "_P" + std::to_string(c.procs);
  s += c.criterion == dtree::Criterion::Entropy ? "_entropy" : "_gini";
  s += "_seed" + std::to_string(c.seed);
  return s;
}

class EquivalenceTest : public ::testing::TestWithParam<Config> {};

TEST_P(EquivalenceTest, ParallelTreeEqualsSerialTree) {
  const Config& c = GetParam();
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(2500, {.function = 2, .seed = c.seed}),
      data::quest_paper_bins());
  ParOptions opt;
  opt.grow.criterion = c.criterion;
  opt.seed = c.seed * 31 + 7;
  const ParResult serial = build_serial(ds, opt);
  opt.num_procs = c.procs;
  const ParResult res = build(c.formulation, ds, opt);
  EXPECT_TRUE(res.tree.same_as(serial.tree));
  EXPECT_EQ(res.tree.num_nodes(), serial.tree.num_nodes());
  EXPECT_EQ(dtree::evaluate(res.tree, ds).correct,
            dtree::evaluate(serial.tree, ds).correct);
}

std::vector<Config> make_configs() {
  std::vector<Config> out;
  for (const Formulation f :
       {Formulation::Sync, Formulation::Partitioned, Formulation::Hybrid}) {
    for (const int p : {2, 4, 8, 16}) {
      for (const dtree::Criterion crit :
           {dtree::Criterion::Entropy, dtree::Criterion::Gini}) {
        for (const std::uint64_t seed : {1ull, 42ull}) {
          out.push_back({f, p, crit, seed});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllFormulations, EquivalenceTest,
                         ::testing::ValuesIn(make_configs()), config_name);

// Continuous-attribute handling: the same equivalence with raw continuous
// data under every per-node discretization mode (Section 3.4).
struct ContConfig {
  Formulation formulation;
  int procs;
  dtree::ContSplit cont_split;
};

std::string cont_name(const ::testing::TestParamInfo<ContConfig>& info) {
  const ContConfig& c = info.param;
  std::string s = to_string(c.formulation);
  s += "_P" + std::to_string(c.procs);
  switch (c.cont_split) {
    case dtree::ContSplit::ThresholdScan: s += "_scan"; break;
    case dtree::ContSplit::KMeans: s += "_kmeans"; break;
    case dtree::ContSplit::Quantile: s += "_quantile"; break;
  }
  return s;
}

class ContinuousEquivalenceTest
    : public ::testing::TestWithParam<ContConfig> {};

TEST_P(ContinuousEquivalenceTest, ParallelTreeEqualsSerialTree) {
  const ContConfig& c = GetParam();
  const data::Dataset ds =
      data::quest_generate(2000, {.function = 2, .seed = 5});
  ParOptions opt;
  opt.grow.cont_split = c.cont_split;
  opt.grow.cont_bins = 24;
  opt.grow.per_node_bins = 6;
  opt.grow.max_depth = 12;  // keep continuous trees modest
  const ParResult serial = build_serial(ds, opt);
  opt.num_procs = c.procs;
  const ParResult res = build(c.formulation, ds, opt);
  EXPECT_TRUE(res.tree.same_as(serial.tree));
}

std::vector<ContConfig> make_cont_configs() {
  std::vector<ContConfig> out;
  for (const Formulation f :
       {Formulation::Sync, Formulation::Partitioned, Formulation::Hybrid}) {
    for (const int p : {4, 8}) {
      for (const dtree::ContSplit cs :
           {dtree::ContSplit::ThresholdScan, dtree::ContSplit::KMeans,
            dtree::ContSplit::Quantile}) {
        out.push_back({f, p, cs});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(ContinuousHandling, ContinuousEquivalenceTest,
                         ::testing::ValuesIn(make_cont_configs()), cont_name);

// Every formulation at P = 2 and 4 grows the serial tree through the
// build() dispatch.
TEST(VerifyEquivalence, ReportsSuccessOnHealthyConfig) {
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(1200, {.function = 2, .seed = 9}),
      data::quest_paper_bins());
  const ParOptions base;
  const ParResult serial = build_serial(ds, base);
  for (const Formulation f :
       {Formulation::Sync, Formulation::Partitioned, Formulation::Hybrid}) {
    for (const int p : {2, 4}) {
      ParOptions opt = base;
      opt.num_procs = p;
      EXPECT_TRUE(build(f, ds, opt).tree.same_as(serial.tree))
          << to_string(f) << " P=" << p;
    }
  }
}

}  // namespace
}  // namespace pdt::core
