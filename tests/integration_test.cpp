// End-to-end pipeline tests: generate -> discretize -> distribute -> train
// in parallel -> classify, plus the cross-formulation performance shapes
// the paper reports.
#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/io.hpp"
#include "data/quest.hpp"
#include "dtree/builder.hpp"
#include "dtree/metrics.hpp"
#include "dtree/prune.hpp"

namespace pdt {
namespace {

TEST(Pipeline, FullMiningRunOnFunction2) {
  // The paper's workload end to end at reduced scale.
  const data::Dataset raw =
      data::quest_generate(10000, {.function = 2, .seed = 17});
  const data::Dataset train =
      data::discretize_uniform(raw, data::quest_paper_bins());

  core::ParOptions opt;
  opt.num_procs = 16;
  const core::ParResult res = core::build_hybrid(train, opt);

  EXPECT_GT(res.tree.num_nodes(), 100);
  EXPECT_GT(dtree::evaluate(res.tree, train).accuracy(), 0.97);

  // Fresh data from the same distribution classifies well too.
  const data::Dataset fresh_raw =
      data::quest_generate(4000, {.function = 2, .seed = 18});
  const data::Dataset fresh =
      data::discretize_uniform(fresh_raw, data::quest_paper_bins());
  EXPECT_GT(dtree::evaluate(res.tree, fresh).accuracy(), 0.9);
}

TEST(Pipeline, CsvRoundTripTrainsIdentically) {
  const data::Dataset raw =
      data::quest_generate(1500, {.function = 5, .seed = 19});
  const data::Dataset ds =
      data::discretize_uniform(raw, data::quest_paper_bins());
  const std::string path = ::testing::TempDir() + "/quest_f5.csv";
  data::save_csv_file(ds, path);
  const data::Dataset loaded = data::load_csv_file(path);

  const dtree::Tree a = dtree::grow_bfs(ds, dtree::GrowOptions{});
  const dtree::Tree b = dtree::grow_bfs(loaded, dtree::GrowOptions{});
  EXPECT_TRUE(a.same_as(b));
}

TEST(Pipeline, EveryQuestFunctionTrainsAndFits) {
  for (int f = 1; f <= 10; ++f) {
    const data::Dataset raw = data::quest_generate(
        2000, {.function = f, .seed = static_cast<std::uint64_t>(f)});
    const data::Dataset ds =
        data::discretize_uniform(raw, data::quest_paper_bins());
    core::ParOptions opt;
    opt.num_procs = 4;
    const core::ParResult res = core::build_hybrid(ds, opt);
    EXPECT_GT(dtree::evaluate(res.tree, ds).accuracy(), 0.9)
        << "function " << f;
  }
}

TEST(Shapes, Figure6OrderingAt16Processors) {
  // Who wins and roughly by what factor: hybrid > partitioned > sync.
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(12000, {.function = 2, .seed = 20}),
      data::quest_paper_bins());
  core::ParOptions opt;
  opt.num_procs = 16;
  const auto sync = core::build_sync(ds, opt);
  const auto part = core::build_partitioned(ds, opt);
  const auto hybrid = core::build_hybrid(ds, opt);
  EXPECT_LT(hybrid.parallel_time, part.parallel_time);
  EXPECT_LT(part.parallel_time, sync.parallel_time);
}

TEST(Shapes, SyncSpeedupCollapsesBeyondFourProcessors) {
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(8000, {.function = 2, .seed = 21}),
      data::quest_paper_bins());
  const auto series = core::speedup_series(core::Formulation::Sync, ds,
                                           core::ParOptions{}, {1, 2, 4, 16});
  // Speedup at 16 barely improves (or worsens) over 4 — the Figure 6
  // signature of the synchronous approach.
  EXPECT_LT(series[3].speedup, series[2].speedup * 1.5);
  EXPECT_LT(series[3].efficiency, 0.5);
}

TEST(Shapes, HybridScaleupStaysNearFlat) {
  // Figure 9: fixed 1000 records per processor; runtime growth from P=1
  // to P=16 stays modest (the log P term).
  auto run = [](int p) {
    const data::Dataset ds = data::discretize_uniform(
        data::quest_generate(static_cast<std::size_t>(1000) * p,
                             {.function = 2, .seed = 22}),
        data::quest_paper_bins());
    core::ParOptions opt;
    opt.num_procs = p;
    return core::build_hybrid(ds, opt).parallel_time;
  };
  const double t1 = run(1);
  const double t16 = run(16);
  EXPECT_LT(t16, t1 * 3.0) << "scaleup curve should be close to flat";
}

TEST(Shapes, PruningIsCheapRelativeToGrowth) {
  // Section 2.1 calls pruning <1% of initial tree generation. This checks
  // a work proxy, not time: pruning visits each node once, growth touches
  // each record once per level. Measured host time is not under 1% here
  // (prune is 7-10% of the serial build at 0.8M rows, 25-40% of grow_bfs
  // at 20k; see BM_GrowVsPrune), because small nodes run an exact
  // binomial bisection.
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(8000, {.function = 2, .seed = 23}),
      data::quest_paper_bins());
  core::ParOptions opt;
  const auto serial = core::build_serial(ds, opt);
  dtree::Tree tree = serial.tree;
  // Growth touches every record once per level; pruning touches every
  // node once.
  const double growth_work =
      static_cast<double>(ds.num_rows()) * (tree.depth() + 1);
  const double prune_work = static_cast<double>(tree.num_nodes());
  EXPECT_LT(prune_work / growth_work, 0.01);
  (void)dtree::prune(tree);
}

TEST(Shapes, GiniAndEntropyGiveComparableTrees) {
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(4000, {.function = 2, .seed = 24}),
      data::quest_paper_bins());
  core::ParOptions ent;
  core::ParOptions gin;
  gin.grow.criterion = dtree::Criterion::Gini;
  const auto a = core::build_serial(ds, ent);
  const auto b = core::build_serial(ds, gin);
  const double acc_a = dtree::evaluate(a.tree, ds).accuracy();
  const double acc_b = dtree::evaluate(b.tree, ds).accuracy();
  EXPECT_NEAR(acc_a, acc_b, 0.02);
}

}  // namespace
}  // namespace pdt
