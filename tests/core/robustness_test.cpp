// Degenerate and adversarial inputs across every formulation: the library
// must behave (and agree with the serial algorithm) on tiny, skewed, and
// awkwardly-shaped workloads, not just the benchmark sweet spot.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "data/rng.hpp"

namespace pdt::core {
namespace {

void expect_all_formulations_match(const data::Dataset& ds,
                                   const ParOptions& base,
                                   const std::vector<int>& procs) {
  const ParResult serial = build_serial(ds, base);
  for (const Formulation f :
       {Formulation::Sync, Formulation::Partitioned, Formulation::Hybrid}) {
    for (const int p : procs) {
      ParOptions opt = base;
      opt.num_procs = p;
      const ParResult res = build(f, ds, opt);
      EXPECT_TRUE(res.tree.same_as(serial.tree))
          << to_string(f) << " P=" << p;
      EXPECT_GE(res.parallel_time, 0.0);
    }
  }
}

TEST(Robustness, MoreProcessorsThanRecords) {
  data::Schema s({data::Attribute::categorical("v", 3)}, 2);
  data::Dataset ds(s, 5);
  for (int i = 0; i < 5; ++i) {
    const std::size_t r = ds.add_row(i % 2);
    ds.set_cat(0, r, i % 3);
  }
  expect_all_formulations_match(ds, ParOptions{}, {8, 16});
}

TEST(Robustness, SingleRecord) {
  data::Schema s({data::Attribute::categorical("v", 2)}, 2);
  data::Dataset ds(s, 1);
  const std::size_t r = ds.add_row(1);
  ds.set_cat(0, r, 0);
  expect_all_formulations_match(ds, ParOptions{}, {2, 4});
}

TEST(Robustness, AllRecordsIdentical) {
  data::Schema s({data::Attribute::categorical("v", 4),
                  data::Attribute::continuous("x")},
                 2);
  data::Dataset ds(s, 64);
  for (int i = 0; i < 64; ++i) {
    const std::size_t r = ds.add_row(i % 2);  // mixed classes, no signal
    ds.set_cat(0, r, 2);
    ds.set_cont(1, r, 3.25);
  }
  // No attribute separates anything: everyone must settle for a root leaf.
  const ParResult serial = build_serial(ds, ParOptions{});
  EXPECT_EQ(serial.tree.num_nodes(), 1);
  expect_all_formulations_match(ds, ParOptions{}, {2, 8});
}

TEST(Robustness, SingleAttribute) {
  const data::Dataset raw = data::quest_generate(600, {.function = 1, .seed = 61});
  // Keep only the age column (function 1 is age-only).
  data::Schema s({data::Attribute::continuous("age")}, 2);
  data::Dataset ds(s, raw.num_rows());
  for (std::size_t i = 0; i < raw.num_rows(); ++i) {
    const std::size_t r = ds.add_row(raw.label(i));
    ds.set_cont(0, r, raw.cont(data::quest_attr::kAge, i));
  }
  ParOptions opt;
  opt.grow.max_depth = 8;
  expect_all_formulations_match(ds, opt, {2, 4, 8});
}

TEST(Robustness, HeavilySkewedClasses) {
  // 99:1 class imbalance.
  data::Schema s({data::Attribute::continuous("x")}, 2);
  data::Dataset ds(s, 500);
  data::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const int label = i < 5 ? 1 : 0;
    const std::size_t r = ds.add_row(label);
    ds.set_cont(0, r, label == 1 ? rng.uniform(0.0, 0.1)
                                 : rng.uniform(0.2, 1.0));
  }
  expect_all_formulations_match(ds, ParOptions{}, {2, 8});
}

TEST(Robustness, ManyClasses) {
  data::Schema s({data::Attribute::categorical("v", 8),
                  data::Attribute::continuous("x")},
                 6);
  data::Dataset ds(s, 600);
  data::Rng rng(4);
  for (int i = 0; i < 600; ++i) {
    const int cls = i % 6;
    const std::size_t r = ds.add_row(cls);
    ds.set_cat(0, r, (cls + i / 100) % 8);
    ds.set_cont(1, r, static_cast<double>(cls) + rng.uniform(-0.4, 0.4));
  }
  ParOptions opt;
  opt.grow.max_depth = 10;
  expect_all_formulations_match(ds, opt, {2, 4});
}

TEST(Robustness, NonPowerOfTwoProcessorCounts) {
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(1000, {.function = 2, .seed = 62}),
      data::quest_paper_bins());
  // The hypercube embedding rounds dimensions up; trees must not change.
  expect_all_formulations_match(ds, ParOptions{}, {3, 5, 7, 12});
}

TEST(Robustness, TinyCommBuffer) {
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(800, {.function = 2, .seed = 63}),
      data::quest_paper_bins());
  ParOptions opt;
  opt.comm_buffer_nodes = 1;
  expect_all_formulations_match(ds, opt, {4, 8});
}

TEST(Robustness, ExtremeSplitRatiosStillCorrect) {
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(1200, {.function = 2, .seed = 64}),
      data::quest_paper_bins());
  const ParResult serial = build_serial(ds, ParOptions{});
  for (const double ratio : {1e-6, 1e6}) {
    ParOptions opt;
    opt.num_procs = 8;
    opt.split_ratio = ratio;
    const ParResult res = build_hybrid(ds, opt);
    EXPECT_TRUE(res.tree.same_as(serial.tree)) << "ratio " << ratio;
  }
}

TEST(Robustness, DifferentSeedsDifferentDistributionSameTree) {
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(900, {.function = 2, .seed = 65}),
      data::quest_paper_bins());
  const ParResult serial = build_serial(ds, ParOptions{});
  for (const std::uint64_t seed : {1ull, 99ull, 12345ull}) {
    ParOptions opt;
    opt.num_procs = 8;
    opt.seed = seed;
    const ParResult res = build_hybrid(ds, opt);
    EXPECT_TRUE(res.tree.same_as(serial.tree)) << "seed " << seed;
  }
}

TEST(Robustness, ContBinsOutsideTwoTo256FailBeforeAnyWork) {
  // The slot columns are one byte per row, so the mapper every
  // formulation builds first rejects cont_bins outside [2, 256], naming
  // the value, instead of dying in the boundary code or wrapping a slot.
  const data::Dataset ds = data::quest_generate(200, {.function = 2, .seed = 7});
  for (const int bins : {0, 1, -3, 257}) {
    for (const Formulation f :
         {Formulation::Sync, Formulation::Partitioned, Formulation::Hybrid}) {
      ParOptions opt;
      opt.num_procs = 4;
      opt.grow.cont_bins = bins;
      try {
        (void)build(f, ds, opt);
        ADD_FAILURE() << to_string(f) << " accepted cont_bins " << bins;
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cont_bins"), std::string::npos) << what;
        EXPECT_NE(what.find("got " + std::to_string(bins)), std::string::npos)
            << what;
      }
    }
  }
}

}  // namespace
}  // namespace pdt::core
