// Golden model digests: the trees grown from a fixed Quest draw are
// pinned to digests recorded before the histogram hot path was last
// rewritten. The other identity tests compare formulations against each
// other within one build of the library, so a change that alters every
// tree the same way would pass them; this one compares against history.
//
// Regenerate only after an intentional change to the grown trees, and
// say why in the commit that does it.
#include <gtest/gtest.h>

#include <string>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/serialize.hpp"

namespace pdt::core {
namespace {

constexpr std::size_t kRows = 20000;

data::Dataset quest_draw() {
  return data::quest_generate(kRows, {.function = 2, .seed = 1});
}

/// Figure-6 configuration: continuous attributes pre-binned into the
/// paper's equal-width intervals, default grow options.
struct Fig6 {
  static data::Dataset dataset() {
    return data::discretize_uniform(quest_draw(), data::quest_paper_bins());
  }
  static ParOptions options() { return {}; }
};

/// Figure-8 configuration: raw continuous columns, 32 micro-bins, and
/// SPEC-style k-means discretization at every node.
struct Fig8 {
  static data::Dataset dataset() { return quest_draw(); }
  static ParOptions options() {
    ParOptions opt;
    opt.grow.cont_split = dtree::ContSplit::KMeans;
    opt.grow.cont_bins = 32;
    opt.grow.per_node_bins = 8;
    opt.grow.min_records = 8;
    return opt;
  }
};

/// The serial and hybrid P16 trees are the same tree, so one digest pins
/// both.
template <class Config>
void expect_digest(const std::string& want) {
  const data::Dataset ds = Config::dataset();
  ParOptions opt = Config::options();
  EXPECT_EQ(dtree::model_digest(build_serial(ds, opt).tree), want);
  opt.num_procs = 16;
  EXPECT_EQ(dtree::model_digest(build(Formulation::Hybrid, ds, opt).tree),
            want);
}

TEST(GoldenDigest, Fig6BinnedSerialAndHybridP16) {
  expect_digest<Fig6>(
      "3ea00412dc479ce3f173e381db40ff328625648829711acb05cf090f36788e38");
}

TEST(GoldenDigest, Fig8KMeansSerialAndHybridP16) {
  expect_digest<Fig8>(
      "0e57c53a68cbe07b27c0ca410a9d0fd9639e07fb63b9cd01e5e6a703ebafe15d");
}

}  // namespace
}  // namespace pdt::core
