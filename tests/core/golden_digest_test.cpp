// Golden model digests: the trees grown from a fixed Quest draw are
// pinned to digests recorded before the histogram hot path was last
// rewritten, and the pruned trees and one full model document to values
// recorded before pruning and serialization were last rewritten. The other identity tests compare formulations against each
// other within one build of the library, so a change that alters every
// tree the same way would pass them; this one compares against history.
//
// Regenerate only after an intentional change to the grown trees, and
// say why in the commit that does it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/metrics.hpp"
#include "dtree/prune.hpp"
#include "dtree/serialize.hpp"
#include "dtree/sha256.hpp"

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

/// Pruning is deterministic and the serial and hybrid P16 trees are the
/// same tree, so one pruned digest pins both.
template <class Config>
void expect_pruned_digest(const std::string& want) {
  const data::Dataset ds = Config::dataset();
  ParOptions opt = Config::options();
  dtree::Tree serial = build_serial(ds, opt).tree;
  dtree::prune(serial);
  EXPECT_EQ(dtree::model_digest(serial), want);
  opt.num_procs = 16;
  dtree::Tree hybrid = build(Formulation::Hybrid, ds, opt).tree;
  dtree::prune(hybrid);
  EXPECT_EQ(dtree::model_digest(hybrid), want);
}

TEST(GoldenDigest, Fig6BinnedSerialAndHybridP16) {
  expect_digest<Fig6>(
      "3ea00412dc479ce3f173e381db40ff328625648829711acb05cf090f36788e38");
}

TEST(GoldenDigest, Fig8KMeansSerialAndHybridP16) {
  expect_digest<Fig8>(
      "0e57c53a68cbe07b27c0ca410a9d0fd9639e07fb63b9cd01e5e6a703ebafe15d");
}

TEST(GoldenDigest, Fig6BinnedPrunedSerialAndHybridP16) {
  expect_pruned_digest<Fig6>(
      "feae4539299b54062517a9ec35baa3649eafbf15d1ea1a0eb199eccdff06058a");
}

TEST(GoldenDigest, Fig8KMeansPrunedSerialAndHybridP16) {
  expect_pruned_digest<Fig8>(
      "bf79a74472e8a57a94fb8a1e9fceecf5a54f38f3eeaf131a255c79df9711ac80");
}

/// The whole pdt-model-v1 document of a pruned tree, not just its node
/// array: meta, counts, a held-out accuracy and audit entries, including
/// one for a node that pruning collapsed (it must drop out of the pairing).
TEST(GoldenDigest, Fig6PrunedModelDocument) {
  const data::Dataset ds = Fig6::dataset();
  dtree::Tree tree = build_serial(ds, Fig6::options()).tree;
  const dtree::Tree grown = tree;
  dtree::prune(tree);

  const std::vector<int> canon_of =
      dtree::canonical_ids(tree, dtree::canonical_order(tree));
  std::vector<dtree::SplitAuditEntry> audit;
  int kept = 0;
  int collapsed = 0;
  for (int id = grown.num_nodes() - 1; id >= 0; --id) {
    if (grown.node(id).is_leaf()) continue;
    const bool survives = canon_of[static_cast<std::size_t>(id)] >= 0 &&
                          !tree.node(id).is_leaf();
    if (survives ? kept >= 3 : collapsed >= 1) continue;
    (survives ? kept : collapsed) += 1;
    dtree::SplitAuditEntry e;
    e.node_id = id;
    e.gain = 0.125 * (id + 1);
    e.runner_up_gain = 1.0 / (id + 3);
    e.runner_up_attr = id % 9;
    e.phase = "grow \"level\"\n";
    e.level = grown.node(id).depth;
    e.per_rank_records = {grown.node(id).num_records(), 0, id};
    audit.push_back(std::move(e));
  }
  ASSERT_EQ(kept, 3);
  ASSERT_EQ(collapsed, 1);

  const data::Dataset eval = data::discretize_uniform(
      data::quest_generate(5000, {.function = 2, .seed = 7}),
      data::quest_paper_bins());
  dtree::ModelMeta meta;
  meta.harness = "golden";
  meta.tag = "fig6.serial.P1";
  meta.formulation = "serial";
  meta.train_rows = static_cast<std::int64_t>(kRows);
  meta.paper_bins = true;
  meta.eval_seed = 7;
  meta.eval_rows = 5000;
  const std::string doc = dtree::model_json(
      tree, meta, audit, dtree::evaluate(tree, eval).accuracy());
  EXPECT_EQ(dtree::sha256_hex(doc),
            "af6e74a89b384529d3002102e299ab4955a325547033783fb60fd2663bb8f8eb")
      << doc;
}

}  // namespace
}  // namespace pdt::core
