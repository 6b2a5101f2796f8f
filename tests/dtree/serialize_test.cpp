// pdt-model-v1 canonical serialization: digest stability, round-trip
// reconstruction, pruning canonicalization, and the audit pairing rule.
#include "dtree/serialize.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/discretize.hpp"
#include "data/golf.hpp"
#include "data/quest.hpp"
#include "dtree/builder.hpp"
#include "dtree/metrics.hpp"
#include "dtree/sha256.hpp"

namespace pdt::dtree {
namespace {

data::Dataset quest_binned(std::size_t n, std::uint64_t seed) {
  return data::discretize_uniform(
      data::quest_generate(n, {.function = 2, .seed = seed}),
      data::quest_paper_bins());
}

/// NodeSpec list straight from a tree's canonical order (what a reader
/// recovers from the "nodes" array of a well-formed document).
std::vector<NodeSpec> specs_of(const Tree& t) {
  const std::vector<int> order = canonical_order(t);
  const std::vector<int> canon_of = canonical_ids(t, order);
  std::vector<NodeSpec> specs;
  for (const int id : order) {
    const Node& nd = t.node(id);
    NodeSpec s;
    s.test = nd.test;
    s.parent =
        nd.parent < 0 ? -1 : canon_of[static_cast<std::size_t>(nd.parent)];
    s.first_child =
        nd.is_leaf() ? -1
                     : canon_of[static_cast<std::size_t>(nd.first_child)];
    s.depth = nd.depth;
    s.counts = nd.class_counts;
    s.majority = nd.majority;
    specs.push_back(std::move(s));
  }
  return specs;
}

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                       "nopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // Tail spanning two final blocks (len 56..63 needs a second pad block).
  EXPECT_EQ(sha256_hex(std::string(56, 'a')),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Serialize, UnprunedBfsTreeKeepsArenaIds) {
  const data::Dataset ds = quest_binned(800, 3);
  const Tree t = grow_bfs(ds, {});
  const std::vector<int> order = canonical_order(t);
  ASSERT_EQ(static_cast<int>(order.size()), t.num_nodes());
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(order[k], static_cast<int>(k));
  }
}

TEST(Serialize, DigestIsDeterministicAndContentSensitive) {
  const data::Dataset ds = quest_binned(800, 3);
  const Tree a = grow_bfs(ds, {});
  const Tree b = grow_bfs(ds, {});
  EXPECT_EQ(model_digest(a), model_digest(b));
  ASSERT_EQ(model_digest(a).size(), 64u);
  const Tree c = grow_bfs(quest_binned(800, 4), {});
  EXPECT_NE(model_digest(a), model_digest(c));
}

TEST(Serialize, RoundTripReconstructsIdenticalTree) {
  const data::Dataset ds = quest_binned(1200, 5);
  const Tree t = grow_bfs(ds, {});
  Tree back;
  ASSERT_EQ(tree_from_nodes(specs_of(t), &back), "");
  EXPECT_TRUE(back.same_as(t));
  EXPECT_EQ(model_digest(back), model_digest(t));
  // The rebuilt tree classifies identically, not just structurally.
  EXPECT_EQ(evaluate(back, ds).correct, evaluate(t, ds).correct);
}

TEST(Serialize, GolfMultiwayRoundTrip) {
  const data::Dataset golf = data::golf_dataset();
  GrowOptions opt;
  opt.policy = SplitPolicy::Multiway;
  const Tree t = grow_dfs_exact(golf, opt);
  Tree back;
  ASSERT_EQ(tree_from_nodes(specs_of(t), &back), "");
  EXPECT_TRUE(back.same_as(t));
}

TEST(Serialize, LeafIfiedSubtreesDropFromCanonicalForm) {
  const data::Dataset ds = quest_binned(1200, 5);
  Tree t = grow_bfs(ds, {});
  const int before = t.num_nodes();
  // Detach a subtree the way pruning does. Pick the deepest internal node
  // so at least its children fall out of the reachable set.
  int victim = -1;
  for (int id = before - 1; id >= 0; --id) {
    if (!t.node(id).is_leaf()) {
      victim = id;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  const std::string digest_before = model_digest(t);
  const int first_child = t.node(victim).first_child;
  t.make_leaf(victim);
  EXPECT_NE(model_digest(t), digest_before);
  // The arena still holds the detached nodes; the canonical form drops
  // them and renumbers, so the rebuilt tree is the compact classifier.
  EXPECT_EQ(t.num_nodes(), before);
  const std::vector<int> order = canonical_order(t);
  EXPECT_LT(static_cast<int>(order.size()), before);
  const std::vector<int> canon_of = canonical_ids(t, order);
  EXPECT_GE(canon_of[static_cast<std::size_t>(victim)], 0);
  EXPECT_EQ(canon_of[static_cast<std::size_t>(first_child)], -1);
  EXPECT_EQ(std::count(canon_of.begin(), canon_of.end(), -1),
            before - static_cast<int>(order.size()));
  Tree back;
  ASSERT_EQ(tree_from_nodes(specs_of(t), &back), "");
  EXPECT_TRUE(back.same_as(t));
  EXPECT_EQ(back.num_nodes(), static_cast<int>(order.size()));
  EXPECT_EQ(model_digest(back), model_digest(t));
}

TEST(Serialize, CorruptedDocumentsAreRejected) {
  const data::Dataset ds = quest_binned(600, 6);
  const Tree t = grow_bfs(ds, {});
  Tree back;
  {
    std::vector<NodeSpec> specs = specs_of(t);
    specs[0].depth = 1;  // root must sit at depth 0
    EXPECT_NE(tree_from_nodes(specs, &back), "");
  }
  {
    std::vector<NodeSpec> specs = specs_of(t);
    // Find an internal node and break its first_child link.
    for (NodeSpec& s : specs) {
      if (s.test.is_leaf()) continue;
      s.first_child += 1;
      break;
    }
    EXPECT_NE(tree_from_nodes(specs, &back), "");
  }
  {
    std::vector<NodeSpec> specs = specs_of(t);
    // A majority inconsistent with its counts must be caught.
    specs[0].majority = specs[0].majority == 0 ? 1 : 0;
    EXPECT_NE(tree_from_nodes(specs, &back), "");
  }
  EXPECT_NE(tree_from_nodes({}, &back), "");
}

TEST(Serialize, ModelJsonAppliesAuditPairingRule) {
  const data::Dataset ds = quest_binned(600, 7);
  Tree t = grow_bfs(ds, {});
  ASSERT_GT(t.num_nodes(), 3);
  // One entry per internal node, plus one for a node we then leaf-ify
  // and one for a bogus id; only entries for reachable internal nodes of
  // the final tree may serialize.
  std::vector<SplitAuditEntry> audit;
  for (int id = 0; id < t.num_nodes(); ++id) {
    if (t.node(id).is_leaf()) continue;
    SplitAuditEntry e;
    e.node_id = id;
    e.gain = 0.5;
    e.level = t.node(id).depth;
    e.phase = "split-eval";
    audit.push_back(std::move(e));
  }
  // Leaf-ify the last internal node: its entry (and its detached
  // children's) must drop out.
  int victim = -1;
  for (int id = t.num_nodes() - 1; id >= 0; --id) {
    if (!t.node(id).is_leaf()) {
      victim = id;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  t.make_leaf(victim);

  ModelMeta meta;
  meta.harness = "test";
  const std::string doc = model_json(t, meta, audit);
  // Count "node": occurrences in the audit section = reachable internal
  // nodes of the final tree.
  int internal = 0;
  const std::vector<int> order = canonical_order(t);
  for (const int id : order) {
    if (!t.node(id).is_leaf()) ++internal;
  }
  int recorded = 0;
  for (std::size_t pos = doc.find("{\"node\":"); pos != std::string::npos;
       pos = doc.find("{\"node\":", pos + 1)) {
    ++recorded;
  }
  EXPECT_EQ(recorded, internal);
  EXPECT_NE(doc.find("\"schema\":\"pdt-model-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"digest\":\"" + model_digest(t) + "\""),
            std::string::npos);
}

TEST(Serialize, DigestCoversNodesNotMeta) {
  const data::Dataset ds = quest_binned(600, 8);
  const Tree t = grow_bfs(ds, {});
  ModelMeta m1;
  m1.harness = "a";
  m1.procs = 1;
  ModelMeta m2;
  m2.harness = "b";
  m2.procs = 16;
  const std::string d1 = model_json(t, m1);
  const std::string d2 = model_json(t, m2);
  EXPECT_NE(d1, d2);  // meta differs...
  const std::string digest = "\"digest\":\"" + model_digest(t) + "\"";
  EXPECT_NE(d1.find(digest), std::string::npos);  // ...the digest does not
  EXPECT_NE(d2.find(digest), std::string::npos);
}

}  // namespace
}  // namespace pdt::dtree
