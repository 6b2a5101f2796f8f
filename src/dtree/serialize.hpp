// Canonical pdt-model-v1 serialization of dtree::Tree + content digest.
//
// The serial builder and the three parallel formulations are proven to
// grow identical trees; this module turns that identity into an artifact
// property: a canonical byte rendering of the tree whose SHA-256 is the
// model digest, so tree-identity gates become hash comparisons over
// committed files instead of in-process same_as() checks.
//
// Canonical form (the digest covers exactly these bytes):
//  * nodes are renumbered in level order over *reachable* nodes only
//    (pruning detaches arena nodes; they never serialize), children
//    contiguous — the same order Tree::expand() allocates, so unpruned
//    BFS-grown trees serialize with their arena ids unchanged;
//  * compact RFC 8259 JSON, no whitespace, fixed key order, shortest
//    round-trip doubles — byte-stable across platforms.
//
// The full document adds provenance meta (enough for `pdt tree eval` to
// regenerate the datasets), summary counts, and the optional SplitAudit
// section; none of that is covered by the digest (per-rank feed counts
// depend on P, while the digest must not).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dtree/tree.hpp"
#include "json/json.hpp"

namespace pdt::dtree {

/// One audited split decision. obs::SplitAudit records these with arena
/// node ids; model_json() pairs them 1:1 with the reachable internal
/// nodes of the final tree (entries for pruned/leaf-ified nodes drop out)
/// and rewrites ids to canonical.
struct SplitAuditEntry {
  int node_id = -1;
  double gain = 0.0;
  double runner_up_gain = 0.0;   ///< best rival attribute's gain
  int runner_up_attr = -1;       ///< -1: no second attribute competed
  std::string phase;             ///< profiler phase active at expand time
  int level = -1;                ///< tree level (node depth)
  std::vector<std::int64_t> per_rank_records;  ///< feed counts by rank
};

/// Dataset + run provenance embedded in the model document. The workload
/// fields describe the Quest generator pipeline (the only data source the
/// bench harnesses use): `paper_bins` means the fig6 preprocessing —
/// discretize_uniform(quest_generate(...), quest_paper_bins()).
struct ModelMeta {
  std::string harness;
  std::string tag;
  std::string formulation;
  int procs = 1;
  int quest_function = 2;
  std::uint64_t train_seed = 1;
  std::int64_t train_rows = 0;
  bool paper_bins = false;
  std::uint64_t eval_seed = 0;   ///< 0: no held-out evaluation recorded
  std::int64_t eval_rows = 0;
};

/// Canonical (level-order, reachable-only) numbering: out[k] is the arena
/// id of canonical node k. Identity for unpruned BFS-grown trees.
[[nodiscard]] std::vector<int> canonical_order(const Tree& tree);

/// Inverse of `order` (= canonical_order(tree)): out[arena id] is the
/// node's canonical id, or -1 for nodes pruning detached.
[[nodiscard]] std::vector<int> canonical_ids(const Tree& tree,
                                             std::span<const int> order);

/// The canonical "nodes" array — the exact byte string the digest covers.
[[nodiscard]] std::string canonical_nodes_json(const Tree& tree);

/// SHA-256 hex of canonical_nodes_json(tree).
[[nodiscard]] std::string model_digest(const Tree& tree);

/// Full pdt-model-v1 document (compact JSON, trailing newline).
/// `accuracy` >= 0 records the held-out accuracy under meta's eval seed.
[[nodiscard]] std::string model_json(const Tree& tree, const ModelMeta& meta,
                                     std::span<const SplitAuditEntry> audit = {},
                                     double accuracy = -1.0);

/// A parsed canonical node, as read back from a model document's "nodes"
/// array.
struct NodeSpec {
  SplitTest test;
  int parent = -1;
  int first_child = -1;
  int depth = 0;
  std::vector<std::int64_t> counts;
  int majority = 0;
};

/// Rebuild a Tree by replaying expand() over canonical node specs in id
/// order, validating every derived field (parent/first_child/depth links,
/// Hunt-rule majorities) against the specs. Returns "" on success, else a
/// description of the first inconsistency. On success `tree_from_nodes ->
/// model_digest` round-trips the digest of the serialized tree.
[[nodiscard]] std::string tree_from_nodes(std::span<const NodeSpec> nodes,
                                          Tree* out);

/// Read a pdt-model-v1 "nodes" array (canonical ids in array order):
/// the one model-node reader, used by pdt tree and the pdt-ckpt-v1
/// loader. Integer fields must be integral JSON numbers in range. Returns
/// "" on success, else "node N: ..." for the first malformed node.
[[nodiscard]] std::string nodes_from_json(const JsonValue& nodes,
                                          std::vector<NodeSpec>* out);

}  // namespace pdt::dtree
