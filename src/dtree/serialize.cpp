#include "dtree/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <sstream>
#include <string_view>

#include "dtree/sha256.hpp"

namespace pdt::dtree {

namespace {

const char* kind_name(SplitTest::Kind k) {
  switch (k) {
    case SplitTest::Kind::Leaf: return "leaf";
    case SplitTest::Kind::Threshold: return "threshold";
    case SplitTest::Kind::OrderedSlot: return "ordered_slot";
    case SplitTest::Kind::Subset: return "subset";
    case SplitTest::Kind::Multiway: return "multiway";
  }
  return "?";
}

bool kind_from_name(const std::string& name, SplitTest::Kind* k) {
  using Kind = SplitTest::Kind;
  for (const Kind kind : {Kind::Leaf, Kind::Threshold, Kind::OrderedSlot,
                          Kind::Subset, Kind::Multiway}) {
    if (name == kind_name(kind)) {
      *k = kind;
      return true;
    }
  }
  return false;
}

/// Decimal integer, the same digits std::to_string writes, appended in
/// place.
template <class Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

/// `key` (the JSON text up to and including the colon) then an integer.
template <class Int>
void append_field(std::string& out, std::string_view key, Int v) {
  out += key;
  append_int(out, v);
}

void append_counts(std::string& out, std::span<const std::int64_t> counts) {
  out += "[";
  for (std::size_t c = 0; c < counts.size(); ++c) {
    if (c != 0) out += ",";
    append_int(out, counts[c]);
  }
  out += "]";
}

/// Serialize one node under its canonical ids.
void append_node(std::string& out, const Node& nd, int canon_id,
                 int canon_parent, int canon_first_child) {
  append_field(out, "{\"id\":", canon_id);
  append_field(out, ",\"parent\":", canon_parent);
  append_field(out, ",\"first_child\":", canon_first_child);
  append_field(out, ",\"depth\":", nd.depth);
  append_field(out, ",\"majority\":", nd.majority);
  out += ",\"counts\":";
  append_counts(out, nd.class_counts);
  out += ",\"kind\":\"";
  out += kind_name(nd.test.kind);
  out += "\"";
  if (!nd.is_leaf()) {
    append_field(out, ",\"attr\":", nd.test.attr);
    append_field(out, ",\"children\":", nd.test.num_children);
    switch (nd.test.kind) {
      case SplitTest::Kind::Threshold:
        out += ",\"threshold\":";
        out += json_double_exact(nd.test.threshold);
        append_field(out, ",\"slot\":", nd.test.slot_threshold);
        break;
      case SplitTest::Kind::OrderedSlot:
        append_field(out, ",\"slot\":", nd.test.slot_threshold);
        break;
      case SplitTest::Kind::Subset: {
        out += ",\"in_left\":[";
        for (std::size_t v = 0; v < nd.test.in_left.size(); ++v) {
          if (v != 0) out += ",";
          out += nd.test.in_left[v] ? "1" : "0";
        }
        out += "]";
        break;
      }
      case SplitTest::Kind::Multiway:
      case SplitTest::Kind::Leaf:
        break;
    }
  }
  out += "}";
}

/// Append the canonical "nodes" array for a precomputed canonical_order
/// and its canonical_ids.
void append_nodes(std::string& out, const Tree& tree,
                  std::span<const int> order, std::span<const int> canon_of) {
  // Canonical first_child falls out of the level-order walk: children are
  // enqueued contiguously, so child canonical ids are consecutive and the
  // next unassigned id advances exactly like Tree::expand()'s arena.
  out += "[";
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k != 0) out += ",";
    const Node& nd = tree.node(order[k]);
    const int canon_parent =
        nd.parent < 0 ? -1 : canon_of[static_cast<std::size_t>(nd.parent)];
    const int canon_first =
        nd.is_leaf() ? -1
                     : canon_of[static_cast<std::size_t>(nd.first_child)];
    append_node(out, nd, static_cast<int>(k), canon_parent, canon_first);
  }
  out += "]";
}

}  // namespace

std::vector<int> canonical_order(const Tree& tree) {
  std::vector<int> order;
  if (tree.num_nodes() == 0) return order;
  order.reserve(static_cast<std::size_t>(tree.num_nodes()));
  order.push_back(tree.root());
  // `order` is its own BFS queue: everything past `head` is enqueued.
  for (std::size_t head = 0; head < order.size(); ++head) {
    const Node& nd = tree.node(order[head]);
    if (nd.is_leaf()) continue;
    for (int k = 0; k < nd.test.num_children; ++k) {
      order.push_back(nd.first_child + k);
    }
  }
  return order;
}

std::vector<int> canonical_ids(const Tree& tree, std::span<const int> order) {
  std::vector<int> canon_of(static_cast<std::size_t>(tree.num_nodes()), -1);
  for (std::size_t k = 0; k < order.size(); ++k) {
    canon_of[static_cast<std::size_t>(order[k])] = static_cast<int>(k);
  }
  return canon_of;
}

std::string canonical_nodes_json(const Tree& tree) {
  const std::vector<int> order = canonical_order(tree);
  std::string out;
  append_nodes(out, tree, order, canonical_ids(tree, order));
  return out;
}

std::string model_digest(const Tree& tree) {
  return sha256_hex(canonical_nodes_json(tree));
}

std::string model_json(const Tree& tree, const ModelMeta& meta,
                       std::span<const SplitAuditEntry> audit,
                       double accuracy) {
  const std::vector<int> order = canonical_order(tree);
  const std::vector<int> canon_of = canonical_ids(tree, order);
  std::string out = "{\"schema\":\"pdt-model-v1\"";
  out += ",\"meta\":{";
  out += "\"harness\":\"" + json_escaped(meta.harness) + "\"";
  out += ",\"tag\":\"" + json_escaped(meta.tag) + "\"";
  out += ",\"formulation\":\"" + json_escaped(meta.formulation) + "\"";
  append_field(out, ",\"procs\":", meta.procs);
  out += ",\"workload\":{\"generator\":\"quest\"";
  append_field(out, ",\"function\":", meta.quest_function);
  append_field(out, ",\"seed\":", meta.train_seed);
  append_field(out, ",\"rows\":", meta.train_rows);
  out += ",\"paper_bins\":";
  out += meta.paper_bins ? "true" : "false";
  out += "}";
  if (meta.eval_seed != 0) {
    append_field(out, ",\"eval\":{\"seed\":", meta.eval_seed);
    append_field(out, ",\"rows\":", meta.eval_rows);
    if (accuracy >= 0.0) {
      out += ",\"accuracy\":" + json_double_exact(accuracy);
    }
    out += "}";
  }
  out += "}";
  // The digest precedes the nodes it covers: hold its 64 hex digits'
  // place, write the nodes into the document, then hash them there.
  out += ",\"digest\":\"";
  const std::size_t digest_at = out.size();
  out.append(64, '0');
  out += "\"";
  append_field(out, ",\"num_nodes\":", order.size());
  append_field(out, ",\"num_leaves\":", tree.num_leaves());
  append_field(out, ",\"depth\":", tree.depth());
  out += ",\"nodes\":";
  const std::size_t nodes_at = out.size();
  append_nodes(out, tree, order, canon_of);
  out.replace(digest_at, 64,
              sha256_hex(std::string_view(out).substr(nodes_at)));

  // Pairing rule: audit entries survive iff their node is a reachable
  // internal node of the *final* tree (a leaf-ified or detached node's
  // decision was revoked), remapped to canonical ids and sorted by them.
  std::vector<std::pair<int, const SplitAuditEntry*>> paired;
  for (const SplitAuditEntry& e : audit) {
    if (e.node_id < 0 || e.node_id >= tree.num_nodes()) continue;
    if (tree.node(e.node_id).is_leaf()) continue;
    const int canon = canon_of[static_cast<std::size_t>(e.node_id)];
    if (canon < 0) continue;
    paired.emplace_back(canon, &e);
  }
  std::sort(paired.begin(), paired.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (!paired.empty()) {
    out += ",\"audit\":[";
    for (std::size_t i = 0; i < paired.size(); ++i) {
      if (i != 0) out += ",";
      const SplitAuditEntry& e = *paired[i].second;
      append_field(out, "{\"node\":", paired[i].first);
      out += ",\"gain\":" + json_double_exact(e.gain);
      out += ",\"runner_up_gain\":" + json_double_exact(e.runner_up_gain);
      append_field(out, ",\"runner_up_attr\":", e.runner_up_attr);
      out += ",\"phase\":\"" + json_escaped(e.phase) + "\"";
      append_field(out, ",\"level\":", e.level);
      out += ",\"per_rank_records\":";
      append_counts(out, e.per_rank_records);
      out += "}";
    }
    out += "]";
  }
  out += "}\n";
  return out;
}

namespace {

/// An integral JSON number in [lo, hi]. Doubles hold every integer up to
/// 2^53 exactly, so that bounds the int64 class counts.
bool read_integer(const JsonValue& v, double lo, double hi,
                  std::int64_t* out) {
  const double d = v.as_double(0.5);  // non-numbers fail the integral test
  if (!(d >= lo && d <= hi) || std::trunc(d) != d) return false;
  *out = v.as_int();
  return true;
}

std::string node_from_json(const JsonValue& jn, std::size_t idx,
                           NodeSpec* spec) {
  const std::string at = "node " + std::to_string(idx) + ": ";
  if (!jn.is_object()) return at + "not an object";
  std::string bad;  // first int field that is missing or not an integer
  const auto int_field = [&](std::string_view key) {
    std::int64_t x = 0;
    if (!read_integer(jn.get(key), INT_MIN, INT_MAX, &x) && bad.empty()) {
      bad = key;
    }
    return static_cast<int>(x);
  };
  if (int_field("id") != static_cast<int>(idx) && bad.empty()) {
    return at + "id is not its array position";
  }
  spec->parent = int_field("parent");
  spec->first_child = int_field("first_child");
  spec->depth = int_field("depth");
  spec->majority = int_field("majority");
  if (!bad.empty()) return at + bad + " is not an integer in range";
  const JsonValue& counts = jn.get("counts");
  if (!counts.is_array() || counts.size() == 0) {
    return at + "missing counts array";
  }
  for (const JsonValue& c : counts.array()) {
    std::int64_t n = 0;
    if (!read_integer(c, 0, 9007199254740992.0, &n)) {
      return at + "bad class count";
    }
    spec->counts.push_back(n);
  }
  if (!kind_from_name(jn.get("kind").as_string(), &spec->test.kind)) {
    return at + "unknown kind \"" + jn.get("kind").as_string() + "\"";
  }
  if (spec->test.is_leaf()) return {};

  spec->test.attr = int_field("attr");
  spec->test.num_children = int_field("children");
  switch (spec->test.kind) {
    case SplitTest::Kind::Threshold:
      if (!jn.get("threshold").is_number()) {
        return at + "threshold split without a threshold";
      }
      spec->test.threshold = jn.get("threshold").as_double();
      spec->test.slot_threshold = int_field("slot");
      break;
    case SplitTest::Kind::OrderedSlot:
      spec->test.slot_threshold = int_field("slot");
      if (spec->test.slot_threshold < 0) {
        return at + "ordered_slot split without a slot";
      }
      break;
    case SplitTest::Kind::Subset: {
      const JsonValue& in_left = jn.get("in_left");
      if (!in_left.is_array() || in_left.size() == 0) {
        return at + "subset split without in_left";
      }
      for (const JsonValue& f : in_left.array()) {
        std::int64_t flag = 0;
        if (!read_integer(f, 0, 1, &flag)) {
          return at + "in_left entry is not 0 or 1";
        }
        spec->test.in_left.push_back(static_cast<std::uint8_t>(flag));
      }
      break;
    }
    case SplitTest::Kind::Multiway:
    case SplitTest::Kind::Leaf:
      break;
  }
  if (!bad.empty()) return at + bad + " is not an integer in range";
  if (spec->test.attr < 0) return at + "split without an attr";
  return {};
}

}  // namespace

std::string nodes_from_json(const JsonValue& nodes,
                            std::vector<NodeSpec>* out) {
  out->clear();
  if (!nodes.is_array() || nodes.size() == 0) return "missing nodes array";
  out->reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    NodeSpec spec;
    if (std::string err = node_from_json(nodes.at(i), i, &spec);
        !err.empty()) {
      return err;
    }
    out->push_back(std::move(spec));
  }
  return {};
}

std::string tree_from_nodes(std::span<const NodeSpec> nodes, Tree* out) {
  std::ostringstream err;
  if (nodes.empty()) {
    return "model has no nodes";
  }
  const NodeSpec& root = nodes[0];
  if (root.parent != -1 || root.depth != 0) {
    return "node 0 is not a root (parent/depth mismatch)";
  }
  Tree tree(std::vector<std::int64_t>(root.counts));
  if (tree.node(0).majority != root.majority) {
    err << "node 0: majority " << root.majority
        << " does not match its counts (derived "
        << tree.node(0).majority << ")";
    return err.str();
  }
  // Replay expand() in canonical id order: children were numbered in the
  // same pop order, so every recorded first_child must equal the arena
  // size at its expansion — any drift means a corrupted document.
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const NodeSpec& spec = nodes[id];
    if (spec.test.is_leaf()) {
      if (spec.first_child != -1) {
        err << "node " << id << ": leaf with first_child "
            << spec.first_child;
        return err.str();
      }
      continue;
    }
    if (static_cast<int>(id) >= tree.num_nodes()) {
      err << "node " << id << ": unreachable from the root";
      return err.str();
    }
    const int nc = spec.test.num_children;
    if (nc < 2 || spec.first_child != tree.num_nodes()) {
      err << "node " << id << ": first_child " << spec.first_child
          << " does not match the replayed arena (expected "
          << tree.num_nodes() << ")";
      return err.str();
    }
    if (spec.first_child + nc > static_cast<int>(nodes.size())) {
      err << "node " << id << ": children run past the node array";
      return err.str();
    }
    SplitDecision d;
    d.test = spec.test;
    const std::size_t c_num = spec.counts.size();
    d.child_counts.reserve(static_cast<std::size_t>(nc) * c_num);
    for (int k = 0; k < nc; ++k) {
      const NodeSpec& child = nodes[static_cast<std::size_t>(spec.first_child + k)];
      if (child.parent != static_cast<int>(id) ||
          child.depth != spec.depth + 1 || child.counts.size() != c_num) {
        err << "node " << spec.first_child + k
            << ": parent/depth/counts do not match its parent " << id;
        return err.str();
      }
      d.child_counts.insert(d.child_counts.end(), child.counts.begin(),
                            child.counts.end());
    }
    tree.expand(static_cast<int>(id), d);
    for (int k = 0; k < nc; ++k) {
      const int cid = spec.first_child + k;
      if (tree.node(cid).majority !=
          nodes[static_cast<std::size_t>(cid)].majority) {
        err << "node " << cid << ": majority "
            << nodes[static_cast<std::size_t>(cid)].majority
            << " does not match the Hunt rule (derived "
            << tree.node(cid).majority << ")";
        return err.str();
      }
    }
  }
  if (tree.num_nodes() != static_cast<int>(nodes.size())) {
    err << "replay produced " << tree.num_nodes() << " nodes for a "
        << nodes.size() << "-node document (dangling leaves?)";
    return err.str();
  }
  if (out != nullptr) *out = std::move(tree);
  return {};
}

}  // namespace pdt::dtree
