#include "tree/tree.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <ostream>
#include <utility>

#include "common/cli.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/metrics.hpp"

namespace pdt::tools {

namespace {

/// printf into an ostream — the tools render fixed-width tables and the
/// iostream manipulator soup obscures them.
void out(std::ostream& os, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  os << buf;
}

std::string describe_test(const dtree::SplitTest& t) {
  char buf[128];
  switch (t.kind) {
    case dtree::SplitTest::Kind::Leaf:
      return "leaf";
    case dtree::SplitTest::Kind::Threshold:
      std::snprintf(buf, sizeof buf, "attr %d <= %.17g (slot %d)", t.attr,
                    t.threshold, t.slot_threshold);
      return buf;
    case dtree::SplitTest::Kind::OrderedSlot:
      std::snprintf(buf, sizeof buf, "attr %d slot <= %d", t.attr,
                    t.slot_threshold);
      return buf;
    case dtree::SplitTest::Kind::Subset: {
      std::string s = "attr " + std::to_string(t.attr) + " in {";
      bool first = true;
      for (std::size_t v = 0; v < t.in_left.size(); ++v) {
        if (t.in_left[v] == 0) continue;
        if (!first) s += ",";
        s += std::to_string(v);
        first = false;
      }
      return s + "}";
    }
    case dtree::SplitTest::Kind::Multiway:
      std::snprintf(buf, sizeof buf, "attr %d multiway x%d", t.attr,
                    t.num_children);
      return buf;
  }
  return "?";
}

bool specs_equal(const dtree::NodeSpec& a, const dtree::NodeSpec& b) {
  return a.parent == b.parent && a.first_child == b.first_child &&
         a.depth == b.depth && a.majority == b.majority &&
         a.counts == b.counts && a.test.kind == b.test.kind &&
         a.test.attr == b.test.attr && a.test.threshold == b.test.threshold &&
         a.test.slot_threshold == b.test.slot_threshold &&
         a.test.in_left == b.test.in_left &&
         a.test.num_children == b.test.num_children;
}

void warn_digest(const ModelDoc& m, std::ostream& os) {
  if (m.digest_match()) return;
  out(os,
      "WARNING: %s: recorded digest %.12s... does not match the tree "
      "(recomputed %.12s... wins)\n",
      m.name.c_str(), m.recorded_digest.c_str(), m.computed_digest.c_str());
}

/// Hold-out sample described by the document's meta (Null dataset columns
/// are impossible — quest_generate always yields the 9-attribute schema).
bool regen_eval_dataset(const ModelDoc& m, data::Dataset* out_ds,
                        std::string* why) {
  const JsonValue& wl = m.meta.get("workload");
  const JsonValue& ev = m.meta.get("eval");
  if (!ev.is_object() || ev.get("rows").as_int() <= 0) {
    *why = "no held-out evaluation recorded in meta";
    return false;
  }
  if (wl.get("generator").as_string() != "quest") {
    *why = "unknown workload generator \"" +
           wl.get("generator").as_string() + "\"";
    return false;
  }
  data::Dataset ds = data::quest_generate(
      static_cast<std::size_t>(ev.get("rows").as_int()),
      {.function = static_cast<int>(wl.get("function").as_int(2)),
       .seed = static_cast<std::uint64_t>(ev.get("seed").as_int())});
  if (wl.get("paper_bins").as_bool()) {
    ds = data::discretize_uniform(ds, data::quest_paper_bins());
  }
  *out_ds = std::move(ds);
  return true;
}

}  // namespace

AuditMargin audit_margin(const ModelDoc& m, int node) {
  AuditMargin r;
  for (const JsonValue& e : m.audit.array()) {
    if (e.get("node").as_int(-1) != node) continue;
    r.found = true;
    r.gain = e.get("gain").as_double();
    r.runner_up_gain = e.get("runner_up_gain").as_double();
    r.runner_up_attr = static_cast<int>(e.get("runner_up_attr").as_int(-1));
    break;
  }
  return r;
}

std::string parse_model(const JsonValue& root, ModelDoc* out) {
  if (root.get("schema").as_string() != "pdt-model-v1") {
    return "not a pdt-model-v1 document (schema \"" +
           root.get("schema").as_string() + "\")";
  }
  std::string err = dtree::nodes_from_json(root.get("nodes"), &out->nodes);
  if (err.empty()) err = dtree::tree_from_nodes(out->nodes, &out->tree);
  if (!err.empty()) return err;
  out->recorded_digest = root.get("digest").as_string();
  out->computed_digest = dtree::model_digest(out->tree);
  out->meta = root.get("meta");
  out->audit = root.get("audit");
  return {};
}

int run_inspect(const ModelDoc& m, std::ostream& os) {
  warn_digest(m, os);
  const JsonValue& wl = m.meta.get("workload");
  out(os, "model    %s\n", m.name.c_str());
  out(os, "digest   %s\n", m.computed_digest.c_str());
  out(os, "grown by %s/%s (%s, P=%lld) on quest f%lld seed %lld, N=%lld%s\n",
      m.meta.get("harness").as_string().c_str(),
      m.meta.get("tag").as_string().c_str(),
      m.meta.get("formulation").as_string().c_str(),
      static_cast<long long>(m.meta.get("procs").as_int(1)),
      static_cast<long long>(wl.get("function").as_int()),
      static_cast<long long>(wl.get("seed").as_int()),
      static_cast<long long>(wl.get("rows").as_int()),
      wl.get("paper_bins").as_bool() ? ", paper bins" : "");

  const int n = m.tree.num_nodes();
  out(os, "shape    %d nodes, %d leaves, depth %d\n", n, m.tree.num_leaves(),
      m.tree.depth());

  // Per-level breakdown — the frontier profile the parallel formulations
  // schedule over.
  std::vector<int> at_level;
  std::vector<int> leaves_at;
  for (int id = 0; id < n; ++id) {
    const dtree::Node& nd = m.tree.node(id);
    if (nd.depth >= static_cast<int>(at_level.size())) {
      at_level.resize(static_cast<std::size_t>(nd.depth) + 1, 0);
      leaves_at.resize(static_cast<std::size_t>(nd.depth) + 1, 0);
    }
    ++at_level[static_cast<std::size_t>(nd.depth)];
    if (nd.is_leaf()) ++leaves_at[static_cast<std::size_t>(nd.depth)];
  }
  out(os, "\n%6s %8s %8s %8s\n", "level", "nodes", "leaves", "splits");
  for (std::size_t d = 0; d < at_level.size(); ++d) {
    out(os, "%6zu %8d %8d %8d\n", d, at_level[d], leaves_at[d],
        at_level[d] - leaves_at[d]);
  }

  // Leaf purity: fraction of a leaf's records in its majority class.
  std::vector<int> purity_bucket(10, 0);
  std::int64_t leaf_records = 0;
  std::int64_t pure_records = 0;
  for (int id = 0; id < n; ++id) {
    const dtree::Node& nd = m.tree.node(id);
    if (!nd.is_leaf()) continue;
    const std::int64_t total = nd.num_records();
    if (total == 0) continue;  // Hunt Case-3 leaf: no records routed
    const std::int64_t maj =
        nd.class_counts[static_cast<std::size_t>(nd.majority)];
    leaf_records += total;
    pure_records += maj;
    const double purity =
        static_cast<double>(maj) / static_cast<double>(total);
    const int b = std::min(9, static_cast<int>(purity * 10.0));
    ++purity_bucket[static_cast<std::size_t>(b)];
  }
  out(os, "\nleaf purity (training records): %.4f overall\n",
      leaf_records == 0 ? 0.0
                        : static_cast<double>(pure_records) /
                              static_cast<double>(leaf_records));
  for (std::size_t b = 0; b < purity_bucket.size(); ++b) {
    if (purity_bucket[b] == 0) continue;
    out(os, "  [%3.0f%%,%3.0f%%) %6d leaves\n", 10.0 * b, 10.0 * (b + 1),
        purity_bucket[b]);
  }

  // Audit: how contested were the decisions?
  if (m.audit.is_array() && m.audit.size() > 0) {
    int tight_node = -1;
    double tight_margin = 0.0;
    int contested = 0;
    for (const JsonValue& e : m.audit.array()) {
      if (e.get("runner_up_attr").as_int(-1) < 0) continue;
      ++contested;
      const double margin =
          e.get("gain").as_double() - e.get("runner_up_gain").as_double();
      if (tight_node < 0 || margin < tight_margin) {
        tight_margin = margin;
        tight_node = static_cast<int>(e.get("node").as_int());
      }
    }
    out(os, "\naudit    %zu decisions, %d contested by a second attribute\n",
        m.audit.size(), contested);
    if (tight_node >= 0) {
      out(os, "         tightest margin %.3g at node %d (%s)\n", tight_margin,
          tight_node, describe_test(m.tree.node(tight_node).test).c_str());
    }
  } else {
    out(os, "\naudit    none recorded (run with split audit enabled)\n");
  }
  return kExitOk;
}

int run_diff(const ModelDoc& a, const ModelDoc& b, std::ostream& os) {
  warn_digest(a, os);
  warn_digest(b, os);
  if (a.computed_digest == b.computed_digest) {
    out(os, "identical: %d nodes, digest %s\n", a.tree.num_nodes(),
        a.computed_digest.c_str());
    return kExitOk;
  }
  out(os, "digest %s  %s\n", a.computed_digest.c_str(), a.name.c_str());
  out(os, "digest %s  %s\n", b.computed_digest.c_str(), b.name.c_str());

  const std::size_t common = std::min(a.nodes.size(), b.nodes.size());
  std::size_t first = common;
  for (std::size_t id = 0; id < common; ++id) {
    if (!specs_equal(a.nodes[id], b.nodes[id])) {
      first = id;
      break;
    }
  }
  if (first == common) {
    out(os,
        "first %zu canonical nodes agree; sizes differ (%zu vs %zu nodes)\n",
        common, a.nodes.size(), b.nodes.size());
    return kExitFail;
  }

  const dtree::NodeSpec& na = a.nodes[first];
  const dtree::NodeSpec& nb = b.nodes[first];
  out(os, "first divergent node: canonical id %zu (level %d)\n", first,
      na.depth);
  for (const auto& [doc, spec] : {std::pair<const ModelDoc&,
                                            const dtree::NodeSpec&>{a, na},
                                  {b, nb}}) {
    out(os, "  %-40s %s", describe_test(spec.test).c_str(),
        doc.name.c_str());
    const AuditMargin am = audit_margin(doc, static_cast<int>(first));
    if (am.found && am.runner_up_attr >= 0) {
      out(os, "  (gain %.6g, margin %.3g over attr %d)",
          am.gain, am.gain - am.runner_up_gain, am.runner_up_attr);
    }
    out(os, "\n");
  }
  return kExitFail;
}

int run_eval(const ModelDoc& m, std::ostream& os) {
  warn_digest(m, os);
  data::Dataset ds;
  std::string why;
  if (!regen_eval_dataset(m, &ds, &why)) {
    out(os, "pdt tree: %s: cannot evaluate: %s\n", m.name.c_str(),
        why.c_str());
    return kExitFail;
  }
  const dtree::Evaluation ev = dtree::evaluate(m.tree, ds);
  out(os, "held-out: %zu rows (quest seed %lld)\n", ds.num_rows(),
      static_cast<long long>(m.meta.get("eval").get("seed").as_int()));
  out(os, "accuracy: %.6f (%lld / %lld correct)\n", ev.accuracy(),
      static_cast<long long>(ev.correct),
      static_cast<long long>(ev.total));

  out(os, "\nconfusion (rows = actual, cols = predicted):\n%10s", "");
  for (int c = 0; c < ev.num_classes; ++c) out(os, " %8d", c);
  out(os, "\n");
  for (int r = 0; r < ev.num_classes; ++r) {
    out(os, "%10d", r);
    for (int c = 0; c < ev.num_classes; ++c) {
      out(os, " %8lld",
          static_cast<long long>(
              ev.confusion[static_cast<std::size_t>(r * ev.num_classes + c)]));
    }
    out(os, "\n");
  }

  // Per-leaf hit counts over the held-out sample: which parts of the
  // tree actually carry the prediction load.
  std::vector<std::int64_t> hits(static_cast<std::size_t>(m.tree.num_nodes()),
                                 0);
  for (std::size_t row = 0; row < ds.num_rows(); ++row) {
    int id = m.tree.root();
    while (!m.tree.node(id).is_leaf()) {
      id = m.tree.node(id).first_child + m.tree.route(id, ds, row);
    }
    ++hits[static_cast<std::size_t>(id)];
  }
  std::vector<std::pair<std::int64_t, int>> hot;
  int leaves_hit = 0;
  for (int id = 0; id < m.tree.num_nodes(); ++id) {
    if (!m.tree.node(id).is_leaf()) continue;
    if (hits[static_cast<std::size_t>(id)] > 0) ++leaves_hit;
    hot.emplace_back(hits[static_cast<std::size_t>(id)], id);
  }
  std::sort(hot.begin(), hot.end(), [](const auto& x, const auto& y) {
    return x.first != y.first ? x.first > y.first : x.second < y.second;
  });
  out(os, "\nleaf coverage: %d / %d leaves hit\n", leaves_hit,
      m.tree.num_leaves());
  out(os, "%8s %6s %6s %6s\n", "leaf", "level", "class", "hits");
  for (std::size_t i = 0; i < hot.size() && i < 5; ++i) {
    const dtree::Node& nd = m.tree.node(hot[i].second);
    out(os, "%8d %6d %6d %6lld\n", hot[i].second, nd.depth, nd.majority,
        static_cast<long long>(hot[i].first));
  }

  const JsonValue& recorded = m.meta.get("eval").get("accuracy");
  if (recorded.is_number() && recorded.as_double() != ev.accuracy()) {
    out(os,
        "FAIL: recorded accuracy %.17g does not reproduce (measured "
        "%.17g)\n",
        recorded.as_double(), ev.accuracy());
    return kExitFail;
  }
  if (recorded.is_number()) {
    out(os, "recorded accuracy reproduced exactly\n");
  }
  return kExitOk;
}

}  // namespace pdt::tools
