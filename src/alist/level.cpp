#include "alist/level.hpp"

#include <algorithm>

#include "dtree/split_eval.hpp"

namespace pdt::alist {

namespace {

/// node id -> frontier index (-1 for non-frontier nodes).
std::vector<int> slot_map(const dtree::Tree& tree,
                          const std::vector<int>& frontier) {
  std::vector<int> slot(static_cast<std::size_t>(tree.num_nodes()), -1);
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    slot[static_cast<std::size_t>(frontier[i])] = static_cast<int>(i);
  }
  return slot;
}

/// Child index for an attribute-list entry under a chosen test.
int child_of_value(const dtree::SplitTest& test, double value) {
  switch (test.kind) {
    case dtree::SplitTest::Kind::Threshold:
      return value < test.threshold ? 0 : 1;
    case dtree::SplitTest::Kind::OrderedSlot:
      return static_cast<int>(value) <= test.slot_threshold ? 0 : 1;
    case dtree::SplitTest::Kind::Subset:
      return test.in_left[static_cast<std::size_t>(value)] ? 0 : 1;
    case dtree::SplitTest::Kind::Multiway:
      return static_cast<int>(value);
    case dtree::SplitTest::Kind::Leaf:
      return 0;
  }
  return 0;
}

}  // namespace

LevelDecisions decide_level(const AttributeLists& lists,
                            const dtree::Tree& tree,
                            const ClassList& class_list,
                            const std::vector<int>& frontier,
                            const dtree::GrowOptions& opt) {
  const data::Schema& schema = lists.dataset().schema();
  const int c_num = schema.num_classes();
  const std::size_t nf = frontier.size();
  const std::vector<int> slot = slot_map(tree, frontier);

  // Trackers reference the tree nodes' class-count vectors, which are
  // stable for the duration of the level.
  std::vector<dtree::BestTracker> trackers;
  trackers.reserve(nf);
  std::vector<bool> active(nf, true);
  for (std::size_t i = 0; i < nf; ++i) {
    const dtree::Node& node = tree.node(frontier[i]);
    trackers.emplace_back(node.class_counts, opt);
    if (node.depth >= opt.max_depth) active[i] = false;
  }

  LevelDecisions out;
  for (int a = 0; a < lists.num_attributes(); ++a) {
    const auto& list = lists.list(a);
    out.entries_scanned += static_cast<std::int64_t>(list.size());
    const data::Attribute& attr = schema.attr(a);
    if (attr.is_continuous()) {
      // One pass over the sorted list; per-node running left counts give
      // every distinct-value boundary as a candidate, exactly as C4.5
      // would see them after its per-node sort.
      std::vector<std::vector<std::int64_t>> lefts(
          nf, std::vector<std::int64_t>(static_cast<std::size_t>(c_num), 0));
      std::vector<double> prev(nf, 0.0);
      std::vector<bool> seen(nf, false);
      for (const Entry& e : list) {
        const int node = class_list.node_of(e.rid);
        if (node < 0 || node >= tree.num_nodes()) continue;
        const int i = slot[static_cast<std::size_t>(node)];
        if (i < 0 || !active[static_cast<std::size_t>(i)]) continue;
        auto& left = lefts[static_cast<std::size_t>(i)];
        if (seen[static_cast<std::size_t>(i)] &&
            prev[static_cast<std::size_t>(i)] != e.value) {
          trackers[static_cast<std::size_t>(i)].offer_binary(left, a, [&] {
            dtree::SplitTest test;
            test.kind = dtree::SplitTest::Kind::Threshold;
            test.threshold =
                0.5 * (prev[static_cast<std::size_t>(i)] + e.value);
            return test;
          });
        }
        ++left[static_cast<std::size_t>(e.label)];
        prev[static_cast<std::size_t>(i)] = e.value;
        seen[static_cast<std::size_t>(i)] = true;
      }
      continue;
    }

    // Categorical: per-node (cardinality x classes) tables in one pass.
    const int slots = attr.cardinality;
    std::vector<std::vector<std::int64_t>> tables(
        nf, std::vector<std::int64_t>(
                static_cast<std::size_t>(slots * c_num), 0));
    for (const Entry& e : list) {
      const int node = class_list.node_of(e.rid);
      if (node < 0 || node >= tree.num_nodes()) continue;
      const int i = slot[static_cast<std::size_t>(node)];
      if (i < 0 || !active[static_cast<std::size_t>(i)]) continue;
      ++tables[static_cast<std::size_t>(i)][static_cast<std::size_t>(
          static_cast<int>(e.value) * c_num + e.label)];
    }
    for (std::size_t i = 0; i < nf; ++i) {
      if (active[i]) trackers[i].offer_categorical(a, attr.ordered, tables[i]);
    }
  }

  out.decisions.reserve(nf);
  for (std::size_t i = 0; i < nf; ++i) {
    out.decisions.push_back(active[i] ? trackers[i].take()
                                      : dtree::SplitDecision{});
  }
  return out;
}

std::vector<int> apply_level(const AttributeLists& lists, dtree::Tree& tree,
                             ClassList& class_list,
                             const std::vector<int>& frontier,
                             const LevelDecisions& level,
                             std::int64_t* class_list_updates) {
  const std::vector<int> slot = slot_map(tree, frontier);
  std::vector<int> first_child(frontier.size(), -1);
  std::vector<int> next;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const dtree::SplitDecision& d = level.decisions[i];
    if (d.test.is_leaf()) continue;
    first_child[i] = tree.expand(frontier[i], d);
    for (int k = 0; k < d.test.num_children; ++k) {
      if (tree.node(first_child[i] + k).num_records() > 0) {
        next.push_back(first_child[i] + k);
      }
    }
  }

  // The splitting pass: each winning attribute's list re-routes its own
  // node's records (SPRINT records these rid -> child pairs in the hash
  // table other lists probe; with the class-list indirection the update
  // itself is the probe).
  std::int64_t updates = 0;
  for (int a = 0; a < lists.num_attributes(); ++a) {
    for (const Entry& e : lists.list(a)) {
      const int node = class_list.node_of(e.rid);
      if (node < 0 || node >= static_cast<int>(slot.size())) continue;
      const int i = slot[static_cast<std::size_t>(node)];
      if (i < 0 || first_child[static_cast<std::size_t>(i)] < 0) continue;
      const dtree::SplitTest& test =
          level.decisions[static_cast<std::size_t>(i)].test;
      if (test.attr != a) continue;
      class_list.assign(e.rid, first_child[static_cast<std::size_t>(i)] +
                                   child_of_value(test, e.value));
      ++updates;
    }
  }
  if (class_list_updates != nullptr) *class_list_updates += updates;
  return next;
}

}  // namespace pdt::alist
