#include "dtree/builder.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "dtree/histogram.hpp"
#include "dtree/split_eval.hpp"

namespace pdt::dtree {

namespace {

std::vector<data::RowId> all_rows(const data::Dataset& ds) {
  std::vector<data::RowId> rows(ds.num_rows());
  std::iota(rows.begin(), rows.end(), data::RowId{0});
  return rows;
}

}  // namespace

Tree grow_bfs(const data::Dataset& ds, const GrowOptions& opt,
              BuildStats* stats) {
  const SlotMapper mapper(ds, opt.cont_bins);
  const AttrLayout layout(ds.schema(), opt.cont_bins);

  Tree tree(class_counts_of_rows(ds, all_rows(ds)));
  tree.set_split_observer(opt.split_observer);
  struct FrontierNode {
    int id;
    std::vector<data::RowId> rows;
  };
  std::vector<FrontierNode> frontier;
  frontier.push_back({tree.root(), all_rows(ds)});

  Hist hist(static_cast<std::size_t>(layout.total()));
  BuildStats local{};
  while (!frontier.empty()) {
    ++local.levels;
    std::vector<FrontierNode> next;
    for (FrontierNode& fn : frontier) {
      if (tree.node(fn.id).depth >= opt.max_depth) continue;
      std::fill(hist.begin(), hist.end(), 0);
      accumulate(hist, layout, mapper, fn.rows);
      local.histogram_updates +=
          static_cast<std::int64_t>(fn.rows.size()) * layout.num_attributes();
      const SplitDecision d =
          choose_split(hist, layout, ds.schema(), mapper, opt);
      if (d.test.is_leaf()) continue;
      const int first = tree.expand(fn.id, d);
      if (opt.split_observer != nullptr) {
        opt.split_observer->on_feed(
            fn.id, 0, static_cast<std::int64_t>(fn.rows.size()));
      }
      ++local.nodes_expanded;
      std::vector<std::vector<data::RowId>> child_rows(
          static_cast<std::size_t>(d.test.num_children));
      mapper.for_each_slot(d.test.attr, fn.rows, [&](data::RowId row, int s) {
        child_rows[static_cast<std::size_t>(d.test.child_of_slot(s))]
            .push_back(row);
      });
      for (int k = 0; k < d.test.num_children; ++k) {
        auto& rows = child_rows[static_cast<std::size_t>(k)];
        if (!rows.empty()) {
          next.push_back({first + k, std::move(rows)});
        }
      }
    }
    frontier = std::move(next);
  }
  if (stats != nullptr) *stats = local;
  return tree;
}

namespace {

/// Best split with exact continuous thresholds, evaluated from raw rows.
SplitDecision choose_exact(const data::Dataset& ds,
                           std::span<const data::RowId> rows,
                           const GrowOptions& opt) {
  const int c_num = ds.schema().num_classes();
  const std::vector<std::int64_t> parent = class_counts_of_rows(ds, rows);
  BestTracker tracker(parent, opt);
  if (tracker.forced_leaf()) return tracker.take();

  std::vector<std::int64_t> left(static_cast<std::size_t>(c_num));
  for (int a = 0; a < ds.num_attributes(); ++a) {
    const data::Attribute& attr = ds.schema().attr(a);
    if (attr.is_continuous()) {
      // C4.5: sort this node's values, scan distinct cuts.
      std::vector<std::pair<double, int>> vals;
      vals.reserve(rows.size());
      for (const data::RowId row : rows) {
        vals.emplace_back(ds.cont(a, row), ds.label(row));
      }
      std::sort(vals.begin(), vals.end());
      std::fill(left.begin(), left.end(), 0);
      for (std::size_t i = 0; i + 1 < vals.size(); ++i) {
        ++left[static_cast<std::size_t>(vals[i].second)];
        if (vals[i].first == vals[i + 1].first) continue;
        SplitTest test;
        test.kind = SplitTest::Kind::Threshold;
        test.attr = a;
        test.threshold = 0.5 * (vals[i].first + vals[i + 1].first);
        tracker.offer_binary(left, std::move(test));
      }
      continue;
    }

    const std::vector<std::int64_t> table =
        categorical_distribution(ds, rows, a);
    const int slots = attr.cardinality;
    if (attr.ordered) {
      tracker.offer_ordered_table(a, table, slots,
                                  SplitTest::Kind::OrderedSlot,
                                  [](int t) { return static_cast<double>(t); });
      continue;
    }
    tracker.offer_nominal(a, table, slots);
  }
  return tracker.take();
}

void grow_exact_rec(Tree& tree, int id, const data::Dataset& ds,
                    std::vector<data::RowId> rows, const GrowOptions& opt,
                    BuildStats& stats) {
  if (tree.node(id).depth >= opt.max_depth) return;
  const SplitDecision d = choose_exact(ds, rows, opt);
  if (d.test.is_leaf()) return;
  const int first = tree.expand(id, d);
  if (opt.split_observer != nullptr) {
    opt.split_observer->on_feed(id, 0,
                                static_cast<std::int64_t>(rows.size()));
  }
  ++stats.nodes_expanded;
  stats.levels = std::max(stats.levels, tree.node(first).depth);
  std::vector<std::vector<data::RowId>> child_rows(
      static_cast<std::size_t>(d.test.num_children));
  for (const data::RowId row : rows) {
    child_rows[static_cast<std::size_t>(tree.route(id, ds, row))].push_back(
        row);
  }
  rows.clear();
  rows.shrink_to_fit();
  for (int k = 0; k < d.test.num_children; ++k) {
    auto& cr = child_rows[static_cast<std::size_t>(k)];
    if (!cr.empty()) {
      grow_exact_rec(tree, first + k, ds, std::move(cr), opt, stats);
    }
  }
}

}  // namespace

Tree grow_dfs_exact(const data::Dataset& ds, const GrowOptions& opt,
                    BuildStats* stats) {
  Tree tree(class_counts_of_rows(ds, all_rows(ds)));
  tree.set_split_observer(opt.split_observer);
  BuildStats local{};
  grow_exact_rec(tree, tree.root(), ds, all_rows(ds), opt, local);
  if (stats != nullptr) *stats = local;
  return tree;
}

}  // namespace pdt::dtree
