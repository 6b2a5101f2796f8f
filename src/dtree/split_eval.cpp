#include "dtree/split_eval.hpp"

#include <algorithm>
#include <limits>
#include <ranges>

namespace pdt::dtree {

BestTracker::BestTracker(std::span<const std::int64_t> parent_counts,
                         const GrowOptions& opt)
    : parent_(parent_counts),
      opt_(&opt),
      num_classes_(static_cast<int>(parent_counts.size())),
      n_(total(parent_counts)),
      best_gain_(opt.min_gain),
      scratch_both_(static_cast<std::size_t>(2 * num_classes_)),
      left_(static_cast<std::size_t>(num_classes_)),
      top1_gain_(-std::numeric_limits<double>::infinity()),
      top2_gain_(-std::numeric_limits<double>::infinity()) {
  int nonzero = 0;
  for (const auto c : parent_) nonzero += c > 0 ? 1 : 0;
  forced_leaf_ = n_ < opt.min_records || nonzero <= 1;
}

void BestTracker::offer_categorical(int attr, bool ordered,
                                    std::span<const std::int64_t> table) {
  if (forced_leaf_) return;
  if (ordered) {
    const int slots = static_cast<int>(table.size()) / num_classes_;
    offer_ordered_table(attr, table, SplitTest::Kind::OrderedSlot,
                        std::views::iota(0, slots - 1),
                        [](int t) { return static_cast<double>(t); });
  } else if (opt_->policy == SplitPolicy::Multiway) {
    offer_multiway(attr, table);
  } else {
    offer_subsets(attr, table);
  }
}

void BestTracker::offer_multiway(int attr,
                                 std::span<const std::int64_t> table) {
  const auto c_num = static_cast<std::size_t>(num_classes_);
  int nonempty = 0;
  for (std::size_t s = 0; s < table.size() / c_num; ++s) {
    nonempty += total(table.subspan(s * c_num, c_num)) > 0 ? 1 : 0;
  }
  if (nonempty < 2) return;
  const double g = gain(opt_->criterion, parent_, table, num_classes_);
  note_candidate(attr, g);
  if (g > best_gain_) {
    best_gain_ = g;
    best_.gain = g;
    best_.test = SplitTest{};
    best_.test.kind = SplitTest::Kind::Multiway;
    best_.test.attr = attr;
    best_.test.num_children = static_cast<int>(table.size() / c_num);
    best_.child_counts.assign(table.begin(), table.end());
  }
}

void BestTracker::offer_subsets(int attr,
                                std::span<const std::int64_t> table) {
  // Binary subset split: order values by class-0 probability (optimal for
  // two classes with Gini [Breiman et al. 84]; a strong heuristic
  // otherwise) and scan prefixes.
  const auto c_num = static_cast<std::size_t>(num_classes_);
  const std::size_t slots = table.size() / c_num;
  std::vector<std::int64_t> slot_n(slots);
  std::vector<int> order;
  for (std::size_t s = 0; s < slots; ++s) {
    slot_n[s] = total(table.subspan(s * c_num, c_num));
    if (slot_n[s] > 0) order.push_back(static_cast<int>(s));
  }
  if (order.size() < 2) return;
  const auto p0 = [&](int s) {
    const auto i = static_cast<std::size_t>(s);
    return static_cast<double>(table[i * c_num]) /
           static_cast<double>(slot_n[i]);
  };
  std::sort(order.begin(), order.end(), [&](int x, int y) {
    const double px = p0(x);
    const double py = p0(y);
    if (px != py) return px > py;
    return x < y;
  });

  std::fill(left_.begin(), left_.end(), 0);
  for (std::size_t k = 0; k + 1 < order.size(); ++k) {
    const auto s = static_cast<std::size_t>(order[k]);
    for (std::size_t c = 0; c < c_num; ++c) left_[c] += table[s * c_num + c];
    offer_binary(left_, attr, [&] {
      // Values unseen at this node route to the heavier child.
      const std::int64_t left_n = total(left_);
      const std::uint8_t unseen = left_n >= n_ - left_n ? 1 : 0;
      SplitTest test;
      test.kind = SplitTest::Kind::Subset;
      test.in_left.resize(slots);
      for (std::size_t v = 0; v < slots; ++v) {
        if (slot_n[v] == 0) test.in_left[v] = unseen;
      }
      for (std::size_t j = 0; j <= k; ++j) {
        test.in_left[static_cast<std::size_t>(order[j])] = 1;
      }
      return test;
    });
  }
}

void BestTracker::note_candidate(int attr, double g) {
  if (g > top1_gain_) {
    if (attr != top1_attr_) {
      top2_gain_ = top1_gain_;
      top2_attr_ = top1_attr_;
    }
    top1_gain_ = g;
    top1_attr_ = attr;
  } else if (attr != top1_attr_ && g > top2_gain_) {
    top2_gain_ = g;
    top2_attr_ = attr;
  }
}

SplitDecision BestTracker::take() {
  // A winner (if any) is the overall max, i.e. top1 — so top2 is the
  // best candidate on a different attribute. Leaf decisions keep the
  // defaults (0.0 / -1): no decision was made, so no margin exists.
  if (!best_.test.is_leaf() && top2_attr_ >= 0) {
    best_.runner_up_gain = top2_gain_;
    best_.runner_up_attr = top2_attr_;
  }
  return std::move(best_);
}

}  // namespace pdt::dtree
