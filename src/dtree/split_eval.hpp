// Shared split-candidate evaluation.
//
// Every builder in this repository — the slot/histogram growers, the
// C4.5-style exact grower, and the SLIQ/SPRINT attribute-list growers —
// funnels its candidates through BestTracker, so the deterministic
// tie-breaking (higher gain, then lower attribute, then earlier candidate)
// is defined in exactly one place and "different algorithms grow the same
// tree" is a meaningful, testable statement.
//
// A split is a pure function of the node's class counts (Section 3.1
// step 4), so a candidate is offered as counts: its child-0 class counts,
// its attribute, and a callable that builds its SplitTest. The tracker
// scores the counts and calls the builder only when the candidate takes
// the lead, so a scan over thousands of boundaries or subset prefixes
// builds a handful of tests. Categorical attributes have one entry point,
// offer_categorical, which holds the ordered/nominal/policy dispatch.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "dtree/split.hpp"

namespace pdt::dtree {

/// Accumulates the best split seen so far. Candidates must be offered in
/// deterministic order (attributes ascending, thresholds ascending);
/// strictly-greater gain wins, so the first-seen candidate prevails on
/// ties.
class BestTracker {
 public:
  BestTracker(std::span<const std::int64_t> parent_counts,
              const GrowOptions& opt);

  /// True when the node must stay a leaf regardless of candidates
  /// (too small or pure).
  [[nodiscard]] bool forced_leaf() const { return forced_leaf_; }

  /// Offer a binary split on `attr`: `left` is the class-count vector of
  /// child 0. `make_test()` returns the candidate's SplitTest (kind,
  /// threshold or subset; attr and num_children are set by the tracker)
  /// and is called only if the candidate becomes the new best. No-op if
  /// either side would be empty.
  template <typename MakeTest>
  void offer_binary(std::span<const std::int64_t> left, int attr,
                    MakeTest&& make_test) {
    if (forced_leaf_) return;
    const std::int64_t left_n = total(left);
    if (left_n == 0 || left_n == n_) return;
    for (int c = 0; c < num_classes_; ++c) {
      scratch_both_[static_cast<std::size_t>(c)] =
          left[static_cast<std::size_t>(c)];
      scratch_both_[static_cast<std::size_t>(num_classes_ + c)] =
          parent_[static_cast<std::size_t>(c)] -
          left[static_cast<std::size_t>(c)];
    }
    const double g =
        gain(opt_->criterion, parent_, scratch_both_, num_classes_);
    note_candidate(attr, g);
    if (g > best_gain_) {
      best_gain_ = g;
      best_.gain = g;
      best_.test = make_test();
      best_.test.attr = attr;
      best_.test.num_children = 2;
      best_.child_counts = scratch_both_;
    }
  }

  /// Offer boundaries of an ordered attribute's (slots x classes) table:
  /// boundary t sends slots 0..t to child 0. `boundaries` lists the ones
  /// to offer, ascending, each in [0, slots - 2]. `kind` is Threshold or
  /// OrderedSlot; the test's real-valued cut is `threshold_of(t)`.
  template <typename Boundaries, typename ThresholdFn>
  void offer_ordered_table(int attr, std::span<const std::int64_t> table,
                           SplitTest::Kind kind, const Boundaries& boundaries,
                           ThresholdFn threshold_of) {
    if (forced_leaf_) return;
    std::fill(left_.begin(), left_.end(), 0);
    int next = 0;  // first slot not yet summed into left_
    for (const int t : boundaries) {
      for (; next <= t; ++next) {
        for (int c = 0; c < num_classes_; ++c) {
          left_[static_cast<std::size_t>(c)] +=
              table[static_cast<std::size_t>(next * num_classes_ + c)];
        }
      }
      offer_binary(left_, attr, [&] {
        SplitTest test;
        test.kind = kind;
        test.threshold = threshold_of(t);
        test.slot_threshold = t;
        return test;
      });
    }
  }

  /// Offer a categorical attribute's (slots x classes) table: an ordered
  /// attribute offers every slot boundary as an OrderedSlot candidate; a
  /// nominal one offers a Subset prefix scan in class-0-probability order
  /// (Binary policy) or one Multiway candidate (Multiway policy).
  void offer_categorical(int attr, bool ordered,
                         std::span<const std::int64_t> table);

  /// The winning decision (Leaf if nothing beat min_gain).
  [[nodiscard]] SplitDecision take();

 private:
  void offer_multiway(int attr, std::span<const std::int64_t> table);
  void offer_subsets(int attr, std::span<const std::int64_t> table);

  /// Track the top-2 gains on *distinct* attributes over every valid
  /// candidate (no min_gain floor): when a winner exists it is always the
  /// overall best, so top2 is the best rival attribute — the runner-up
  /// reported in SplitDecision. Strictly-greater updates keep the
  /// first-seen-wins determinism of the main tracker.
  void note_candidate(int attr, double g);

  std::span<const std::int64_t> parent_;
  const GrowOptions* opt_;
  int num_classes_;
  std::int64_t n_;
  bool forced_leaf_ = false;
  double best_gain_;
  SplitDecision best_;
  std::vector<std::int64_t> scratch_both_;
  std::vector<std::int64_t> left_;
  double top1_gain_;
  int top1_attr_ = -1;
  double top2_gain_;
  int top2_attr_ = -1;
};

}  // namespace pdt::dtree
