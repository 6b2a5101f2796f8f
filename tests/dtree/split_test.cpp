#include "dtree/split.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <random>
#include <ranges>

#include "data/golf.hpp"
#include "data/quest.hpp"
#include "dtree/histogram.hpp"
#include "dtree/split_eval.hpp"

namespace pdt::dtree {
namespace {

struct Fixture {
  data::Dataset ds;
  SlotMapper mapper;
  AttrLayout layout;
  Hist hist;

  explicit Fixture(data::Dataset d, int cont_bins = 8)
      : ds(std::move(d)),
        mapper(ds, cont_bins),
        layout(ds.schema(), cont_bins),
        hist(static_cast<std::size_t>(layout.total()), 0) {
    std::vector<data::RowId> rows(ds.num_rows());
    std::iota(rows.begin(), rows.end(), data::RowId{0});
    accumulate(hist, layout, mapper, rows);
  }
};

TEST(ChooseSplit, GolfRootPicksOutlookUnderMultiway) {
  Fixture f(data::golf_dataset());
  GrowOptions opt;
  opt.policy = SplitPolicy::Multiway;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  ASSERT_FALSE(d.test.is_leaf());
  EXPECT_EQ(d.test.attr, data::golf_attr::kOutlook);
  EXPECT_EQ(d.test.kind, SplitTest::Kind::Multiway);
  EXPECT_EQ(d.test.num_children, 3);
  EXPECT_NEAR(d.gain, 0.24675, 1e-4);
  EXPECT_EQ(d.child_counts, (std::vector<std::int64_t>{2, 3, 4, 0, 3, 2}));
}

TEST(ChooseSplit, PureNodeBecomesLeaf) {
  Fixture f(data::golf_dataset());
  // Zero out the "Don't Play" class everywhere.
  for (int a = 0; a < f.layout.num_attributes(); ++a) {
    for (int s = 0; s < f.layout.slots(a); ++s) {
      f.hist[static_cast<std::size_t>(f.layout.index(a, s, 1))] = 0;
    }
  }
  GrowOptions opt;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  EXPECT_TRUE(d.test.is_leaf());
}

TEST(ChooseSplit, MinRecordsForcesLeaf) {
  Fixture f(data::golf_dataset());
  GrowOptions opt;
  opt.min_records = 100;  // more than the 14 golf records
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  EXPECT_TRUE(d.test.is_leaf());
}

TEST(ChooseSplit, EmptyHistogramIsLeaf) {
  Fixture f(data::golf_dataset());
  std::fill(f.hist.begin(), f.hist.end(), 0);
  GrowOptions opt;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  EXPECT_TRUE(d.test.is_leaf());
}

TEST(ChooseSplit, BinaryPolicyUsesSubsetForNominal) {
  Fixture f(data::golf_dataset());
  GrowOptions opt;
  opt.policy = SplitPolicy::Binary;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  ASSERT_FALSE(d.test.is_leaf());
  EXPECT_EQ(d.test.num_children, 2);
  // The winning test may be a Subset (Outlook) or Threshold (Humidity);
  // on golf the overcast-vs-rest Outlook subset wins.
  EXPECT_EQ(d.test.kind, SplitTest::Kind::Subset);
  EXPECT_EQ(d.test.attr, data::golf_attr::kOutlook);
  // Child counts must partition the parent's 9/5.
  ASSERT_EQ(d.child_counts.size(), 4u);
  EXPECT_EQ(d.child_counts[0] + d.child_counts[2], 9);
  EXPECT_EQ(d.child_counts[1] + d.child_counts[3], 5);
}

TEST(ChooseSplit, ThresholdSplitOnOrderedSyntheticAttr) {
  // A dataset with one continuous attribute perfectly separating classes.
  data::Schema s({data::Attribute::continuous("x")}, 2);
  data::Dataset ds(s, 20);
  for (int i = 0; i < 20; ++i) {
    const std::size_t r = ds.add_row(i < 10 ? 0 : 1);
    ds.set_cont(0, r, static_cast<double>(i));
  }
  Fixture f(std::move(ds), 10);
  GrowOptions opt;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  ASSERT_FALSE(d.test.is_leaf());
  EXPECT_EQ(d.test.kind, SplitTest::Kind::Threshold);
  EXPECT_EQ(d.test.attr, 0);
  EXPECT_NEAR(d.gain, 1.0, 1e-9) << "perfect separation: full bit of gain";
  EXPECT_EQ(d.child_counts, (std::vector<std::int64_t>{10, 0, 0, 10}));
  // Every value below the threshold is class 0.
  EXPECT_GT(d.test.threshold, 9.0);
  EXPECT_LT(d.test.threshold, 10.0 + 1e-9);
}

TEST(ChooseSplit, OrderedCategoricalUsesOrderedSlotKind) {
  data::Schema s({data::Attribute::categorical("bin", 6, /*ordered=*/true)},
                 2);
  data::Dataset ds(s, 24);
  for (int i = 0; i < 24; ++i) {
    const std::size_t r = ds.add_row(i % 6 < 3 ? 0 : 1);
    ds.set_cat(0, r, i % 6);
  }
  Fixture f(std::move(ds));
  GrowOptions opt;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  ASSERT_FALSE(d.test.is_leaf());
  EXPECT_EQ(d.test.kind, SplitTest::Kind::OrderedSlot);
  EXPECT_EQ(d.test.slot_threshold, 2);
  EXPECT_NEAR(d.gain, 1.0, 1e-9);
}

TEST(ChooseSplit, GiniAndEntropyBothFindThePerfectSplit) {
  data::Schema s({data::Attribute::categorical("v", 4)}, 2);
  data::Dataset ds(s, 40);
  for (int i = 0; i < 40; ++i) {
    const std::size_t r = ds.add_row(i % 4 < 2 ? 0 : 1);
    ds.set_cat(0, r, i % 4);
  }
  Fixture f(std::move(ds));
  for (const Criterion crit : {Criterion::Entropy, Criterion::Gini}) {
    GrowOptions opt;
    opt.criterion = crit;
    const SplitDecision d =
        choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
    ASSERT_FALSE(d.test.is_leaf());
    EXPECT_EQ(d.test.kind, SplitTest::Kind::Subset);
    const std::int64_t left0 = d.child_counts[0];
    const std::int64_t left1 = d.child_counts[1];
    EXPECT_TRUE((left0 == 20 && left1 == 0) || (left0 == 0 && left1 == 20));
  }
}

TEST(ChooseSplit, ChildOfSlotRouting) {
  SplitTest t;
  t.kind = SplitTest::Kind::Threshold;
  t.slot_threshold = 3;
  EXPECT_EQ(t.child_of_slot(0), 0);
  EXPECT_EQ(t.child_of_slot(3), 0);
  EXPECT_EQ(t.child_of_slot(4), 1);

  t.kind = SplitTest::Kind::Subset;
  t.in_left = {1, 0, 1};
  EXPECT_EQ(t.child_of_slot(0), 0);
  EXPECT_EQ(t.child_of_slot(1), 1);
  EXPECT_EQ(t.child_of_slot(2), 0);

  t.kind = SplitTest::Kind::Multiway;
  EXPECT_EQ(t.child_of_slot(5), 5);
}

TEST(ChooseSplit, DeterministicTieBreakPrefersLowerAttr) {
  // Two identical attributes: the split must pick attr 0.
  data::Schema s({data::Attribute::categorical("a", 2),
                  data::Attribute::categorical("b", 2)},
                 2);
  data::Dataset ds(s, 20);
  for (int i = 0; i < 20; ++i) {
    const std::size_t r = ds.add_row(i % 2);
    ds.set_cat(0, r, i % 2);
    ds.set_cat(1, r, i % 2);
  }
  Fixture f(std::move(ds));
  GrowOptions opt;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  ASSERT_FALSE(d.test.is_leaf());
  EXPECT_EQ(d.test.attr, 0);
}

TEST(ChooseSplit, PerNodeKMeansStillFindsGoodThreshold) {
  const data::Dataset raw = data::quest_generate(4000, {.seed = 21});
  Fixture f(raw, 32);
  GrowOptions opt;
  opt.cont_split = ContSplit::KMeans;
  opt.per_node_bins = 8;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  ASSERT_FALSE(d.test.is_leaf());
  // Function 2 predicates on age and salary.
  EXPECT_TRUE(d.test.attr == data::quest_attr::kAge ||
              d.test.attr == data::quest_attr::kSalary);
  EXPECT_GT(d.gain, 0.0);
}

TEST(ChooseSplit, PerNodeQuantileStillFindsGoodThreshold) {
  const data::Dataset raw = data::quest_generate(4000, {.seed = 22});
  Fixture f(raw, 32);
  GrowOptions opt;
  opt.cont_split = ContSplit::Quantile;
  opt.per_node_bins = 8;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  ASSERT_FALSE(d.test.is_leaf());
  EXPECT_GT(d.gain, 0.0);
}

TEST(ChooseSplit, PerNodeCandidatesNeverBeatFullScan) {
  const data::Dataset raw = data::quest_generate(2000, {.seed = 23});
  Fixture f(raw, 32);
  GrowOptions scan;
  scan.cont_split = ContSplit::ThresholdScan;
  GrowOptions km;
  km.cont_split = ContSplit::KMeans;
  km.per_node_bins = 6;
  const auto ds = choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, scan);
  const auto dk = choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, km);
  EXPECT_GE(ds.gain, dk.gain - 1e-12)
      << "restricting candidates cannot increase the best gain";
}

// ---------------------------------------------------------------------------
// BestTracker against an eager reference.
//
// EagerTracker is the evaluator as it stood before candidates were offered
// as counts: it builds a full SplitTest for every candidate, copies the
// subset mask per prefix and rescans every slot to route unseen values.
// The lazy BestTracker must return the same decision, bit for bit.

class EagerTracker {
 public:
  EagerTracker(std::span<const std::int64_t> parent_counts,
               const GrowOptions& opt)
      : parent_(parent_counts),
        opt_(&opt),
        num_classes_(static_cast<int>(parent_counts.size())),
        n_(total(parent_counts)),
        best_gain_(opt.min_gain),
        scratch_both_(static_cast<std::size_t>(2 * num_classes_)),
        top1_gain_(-std::numeric_limits<double>::infinity()),
        top2_gain_(-std::numeric_limits<double>::infinity()) {
    int nonzero = 0;
    for (const auto c : parent_) nonzero += c > 0 ? 1 : 0;
    forced_leaf_ = n_ < opt.min_records || nonzero <= 1;
  }

  void offer_binary(std::span<const std::int64_t> left, SplitTest test) {
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
    note_candidate(test.attr, g);
    if (g > best_gain_) {
      best_gain_ = g;
      best_.gain = g;
      test.num_children = 2;
      best_.test = std::move(test);
      best_.child_counts = scratch_both_;
    }
  }

  void offer_multiway(int attr, std::span<const std::int64_t> table,
                      int slots) {
    if (forced_leaf_) return;
    int nonempty = 0;
    for (int s = 0; s < slots; ++s) {
      std::int64_t ns = 0;
      for (int c = 0; c < num_classes_; ++c) {
        ns += table[static_cast<std::size_t>(s * num_classes_ + c)];
      }
      nonempty += ns > 0 ? 1 : 0;
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
      best_.test.num_children = slots;
      best_.child_counts.assign(table.begin(), table.end());
    }
  }

  void offer_nominal(int attr, std::span<const std::int64_t> table,
                     int slots) {
    if (forced_leaf_) return;
    if (opt_->policy == SplitPolicy::Multiway) {
      offer_multiway(attr, table, slots);
      return;
    }
    std::vector<int> order;
    for (int s = 0; s < slots; ++s) {
      std::int64_t ns = 0;
      for (int c = 0; c < num_classes_; ++c) {
        ns += table[static_cast<std::size_t>(s * num_classes_ + c)];
      }
      if (ns > 0) order.push_back(s);
    }
    if (order.size() < 2) return;
    std::sort(order.begin(), order.end(), [&](int x, int y) {
      std::int64_t nx = 0, ny = 0;
      for (int c = 0; c < num_classes_; ++c) {
        nx += table[static_cast<std::size_t>(x * num_classes_ + c)];
        ny += table[static_cast<std::size_t>(y * num_classes_ + c)];
      }
      const double px = static_cast<double>(
                            table[static_cast<std::size_t>(x * num_classes_)]) /
                        static_cast<double>(nx);
      const double py = static_cast<double>(
                            table[static_cast<std::size_t>(y * num_classes_)]) /
                        static_cast<double>(ny);
      if (px != py) return px > py;
      return x < y;
    });

    std::vector<std::int64_t> left(static_cast<std::size_t>(num_classes_), 0);
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(slots), 0);
    for (std::size_t k = 0; k + 1 < order.size(); ++k) {
      const int s = order[k];
      mask[static_cast<std::size_t>(s)] = 1;
      for (int c = 0; c < num_classes_; ++c) {
        left[static_cast<std::size_t>(c)] +=
            table[static_cast<std::size_t>(s * num_classes_ + c)];
      }
      const std::int64_t left_n = total(left);
      std::vector<std::uint8_t> full = mask;
      const bool empty_to_left = left_n >= n_ - left_n;
      for (int s2 = 0; s2 < slots; ++s2) {
        std::int64_t ns = 0;
        for (int c = 0; c < num_classes_; ++c) {
          ns += table[static_cast<std::size_t>(s2 * num_classes_ + c)];
        }
        if (ns == 0) {
          full[static_cast<std::size_t>(s2)] = empty_to_left ? 1 : 0;
        }
      }
      SplitTest test;
      test.kind = SplitTest::Kind::Subset;
      test.attr = attr;
      test.in_left = std::move(full);
      offer_binary(left, std::move(test));
    }
  }

  /// Every boundary t with keep(t) is a candidate, as the per-node
  /// KMeans/Quantile loop of choose_split accumulated and filtered them.
  template <typename Keep, typename ThresholdFn>
  void offer_ordered_table(int attr, std::span<const std::int64_t> table,
                           int slots, SplitTest::Kind kind, Keep keep,
                           ThresholdFn threshold_of) {
    std::vector<std::int64_t> left(static_cast<std::size_t>(num_classes_), 0);
    for (int t = 0; t <= slots - 2; ++t) {
      for (int c = 0; c < num_classes_; ++c) {
        left[static_cast<std::size_t>(c)] +=
            table[static_cast<std::size_t>(t * num_classes_ + c)];
      }
      if (!keep(t)) continue;
      SplitTest test;
      test.kind = kind;
      test.attr = attr;
      test.slot_threshold = t;
      test.threshold = kind == SplitTest::Kind::Threshold
                           ? threshold_of(t)
                           : static_cast<double>(t);
      offer_binary(left, std::move(test));
    }
  }

  SplitDecision take() {
    if (!best_.test.is_leaf() && top2_attr_ >= 0) {
      best_.runner_up_gain = top2_gain_;
      best_.runner_up_attr = top2_attr_;
    }
    return std::move(best_);
  }

 private:
  void note_candidate(int attr, double g) {
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

  std::span<const std::int64_t> parent_;
  const GrowOptions* opt_;
  int num_classes_;
  std::int64_t n_;
  bool forced_leaf_ = false;
  double best_gain_;
  SplitDecision best_;
  std::vector<std::int64_t> scratch_both_;
  double top1_gain_;
  int top1_attr_ = -1;
  double top2_gain_;
  int top2_attr_ = -1;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_decision(const SplitDecision& want, const SplitDecision& got,
                          int trial) {
  SCOPED_TRACE(::testing::Message() << "trial " << trial);
  EXPECT_EQ(got.test.kind, want.test.kind);
  EXPECT_EQ(got.test.attr, want.test.attr);
  EXPECT_EQ(bits(got.test.threshold), bits(want.test.threshold));
  EXPECT_EQ(got.test.slot_threshold, want.test.slot_threshold);
  EXPECT_EQ(got.test.in_left, want.test.in_left);
  EXPECT_EQ(got.test.num_children, want.test.num_children);
  EXPECT_EQ(bits(got.gain), bits(want.gain));
  EXPECT_EQ(got.child_counts, want.child_counts);
  EXPECT_EQ(bits(got.runner_up_gain), bits(want.runner_up_gain));
  EXPECT_EQ(got.runner_up_attr, want.runner_up_attr);
}

enum class AttrKind { Continuous, Ordered, Nominal };

TEST(BestTracker, MatchesEagerReferenceOnRandomTables) {
  std::mt19937_64 rng(20260415);
  const auto uniform = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  int forced_leaves = 0;
  int ties = 0;
  int unseen_left = 0;
  int unseen_right = 0;
  int multiway = 0;
  int restricted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const int c_num = uniform(2, 8);
    GrowOptions opt;
    opt.criterion = uniform(0, 1) == 0 ? Criterion::Entropy : Criterion::Gini;
    opt.policy = uniform(0, 3) == 0 ? SplitPolicy::Multiway
                                    : SplitPolicy::Binary;
    if (uniform(0, 9) == 0) opt.min_records = uniform(2, 80);

    // Rows with a label and one slot per attribute; slots are drawn from a
    // random sub-range so nominal tables have empty slots.
    const int num_attrs = uniform(1, 5);
    std::vector<AttrKind> kinds;
    std::vector<int> slots;
    std::vector<int> copy_of;  // >= 0: a duplicate of that attribute
    for (int a = 0; a < num_attrs; ++a) {
      const int dup = a > 0 && uniform(0, 4) == 0 ? uniform(0, a - 1) : -1;
      copy_of.push_back(dup);
      if (dup >= 0) {
        kinds.push_back(kinds[static_cast<std::size_t>(dup)]);
        slots.push_back(slots[static_cast<std::size_t>(dup)]);
      } else {
        kinds.push_back(static_cast<AttrKind>(uniform(0, 2)));
        slots.push_back(uniform(1, 10));
      }
    }
    const int rows = uniform(0, 60);
    const int label_span = uniform(1, c_num);
    std::vector<std::int64_t> parent(static_cast<std::size_t>(c_num), 0);
    std::vector<std::vector<std::int64_t>> tables;
    for (int a = 0; a < num_attrs; ++a) {
      tables.emplace_back(
          static_cast<std::size_t>(slots[static_cast<std::size_t>(a)] * c_num),
          0);
    }
    for (int r = 0; r < rows; ++r) {
      const int label = uniform(0, label_span - 1);
      ++parent[static_cast<std::size_t>(label)];
      std::vector<int> row_slot;
      for (int a = 0; a < num_attrs; ++a) {
        const int dup = copy_of[static_cast<std::size_t>(a)];
        const int ns = slots[static_cast<std::size_t>(a)];
        // Skew towards low slots so high ones are often empty, and let the
        // label steer some attributes.
        int s = 0;
        if (dup >= 0) {
          s = row_slot[static_cast<std::size_t>(dup)];
        } else if (uniform(0, 2) == 0) {
          s = std::min(ns - 1, label);
        } else {
          s = uniform(0, ns - 1);
          s /= uniform(1, 2);
        }
        row_slot.push_back(s);
        ++tables[static_cast<std::size_t>(a)]
                [static_cast<std::size_t>(s * c_num + label)];
      }
    }

    BestTracker lazy(parent, opt);
    EagerTracker eager(parent, opt);
    forced_leaves += lazy.forced_leaf() ? 1 : 0;
    for (int a = 0; a < num_attrs; ++a) {
      const auto& table = tables[static_cast<std::size_t>(a)];
      const int ns = slots[static_cast<std::size_t>(a)];
      switch (kinds[static_cast<std::size_t>(a)]) {
        case AttrKind::Continuous: {
          const auto cut = [a](int t) { return 0.37 * t - a; };
          if (uniform(0, 1) == 0) {
            lazy.offer_ordered_table(a, table, SplitTest::Kind::Threshold,
                                     std::views::iota(0, ns - 1), cut);
            eager.offer_ordered_table(
                a, table, ns, SplitTest::Kind::Threshold,
                [](int) { return true; }, cut);
          } else {
            // A per-node candidate list: an ascending subset.
            std::vector<int> keep;
            for (int t = 0; t <= ns - 2; ++t) {
              if (uniform(0, 2) == 0) keep.push_back(t);
            }
            ++restricted;
            lazy.offer_ordered_table(a, table, SplitTest::Kind::Threshold,
                                     keep, cut);
            eager.offer_ordered_table(
                a, table, ns, SplitTest::Kind::Threshold,
                [&keep](int t) {
                  return std::binary_search(keep.begin(), keep.end(), t);
                },
                cut);
          }
          break;
        }
        case AttrKind::Ordered:
          lazy.offer_categorical(a, true, table);
          eager.offer_ordered_table(
              a, table, ns, SplitTest::Kind::OrderedSlot,
              [](int) { return true; },
              [](int t) { return static_cast<double>(t); });
          break;
        case AttrKind::Nominal:
          lazy.offer_categorical(a, false, table);
          eager.offer_nominal(a, table, ns);
          break;
      }
    }
    const SplitDecision want = eager.take();
    const SplitDecision got = lazy.take();
    expect_same_decision(want, got, trial);

    ties += !want.test.is_leaf() && want.runner_up_attr >= 0 &&
                    want.runner_up_gain == want.gain
                ? 1
                : 0;
    multiway += want.test.kind == SplitTest::Kind::Multiway ? 1 : 0;
    if (want.test.kind == SplitTest::Kind::Subset) {
      const auto& t = tables[static_cast<std::size_t>(want.test.attr)];
      for (int s = 0; s < static_cast<int>(want.test.in_left.size()); ++s) {
        const auto row = std::span(t).subspan(
            static_cast<std::size_t>(s * c_num),
            static_cast<std::size_t>(c_num));
        if (total(row) > 0) continue;
        (want.test.in_left[static_cast<std::size_t>(s)] != 0 ? unseen_left
                                                             : unseen_right)++;
      }
    }
  }
  // The draw must reach every case the comparison is meant to cover.
  EXPECT_GT(forced_leaves, 0);
  EXPECT_GT(ties, 0);
  EXPECT_GT(unseen_left, 0);
  EXPECT_GT(unseen_right, 0);
  EXPECT_GT(multiway, 0);
  EXPECT_GT(restricted, 0);
}

TEST(BestTracker, BuildsATestOnlyForANewLeader) {
  const std::vector<std::int64_t> parent{10, 10};
  const GrowOptions opt;
  BestTracker tracker(parent, opt);
  int built = 0;
  const auto offer = [&](std::vector<std::int64_t> left) {
    tracker.offer_binary(left, 0, [&] {
      ++built;
      SplitTest test;
      test.kind = SplitTest::Kind::Threshold;
      test.threshold = static_cast<double>(left[0]);
      return test;
    });
  };
  offer({2, 1});    // first valid candidate: leads
  offer({1, 1});    // zero gain: below min_gain
  offer({8, 1});    // better: leads
  offer({1, 8});    // the same gain: the first-seen candidate stays
  offer({10, 10});  // every row left: not a candidate
  offer({10, 0});   // perfect: leads
  offer({9, 0});    // worse
  EXPECT_EQ(built, 3);
  const SplitDecision d = tracker.take();
  EXPECT_EQ(d.test.attr, 0);
  EXPECT_EQ(d.test.num_children, 2);
  EXPECT_EQ(d.test.threshold, 10.0);
  EXPECT_EQ(d.child_counts, (std::vector<std::int64_t>{10, 0, 0, 10}));
}

}  // namespace
}  // namespace pdt::dtree
