// Pessimistic error pruning (C4.5, chapter 4).
//
// The paper deliberately excludes pruning from its parallel analysis
// ("the time spent on pruning for a large dataset is a small fraction,
// less than 1% of the initial tree generation") — it is included here for
// completeness of the sequential library. The <1% does not hold for this
// implementation: prune costs 7-10% of core::build_serial at 0.8M binned
// rows (about 7% on raw k-means columns) and 25-40% of dtree::grow_bfs at
// 20k rows (micro_bench BM_GrowVsPrune), nearly all of it the exact
// binomial limit of nodes with n <= 400. That limit is solved once per
// distinct (errors, n) pair in a prune call.
#pragma once

#include "dtree/tree.hpp"

namespace pdt::dtree {

struct PruneOptions {
  /// C4.5 confidence factor CF (default 25%). Smaller values prune more.
  double confidence = 0.25;
};

struct PruneStats {
  int subtrees_collapsed = 0;
  int leaves_before = 0;
  int leaves_after = 0;
  /// Exact-limit bisections run: one per distinct (errors, n <= 400)
  /// pair, however many nodes share it.
  int exact_limits = 0;
};

/// Upper confidence limit of the binomial error rate for `errors` errors
/// in `n` records (C4.5's U_CF): exact binomial bisection for n <= 400,
/// the Wilson score interval above. Throws std::invalid_argument unless
/// 0 < confidence < 1 and 0 <= errors <= n.
[[nodiscard]] double pessimistic_error(std::int64_t errors, std::int64_t n,
                                       double confidence);

/// Prune `tree` in place, collapsing subtrees whose estimated error is not
/// better than the leaf that would replace them. Throws
/// std::invalid_argument unless 0 < opt.confidence < 1.
PruneStats prune(Tree& tree, const PruneOptions& opt = {});

}  // namespace pdt::dtree
