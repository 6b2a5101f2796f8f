#include "dtree/prune.hpp"

#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace pdt::dtree {

namespace {

/// Inverse of the standard normal CDF for the upper tail probability
/// `confidence` (e.g. 0.25 -> z ~ 0.6745). Beasley-Springer-Moro style
/// rational approximation — plenty for pruning decisions.
double z_of_confidence(double confidence) {
  // We need z with P(Z > z) = confidence, i.e. quantile(1 - confidence).
  const double p = 1.0 - confidence;
  // Acklam's approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - plow) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
            1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

/// Largest n that takes the exact binomial limit; larger nodes use the
/// Wilson approximation, where the two agree.
constexpr std::int64_t kExactMaxN = 400;

/// The p-independent part of the pmf ratio
///   pmf(k+1) / pmf(k) = (n-k)/(k+1) * p/(1-p)
/// in log space: steps[k] = log(n-k) - log(k+1) for k < e.
std::vector<double> log_ratio_steps(std::int64_t e, std::int64_t n) {
  std::vector<double> steps(static_cast<std::size_t>(e));
  for (std::int64_t k = 0; k < e; ++k) {
    steps[static_cast<std::size_t>(k)] =
        std::log(static_cast<double>(n - k)) -
        std::log(static_cast<double>(k + 1));
  }
  return steps;
}

/// Binomial CDF P(X <= e | n, p), summed in probability space from
/// log-space terms (n is small enough that this is exact and fast).
/// `steps` is log_ratio_steps(e, n). Each term is advanced by
/// ((steps[k] + log p) - log(1-p)), the order every U_CF is pinned to.
double binom_cdf(std::span<const double> steps, std::int64_t e,
                 std::int64_t n, double p) {
  if (p <= 0.0) return 1.0;
  if (p >= 1.0) return e >= n ? 1.0 : 0.0;
  const double lp = std::log(p);
  const double l1p = std::log1p(-p);
  double log_term = static_cast<double>(n) * l1p;  // k = 0
  double cdf = std::exp(log_term);
  for (const double step : steps) {
    log_term += step + lp - l1p;
    cdf += std::exp(log_term);
  }
  return cdf;
}

/// Exact binomial upper confidence limit: the largest error rate p such
/// that observing <= e errors in n records still has probability >= CF.
/// This is C4.5's U_CF (e.g. U_0.25(0, 1) = 0.75). Solved by bisection.
double binom_upper(std::int64_t e, std::int64_t n, double cf) {
  const std::vector<double> steps = log_ratio_steps(e, n);
  double lo = static_cast<double>(e) / static_cast<double>(n);
  double hi = 1.0;
  for (int iter = 0; iter < 50; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (binom_cdf(steps, e, n, mid) > cf) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

void check_confidence(const char* fn, double confidence) {
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw std::invalid_argument(std::string(fn) +
                                ": confidence must be in (0, 1), got " +
                                std::to_string(confidence));
  }
}

struct Walker {
  Tree* tree;
  double z;
  double cf;
  PruneStats stats;
  /// U_CF of every (e, n <= kExactMaxN) pair seen so far, keyed
  /// n * (kExactMaxN + 1) + e. A tree repeats few distinct pairs across
  /// many small nodes, so each bisection runs once per prune call.
  std::unordered_map<std::int64_t, double> exact;

  /// Returns the estimated number of errors of the subtree at `id`, after
  /// possibly collapsing it.
  double visit(int id) {
    const Node& nd = tree->node(id);
    const std::int64_t n = nd.num_records();
    const std::int64_t errors =
        n - (nd.majority < static_cast<int>(nd.class_counts.size())
                 ? nd.class_counts[static_cast<std::size_t>(nd.majority)]
                 : 0);
    const double leaf_estimate =
        static_cast<double>(n) * upper_limit(errors, n);
    if (nd.is_leaf()) return leaf_estimate;

    double subtree_estimate = 0.0;
    for (int k = 0; k < nd.test.num_children; ++k) {
      subtree_estimate += visit(nd.first_child + k);
    }
    if (leaf_estimate <= subtree_estimate) {
      tree->make_leaf(id);
      ++stats.subtrees_collapsed;
      return leaf_estimate;
    }
    return subtree_estimate;
  }

  /// Exact binomial limit for the small leaves where the choice matters,
  /// normal (Wilson) approximation for large nodes where they agree.
  double upper_limit(std::int64_t errors, std::int64_t n) {
    if (n <= 0) return 1.0;
    if (n <= kExactMaxN) {
      const auto [it, fresh] =
          exact.try_emplace(n * (kExactMaxN + 1) + errors, 0.0);
      if (fresh) {
        it->second = binom_upper(errors, n, cf);
        ++stats.exact_limits;
      }
      return it->second;
    }
    const double e = static_cast<double>(errors);
    const double m = static_cast<double>(n);
    const double f = e / m;
    const double z2 = z * z;
    return (f + z2 / (2.0 * m) +
            z * std::sqrt(f / m - f * f / m + z2 / (4.0 * m * m))) /
           (1.0 + z2 / m);
  }
};

}  // namespace

double pessimistic_error(std::int64_t errors, std::int64_t n,
                         double confidence) {
  check_confidence("pessimistic_error", confidence);
  if (errors < 0 || errors > n) {
    throw std::invalid_argument(
        "pessimistic_error: errors must be in [0, n], got " +
        std::to_string(errors) + " of " + std::to_string(n));
  }
  Walker w{nullptr, z_of_confidence(confidence), confidence, {}, {}};
  return w.upper_limit(errors, n);
}

PruneStats prune(Tree& tree, const PruneOptions& opt) {
  check_confidence("prune", opt.confidence);
  Walker w{&tree, z_of_confidence(opt.confidence), opt.confidence, {}, {}};
  w.stats.leaves_before = tree.num_leaves();
  w.visit(tree.root());
  w.stats.leaves_after = tree.num_leaves();
  return w.stats;
}

}  // namespace pdt::dtree
