#include "dtree/prune.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>

#include "data/quest.hpp"
#include "data/discretize.hpp"
#include "dtree/builder.hpp"
#include "dtree/metrics.hpp"
#include "dtree/serialize.hpp"

namespace pdt::dtree {
namespace {

// Reference U_CF: a verbatim copy of the limit as first written, one
// bisection per call with every log evaluated inside the term loop. The
// library's memoized, hoisted version must agree with it to the bit,
// because pruning decisions (and so the pruned model digests) hang on
// exact ties of these doubles.
namespace reference {

double z_of_confidence(double confidence) {
  const double p = 1.0 - confidence;
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

double binom_cdf(std::int64_t e, std::int64_t n, double p) {
  if (p <= 0.0) return 1.0;
  if (p >= 1.0) return e >= n ? 1.0 : 0.0;
  double cdf = 0.0;
  double log_term = static_cast<double>(n) * std::log1p(-p);  // k = 0
  for (std::int64_t k = 0; k <= e; ++k) {
    cdf += std::exp(log_term);
    // pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/(1-p)
    log_term += std::log(static_cast<double>(n - k)) -
                std::log(static_cast<double>(k + 1)) + std::log(p) -
                std::log1p(-p);
  }
  return cdf;
}

double binom_upper(std::int64_t e, std::int64_t n, double cf) {
  double lo = static_cast<double>(e) / static_cast<double>(n);
  double hi = 1.0;
  for (int iter = 0; iter < 50; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (binom_cdf(e, n, mid) > cf) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double wilson_upper(double errors, double n, double cf) {
  const double z = z_of_confidence(cf);
  if (n <= 0.0) return 1.0;
  if (n <= 400.0) {
    return binom_upper(static_cast<std::int64_t>(errors),
                       static_cast<std::int64_t>(n), cf);
  }
  const double f = errors / n;
  const double z2 = z * z;
  return (f + z2 / (2.0 * n) +
          z * std::sqrt(f / n - f * f / n + z2 / (4.0 * n * n))) /
         (1.0 + z2 / n);
}

}  // namespace reference

void expect_bit_equal(std::int64_t e, std::int64_t n, double cf) {
  const double got = pessimistic_error(e, n, cf);
  const double want = reference::wilson_upper(static_cast<double>(e),
                                              static_cast<double>(n), cf);
  EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
      << "U(" << e << ", " << n << ") at cf " << cf << ": got " << got
      << ", reference " << want;
}

TEST(PessimisticError, ZeroErrorsStillPositive) {
  // C4.5's point: an observed error of 0 on few records is not a true 0.
  const double e = pessimistic_error(0, 10, 0.25);
  EXPECT_GT(e, 0.0);
  EXPECT_LT(e, 0.5);
}

TEST(PessimisticError, ShrinksWithMoreData) {
  const double small = pessimistic_error(1, 10, 0.25);
  const double large = pessimistic_error(100, 1000, 0.25);
  EXPECT_GT(small, large) << "same 10% rate, tighter bound with more data";
}

TEST(PessimisticError, GrowsWithErrorRate) {
  EXPECT_LT(pessimistic_error(1, 100, 0.25),
            pessimistic_error(30, 100, 0.25));
}

TEST(PessimisticError, MoreConfidencePrunesLess) {
  // Larger CF -> smaller z -> smaller upper bound.
  EXPECT_GT(pessimistic_error(5, 50, 0.05), pessimistic_error(5, 50, 0.45));
}

constexpr double kConfidences[] = {0.05, 0.25, 0.45};

TEST(PessimisticError, BitEqualToReferenceOnSeededPairs) {
  std::mt19937_64 rng(20240607);
  for (const double cf : kConfidences) {
    for (int i = 0; i < 400; ++i) {
      // Mostly the exact path, some Wilson nodes past it.
      const std::int64_t n =
          std::uniform_int_distribution<std::int64_t>(1, 600)(rng);
      const std::int64_t e =
          std::uniform_int_distribution<std::int64_t>(0, n)(rng);
      expect_bit_equal(e, n, cf);
    }
  }
}

TEST(PessimisticError, BitEqualToReferenceOnEdges) {
  for (const double cf : kConfidences) {
    for (const std::int64_t n : {1, 2, 3, 399, 400, 401, 402}) {
      for (const std::int64_t e : {std::int64_t{0}, std::int64_t{1}, n / 2,
                                   n - 1, n}) {
        expect_bit_equal(e, n, cf);
      }
    }
    expect_bit_equal(0, 0, cf);
  }
}

TEST(PessimisticError, RejectsConfidenceOutsideOpenUnitInterval) {
  for (const double cf : {0.0, 1.0, 2.0, -0.25,
                          std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)pessimistic_error(5, 1000, cf), std::invalid_argument)
        << "cf " << cf;
  }
}

TEST(PessimisticError, RejectsErrorsOutsideZeroToN) {
  EXPECT_THROW((void)pessimistic_error(-1, 5, 0.25), std::invalid_argument);
  EXPECT_THROW((void)pessimistic_error(6, 5, 0.25), std::invalid_argument);
  EXPECT_THROW((void)pessimistic_error(1, 0, 0.25), std::invalid_argument);
  EXPECT_NO_THROW((void)pessimistic_error(0, 0, 0.25));
  EXPECT_NO_THROW((void)pessimistic_error(5, 5, 0.25));
}

Tree noisy_tree() {
  const data::Dataset raw = data::quest_generate(
      3000, {.function = 1, .seed = 42, .label_noise = 0.2});
  return grow_bfs(data::discretize_uniform(raw, data::quest_paper_bins()),
                  GrowOptions{});
}

TEST(Prune, RejectsConfidenceOutsideOpenUnitIntervalAndLeavesTreeAlone) {
  // Before the check, confidence 0 made U NaN and collapsed most of the
  // tree, and 1.0 or 2.0 silently pruned nothing.
  const Tree grown = noisy_tree();
  for (const double cf : {0.0, 1.0, 2.0, -0.25,
                          std::numeric_limits<double>::quiet_NaN()}) {
    Tree t = grown;
    EXPECT_THROW(prune(t, {.confidence = cf}), std::invalid_argument)
        << "cf " << cf;
    EXPECT_EQ(model_digest(t), model_digest(grown)) << "cf " << cf;
  }
}

TEST(Prune, RunsOneExactBisectionPerDistinctPair) {
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(20000, {.function = 2, .seed = 1}),
      data::quest_paper_bins());
  Tree t = grow_bfs(ds, GrowOptions{});
  // Pruning visits every node of the grown tree once (children before
  // their parent decides to collapse).
  std::set<std::pair<std::int64_t, std::int64_t>> pairs;
  int small_nodes = 0;
  for (const int id : canonical_order(t)) {
    const Node& nd = t.node(id);
    const std::int64_t n = nd.num_records();
    if (n <= 0 || n > 400) continue;
    ++small_nodes;
    pairs.emplace(n - nd.class_counts[static_cast<std::size_t>(nd.majority)],
                  n);
  }
  const PruneStats stats = prune(t);
  EXPECT_EQ(stats.exact_limits, static_cast<int>(pairs.size()));
  EXPECT_LT(stats.exact_limits, small_nodes);
}

TEST(Prune, LeavesPerfectSubtreesMostlyAlone) {
  // A clean, strongly-predictive dataset: pruning should not destroy the
  // fit.
  const data::Dataset raw = data::quest_generate(3000, {.seed = 41});
  const data::Dataset ds =
      data::discretize_uniform(raw, data::quest_paper_bins());
  Tree t = grow_bfs(ds, GrowOptions{});
  const double before = evaluate(t, ds).accuracy();
  const PruneStats stats = prune(t);
  EXPECT_EQ(stats.leaves_after, t.num_leaves());
  EXPECT_LE(stats.leaves_after, stats.leaves_before);
  EXPECT_GT(evaluate(t, ds).accuracy(), before - 0.1);
}

TEST(Prune, CollapsesNoiseFits) {
  // With 20% label noise the deep tree memorizes noise; pessimistic
  // pruning must collapse a substantial part of it.
  Tree t = noisy_tree();
  const int leaves_before = t.num_leaves();
  const PruneStats stats = prune(t);
  EXPECT_GT(stats.subtrees_collapsed, 0);
  EXPECT_LT(t.num_leaves(), leaves_before);
}

TEST(Prune, RootOnlyTreeIsUntouched) {
  Tree t(std::vector<std::int64_t>{5, 5});
  const PruneStats stats = prune(t);
  EXPECT_EQ(stats.subtrees_collapsed, 0);
  EXPECT_EQ(stats.leaves_before, 1);
  EXPECT_EQ(stats.leaves_after, 1);
}

}  // namespace
}  // namespace pdt::dtree
