// Discretization of continuous attributes.
//
// The paper uses three flavours:
//  * global uniform (equal-interval) binning as a preprocessing step — the
//    Figure 6/7 experiments discretize the six continuous Quest attributes
//    into 13/14/6/11/10/20 equal intervals;
//  * per-node quantile discretization (CLOUDS [3]);
//  * per-node clustering discretization (SPEC [23]) — used for the
//    Figure 8/9 experiments.
//
// Global binning produces a new all-categorical Dataset (bins keep their
// order). The per-node flavours operate on weighted value histograms and
// return bin boundaries; the core library applies them to the globally
// reduced per-node micro-histograms.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"

namespace pdt::data {

/// Equal-width bin boundaries: `bins`-1 interior cut points over [lo, hi].
[[nodiscard]] std::vector<double> uniform_boundaries(double lo, double hi,
                                                     int bins);

/// Bin index of `v` for interior boundaries `cuts` (ascending): the number
/// of cut points <= v, clamped to [0, cuts.size()].
[[nodiscard]] int bin_of(double v, const std::vector<double>& cuts);

/// `bins` equal-width bins over [lo, hi]: the cuts of uniform_boundaries
/// plus an O(1) lookup that returns exactly what bin_of returns over them.
///
/// bin(v) guesses floor((v - lo) * bins / (hi - lo)), clamps the guess to
/// [0, bins-1] and steps until cuts[s-1] <= v < cuts[s]. The cuts are
/// sorted, so that s is the unique upper_bound position, whatever the
/// guess was: the guess only decides how many steps are taken. The guess
/// and the cuts round the same real quotient, so the guess is off by one
/// at most, and only next to a cut. (Bins narrower than a few ulps of the
/// values are the exception: several cuts round to one double and the
/// loop takes a few more steps.) Every slot, and so every tree, matches
/// the binary search.
class UniformBins {
 public:
  UniformBins() = default;
  UniformBins(double lo, double hi, int bins);

  [[nodiscard]] int bin(double v) const {
    const int top = static_cast<int>(cuts_.size());
    // A constant column has scale_ = inf, so v == lo gives 0 * inf = NaN.
    // NaN fails `t < top` and lands on the top bin, where upper_bound
    // puts v == lo when every cut equals lo.
    double t = (v - lo_) * scale_;
    t = t < top ? t : top;
    t = t > 0.0 ? t : 0.0;
    int s = static_cast<int>(t);
    const double* cuts = cuts_.data();
    while (s > 0 && v < cuts[s - 1]) --s;
    while (s < top && !(v < cuts[s])) ++s;
    return s;
  }

  [[nodiscard]] int count() const {
    return static_cast<int>(cuts_.size()) + 1;
  }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  /// The `count()-1` interior boundaries, as uniform_boundaries returns.
  [[nodiscard]] const std::vector<double>& cuts() const { return cuts_; }

 private:
  double lo_ = 0.0;
  double hi_ = 0.0;
  double scale_ = 0.0;  ///< bins / (hi - lo); +inf for a constant column
  std::vector<double> cuts_;
};

/// Replace every continuous attribute with an ordered categorical attribute
/// of `bins_per_attr[a]` equal-width bins computed from the column's range.
/// Entries for categorical attributes are ignored (use 0). Throws
/// std::invalid_argument on an empty dataset.
[[nodiscard]] Dataset discretize_uniform(const Dataset& ds,
                                         const std::vector<int>& bins_per_attr);

/// The paper's bin counts for the Quest schema: salary 13, commission 14,
/// age 6, hvalue 11, hyears 10, loan 20 (categorical attrs: 0).
[[nodiscard]] std::vector<int> quest_paper_bins();

/// A weighted point on the real line (bin center + mass), the unit the
/// per-node discretizers consume.
struct WeightedValue {
  double value = 0.0;
  double weight = 0.0;
};

/// Equi-depth (quantile) cut points: choose `bins`-1 boundaries so that
/// each bin holds roughly equal total weight. Returns ascending interior
/// boundaries (possibly fewer than bins-1 when mass is concentrated).
[[nodiscard]] std::vector<double> quantile_boundaries(
    std::vector<WeightedValue> values, int bins);

/// SPEC-style 1-D k-means clustering of weighted values into at most `k`
/// clusters; returns the interior boundaries (midpoints between adjacent
/// cluster centers). Deterministic: centers initialize at weight quantiles
/// and Lloyd iterations run to a fixed tolerance.
[[nodiscard]] std::vector<double> kmeans_boundaries(
    const std::vector<WeightedValue>& values, int k, int max_iters = 32);

}  // namespace pdt::data
