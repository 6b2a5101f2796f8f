// Number helpers the offline tools share: fixed-decimal table cells and
// the median/MAD noise band that pdt-diff --host and pdt-trend check both
// gate host time on (DESIGN.md §9), so the two gates cannot drift apart.
#pragma once

#include <string>
#include <vector>

namespace pdt::tools {

/// `v` with `decimals` digits after the point (printf "%.*f").
[[nodiscard]] std::string fmt(double v, int decimals);

/// Nanoseconds rendered as milliseconds with three decimals.
[[nodiscard]] inline std::string fmt_ms(double ns) { return fmt(ns / 1e6, 3); }

/// Median of `v` (copied; not required sorted). 0 for empty input.
[[nodiscard]] double median_of(std::vector<double> v);

/// Median absolute deviation of `v` around its own median.
[[nodiscard]] double mad_of(const std::vector<double>& v);

/// Allowed |delta| around `base`: max(tol * base, mad_k * 1.4826 *
/// (mad_a + mad_b)). 1.4826 * MAD estimates one standard deviation for
/// normal noise, so mad_k counts sigmas of combined jitter to forgive; the
/// tol floor keeps a near-zero-MAD baseline from demanding bit-exact time.
[[nodiscard]] double noise_band(double base, double mad_a, double mad_b,
                                double tol, double mad_k);

}  // namespace pdt::tools
