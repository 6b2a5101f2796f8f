// Number helpers the `pdt` commands share: fixed-decimal table cells and
// the median/MAD collapse of host-time repeats (DESIGN.md §9).
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

}  // namespace pdt::tools
