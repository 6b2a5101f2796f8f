#include "data/discretize.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace pdt::data {

std::vector<double> uniform_boundaries(double lo, double hi, int bins) {
  assert(bins >= 1);
  std::vector<double> cuts;
  cuts.reserve(static_cast<std::size_t>(bins - 1));
  const double width = (hi - lo) / bins;
  for (int b = 1; b < bins; ++b) cuts.push_back(lo + width * b);
  return cuts;
}

int bin_of(double v, const std::vector<double>& cuts) {
  // Number of boundaries <= v; values exactly on a boundary go right.
  const auto it = std::upper_bound(cuts.begin(), cuts.end(), v);
  return static_cast<int>(it - cuts.begin());
}

UniformBins::UniformBins(double lo, double hi, int bins)
    : lo_(lo),
      hi_(hi),
      scale_(hi > lo ? bins / (hi - lo)
                     : std::numeric_limits<double>::infinity()),
      cuts_(uniform_boundaries(lo, hi, bins)) {}

Dataset discretize_uniform(const Dataset& ds,
                           const std::vector<int>& bins_per_attr) {
  // The bins span each column's range, and an empty column has none.
  if (ds.num_rows() == 0) {
    throw std::invalid_argument("cannot discretize an empty dataset");
  }
  const Schema& in = ds.schema();
  assert(static_cast<int>(bins_per_attr.size()) == in.num_attributes());

  std::vector<Attribute> attrs;
  std::vector<UniformBins> binning(
      static_cast<std::size_t>(in.num_attributes()));
  for (int a = 0; a < in.num_attributes(); ++a) {
    const Attribute& src = in.attr(a);
    if (src.is_categorical()) {
      attrs.push_back(src);
      continue;
    }
    const int bins = bins_per_attr[static_cast<std::size_t>(a)];
    assert(bins >= 2);
    const auto [lo, hi] = ds.cont_range(a);
    binning[static_cast<std::size_t>(a)] = UniformBins(lo, hi, bins);
    Attribute binned =
        Attribute::categorical(src.name, bins, /*ordered=*/true);
    for (int b = 0; b < bins; ++b) {
      binned.value_names.push_back(src.name + "_bin" + std::to_string(b));
    }
    attrs.push_back(std::move(binned));
  }

  std::vector<std::string> class_names;
  for (int c = 0; c < in.num_classes(); ++c) {
    class_names.push_back(in.class_name(c));
  }
  Dataset out(Schema(std::move(attrs), in.num_classes(), std::move(class_names)),
              ds.num_rows());
  for (std::size_t row = 0; row < ds.num_rows(); ++row) {
    out.add_row(ds.label(row));
    for (int a = 0; a < in.num_attributes(); ++a) {
      if (in.attr(a).is_categorical()) {
        out.set_cat(a, row, ds.cat(a, row));
      } else {
        out.set_cat(a, row,
                    binning[static_cast<std::size_t>(a)].bin(ds.cont(a, row)));
      }
    }
  }
  return out;
}

std::vector<int> quest_paper_bins() {
  // salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan
  return {13, 14, 6, 0, 0, 0, 11, 10, 20};
}

std::vector<double> quantile_boundaries(std::vector<WeightedValue> values,
                                        int bins) {
  assert(bins >= 1);
  std::sort(values.begin(), values.end(),
            [](const WeightedValue& a, const WeightedValue& b) {
              return a.value < b.value;
            });
  double total = 0.0;
  for (const auto& v : values) total += v.weight;
  if (total <= 0.0 || values.empty()) return {};

  std::vector<double> cuts;
  const double per_bin = total / bins;
  double acc = 0.0;
  int next_cut = 1;
  for (std::size_t i = 0; i + 1 < values.size() && next_cut < bins; ++i) {
    acc += values[i].weight;
    if (acc >= per_bin * next_cut) {
      // Boundary between this value and the next.
      cuts.push_back(0.5 * (values[i].value + values[i + 1].value));
      while (next_cut < bins && acc >= per_bin * next_cut) ++next_cut;
    }
  }
  return cuts;
}

std::vector<double> kmeans_boundaries(const std::vector<WeightedValue>& values,
                                      int k, int max_iters) {
  assert(k >= 1);
  std::vector<WeightedValue> pts;
  pts.reserve(values.size());
  for (const auto& v : values) {
    if (v.weight > 0.0) pts.push_back(v);
  }
  if (pts.empty()) return {};
  std::sort(pts.begin(), pts.end(),
            [](const WeightedValue& a, const WeightedValue& b) {
              return a.value < b.value;
            });
  k = std::min<int>(k, static_cast<int>(pts.size()));
  if (k <= 1) return {};

  // Initialize centers at weight quantiles (deterministic).
  double total = 0.0;
  for (const auto& p : pts) total += p.weight;
  std::vector<double> centers;
  centers.reserve(static_cast<std::size_t>(k));
  {
    double acc = 0.0;
    std::size_t i = 0;
    for (int c = 0; c < k; ++c) {
      const double want = total * (c + 0.5) / k;
      while (i + 1 < pts.size() && acc + pts[i].weight < want) {
        acc += pts[i].weight;
        ++i;
      }
      centers.push_back(pts[i].value);
    }
  }
  std::sort(centers.begin(), centers.end());
  centers.erase(std::unique(centers.begin(), centers.end()), centers.end());

  // Lloyd iterations; in 1-D each cluster is an interval, so assignment is
  // a merge-scan against midpoints between adjacent centers.
  for (int iter = 0; iter < max_iters; ++iter) {
    std::vector<double> sum(centers.size(), 0.0);
    std::vector<double> mass(centers.size(), 0.0);
    std::size_t c = 0;
    for (const auto& p : pts) {
      while (c + 1 < centers.size() &&
             std::abs(p.value - centers[c + 1]) <
                 std::abs(p.value - centers[c])) {
        ++c;
      }
      sum[c] += p.value * p.weight;
      mass[c] += p.weight;
    }
    double shift = 0.0;
    std::vector<double> next;
    next.reserve(centers.size());
    for (std::size_t j = 0; j < centers.size(); ++j) {
      if (mass[j] <= 0.0) continue;  // drop empty clusters
      const double m = sum[j] / mass[j];
      shift += std::abs(m - (j < centers.size() ? centers[j] : m));
      next.push_back(m);
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    const bool converged = next.size() == centers.size() && shift < 1e-9;
    centers = std::move(next);
    if (converged) break;
  }

  std::vector<double> cuts;
  for (std::size_t j = 0; j + 1 < centers.size(); ++j) {
    cuts.push_back(0.5 * (centers[j] + centers[j + 1]));
  }
  return cuts;
}

}  // namespace pdt::data
