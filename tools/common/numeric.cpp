#include "common/numeric.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pdt::tools {

std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return std::string(buf);
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  if (v.size() % 2 == 1) return v[mid];
  return 0.5 * (v[mid - 1] + v[mid]);
}

double mad_of(const std::vector<double>& v) {
  const double med = median_of(v);
  std::vector<double> dev;
  dev.reserve(v.size());
  for (const double s : v) dev.push_back(std::fabs(s - med));
  return median_of(std::move(dev));
}

}  // namespace pdt::tools
