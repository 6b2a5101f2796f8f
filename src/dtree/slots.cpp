#include "dtree/slots.hpp"

#include <cassert>

namespace pdt::dtree {

AttrLayout::AttrLayout(const data::Schema& schema, int cont_bins)
    : num_classes_(schema.num_classes()) {
  const int n = schema.num_attributes();
  slots_.reserve(static_cast<std::size_t>(n));
  offsets_.reserve(static_cast<std::size_t>(n));
  int off = 0;
  for (int a = 0; a < n; ++a) {
    const auto& attr = schema.attr(a);
    const int s = attr.is_categorical() ? attr.cardinality : cont_bins;
    assert(s >= 1);
    slots_.push_back(s);
    offsets_.push_back(off);
    off += s * num_classes_;
  }
  total_ = off;
}

SlotMapper::SlotMapper(const data::Dataset& ds, int cont_bins)
    : ds_(&ds), cont_bins_(cont_bins) {
  const int n = ds.num_attributes();
  bins_.resize(static_cast<std::size_t>(n));
  for (int a = 0; a < n; ++a) {
    if (!ds.schema().attr(a).is_continuous()) continue;
    assert(cont_bins >= 2);
    const auto [lo, hi] = ds.cont_range(a);
    bins_[static_cast<std::size_t>(a)] = data::UniformBins(lo, hi, cont_bins);
  }
}

double SlotMapper::bin_center(int attr, int s) const {
  const data::UniformBins& bins = bins_[static_cast<std::size_t>(attr)];
  const auto& cuts = bins.cuts();
  const double lo = s == 0 ? bins.lo() : cuts[static_cast<std::size_t>(s - 1)];
  const double hi = s == static_cast<int>(cuts.size())
                        ? bins.hi()
                        : cuts[static_cast<std::size_t>(s)];
  return 0.5 * (lo + hi);
}

}  // namespace pdt::dtree
