#include "dtree/slots.hpp"

#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace pdt::dtree {

AttrLayout::AttrLayout(const data::Schema& schema, int cont_bins)
    : num_classes_(schema.num_classes()) {
  const int n = schema.num_attributes();
  slots_.reserve(static_cast<std::size_t>(n));
  offsets_.reserve(static_cast<std::size_t>(n));
  std::int64_t off = 0;
  for (int a = 0; a < n; ++a) {
    const auto& attr = schema.attr(a);
    const int s = attr.is_categorical() ? attr.cardinality : cont_bins;
    assert(s >= 1);
    slots_.push_back(s);
    offsets_.push_back(static_cast<int>(off));
    const bool cell = std::int64_t{s} * num_classes_ <= 256;
    cell_of_.push_back(cell ? static_cast<int>(cell_attrs_.size()) : -1);
    if (cell) cell_attrs_.push_back(a);
    off += std::int64_t{s} * num_classes_;
    if (off > std::numeric_limits<int>::max()) {
      throw std::invalid_argument(
          "AttrLayout: the count table passes " +
          std::to_string(std::numeric_limits<int>::max()) +
          " cells at attribute " + attr.name + " (" + std::to_string(s) +
          " slots x " + std::to_string(num_classes_) + " classes)");
    }
  }
  total_ = static_cast<int>(off);
}

SlotMapper::SlotMapper(const data::Dataset& ds, int cont_bins)
    : ds_(&ds), cont_bins_(cont_bins) {
  // Every build maps its dataset here first, so this is where an empty
  // one is turned away (nothing else would, short of a crash).
  if (ds.num_rows() == 0) {
    throw std::invalid_argument("cannot build a tree from an empty dataset");
  }
  if (cont_bins < 2 || cont_bins > 256) {
    throw std::invalid_argument(
        "SlotMapper: cont_bins must be in [2, 256], got " +
        std::to_string(cont_bins));
  }
  const auto n = static_cast<std::size_t>(ds.num_attributes());
  bins_.resize(n);
  slot_cols_.resize(n);
  for (std::size_t a = 0; a < n; ++a) {
    const int attr = static_cast<int>(a);
    if (!ds.schema().attr(attr).is_continuous()) continue;
    const auto [lo, hi] = ds.cont_range(attr);
    bins_[a] = data::UniformBins(lo, hi, cont_bins);
    const std::vector<double>& col = ds.cont_column(attr);
    std::vector<std::uint8_t>& slots = slot_cols_[a];
    slots.resize(col.size());
    for (std::size_t row = 0; row < col.size(); ++row) {
      slots[row] = static_cast<std::uint8_t>(bins_[a].bin(col[row]));
    }
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
