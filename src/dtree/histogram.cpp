#include "dtree/histogram.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>

namespace pdt::dtree {

void accumulate(std::span<std::int64_t> h, const AttrLayout& layout,
                const SlotMapper& mapper, std::span<const data::RowId> rows) {
  assert(h.size() == static_cast<std::size_t>(layout.total()));
  // Attribute-major: one pass over the rows per attribute, so each pass
  // reads one column and updates one table.
  for (int a = 0; a < layout.num_attributes(); ++a) {
    accumulate_attr(
        h.subspan(static_cast<std::size_t>(layout.offset(a)),
                  static_cast<std::size_t>(layout.slots(a) *
                                           layout.num_classes())),
        layout, mapper, a, rows);
  }
}

void accumulate_attr(std::span<std::int64_t> table, const AttrLayout& layout,
                     const SlotMapper& mapper, int attr,
                     std::span<const data::RowId> rows) {
  const std::int32_t* labels = mapper.dataset().labels().data();
  const int c_num = layout.num_classes();
  std::int64_t* t = table.data();
  mapper.for_each_slot(attr, rows, [&](data::RowId row, int s) {
    ++t[s * c_num + labels[row]];
  });
}

void accumulate_cells(std::span<std::int64_t> h, const AttrLayout& layout,
                      std::span<const std::uint8_t> cells,
                      std::vector<std::uint32_t>& scratch) {
  assert(h.size() == static_cast<std::size_t>(layout.total()));
  const std::vector<int>& attrs = layout.cell_attrs();
  const std::size_t k_num = attrs.size();
  if (k_num == 0 || cells.empty()) return;
  assert(cells.size() % k_num == 0);
  const std::size_t n = cells.size() / k_num;
  const std::uint8_t* c = cells.data();

  // Below a few dozen rows, zeroing and folding the sub-tables costs more
  // than the counts they would speed up.
  constexpr std::size_t kDirect = 32;
  if (n < kDirect) {
    for (std::size_t i = 0; i < n; ++i, c += k_num) {
      for (std::size_t k = 0; k < k_num; ++k) {
        ++h[static_cast<std::size_t>(layout.offset(attrs[k])) + c[k]];
      }
    }
    return;
  }

  // scratch holds K + 1 sub-table bases, then the even and the odd
  // sub-tables; sub-table k spans [b[k], b[k + 1]), attribute k's slots x C.
  scratch.resize(k_num + 1);
  scratch[0] = 0;
  for (std::size_t k = 0; k < k_num; ++k) {
    scratch[k + 1] = scratch[k] + static_cast<std::uint32_t>(
                                      layout.slots(attrs[k]) *
                                      layout.num_classes());
  }
  const std::size_t width = scratch[k_num];
  scratch.resize(k_num + 1 + 2 * width);
  std::fill(scratch.begin() + static_cast<std::ptrdiff_t>(k_num + 1),
            scratch.end(), 0U);
  const std::uint32_t* b = scratch.data();
  std::uint32_t* even = scratch.data() + k_num + 1;
  std::uint32_t* odd = even + width;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2, c += 2 * k_num) {
    for (std::size_t k = 0; k < k_num; ++k) {
      ++even[b[k] + c[k]];
      ++odd[b[k] + c[k_num + k]];
    }
  }
  if (i < n) {
    for (std::size_t k = 0; k < k_num; ++k) ++even[b[k] + c[k]];
  }
  for (std::size_t k = 0; k < k_num; ++k) {
    std::int64_t* table = h.data() + layout.offset(attrs[k]);
    for (std::uint32_t j = b[k]; j < b[k + 1]; ++j) {
      table[j - b[k]] += static_cast<std::int64_t>(even[j]) +
                         static_cast<std::int64_t>(odd[j]);
    }
  }
}

std::vector<std::int64_t> class_counts(std::span<const std::int64_t> h,
                                       const AttrLayout& layout) {
  const int c_num = layout.num_classes();
  std::vector<std::int64_t> counts(static_cast<std::size_t>(c_num), 0);
  for (int s = 0; s < layout.slots(0); ++s) {
    for (int c = 0; c < c_num; ++c) {
      counts[static_cast<std::size_t>(c)] +=
          h[static_cast<std::size_t>(layout.index(0, s, c))];
    }
  }
  return counts;
}

std::vector<std::int64_t> class_counts_of_rows(
    const data::Dataset& ds, std::span<const data::RowId> rows) {
  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(ds.schema().num_classes()), 0);
  for (const data::RowId row : rows) {
    ++counts[static_cast<std::size_t>(ds.label(row))];
  }
  return counts;
}

std::vector<std::int64_t> categorical_distribution(
    const data::Dataset& ds, std::span<const data::RowId> rows, int attr) {
  const auto& a = ds.schema().attr(attr);
  assert(a.is_categorical());
  const int c_num = ds.schema().num_classes();
  std::vector<std::int64_t> table(
      static_cast<std::size_t>(a.cardinality * c_num), 0);
  for (const data::RowId row : rows) {
    const int v = ds.cat(attr, row);
    ++table[static_cast<std::size_t>(v * c_num + ds.label(row))];
  }
  return table;
}

std::vector<BinaryTestRow> continuous_binary_distribution(
    const data::Dataset& ds, std::span<const data::RowId> rows, int attr) {
  assert(ds.schema().attr(attr).is_continuous());
  const int c_num = ds.schema().num_classes();
  // distinct value -> class counts at that exact value
  std::map<double, std::vector<std::int64_t>> at_value;
  std::vector<std::int64_t> totals(static_cast<std::size_t>(c_num), 0);
  for (const data::RowId row : rows) {
    auto& counts = at_value[ds.cont(attr, row)];
    if (counts.empty()) counts.assign(static_cast<std::size_t>(c_num), 0);
    ++counts[static_cast<std::size_t>(ds.label(row))];
    ++totals[static_cast<std::size_t>(ds.label(row))];
  }
  std::vector<BinaryTestRow> out;
  std::vector<std::int64_t> below(static_cast<std::size_t>(c_num), 0);
  for (const auto& [value, counts] : at_value) {
    BinaryTestRow r;
    r.value = value;
    r.le.resize(static_cast<std::size_t>(c_num));
    r.gt.resize(static_cast<std::size_t>(c_num));
    for (int c = 0; c < c_num; ++c) {
      below[static_cast<std::size_t>(c)] += counts[static_cast<std::size_t>(c)];
      r.le[static_cast<std::size_t>(c)] = below[static_cast<std::size_t>(c)];
      r.gt[static_cast<std::size_t>(c)] =
          totals[static_cast<std::size_t>(c)] -
          below[static_cast<std::size_t>(c)];
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::string format_categorical_distribution(
    const data::Dataset& ds, std::span<const std::int64_t> table, int attr) {
  const auto& a = ds.schema().attr(attr);
  const int c_num = ds.schema().num_classes();
  std::ostringstream os;
  os << "Attribute Value";
  for (int c = 0; c < c_num; ++c) os << " | " << ds.schema().class_name(c);
  os << '\n';
  for (int v = 0; v < a.cardinality; ++v) {
    const std::string& name =
        v < static_cast<int>(a.value_names.size())
            ? a.value_names[static_cast<std::size_t>(v)]
            : std::to_string(v);
    os << name;
    for (int c = 0; c < c_num; ++c) {
      os << " | " << table[static_cast<std::size_t>(v * c_num + c)];
    }
    os << '\n';
  }
  return os.str();
}

std::string format_binary_distribution(const data::Dataset& ds,
                                       const std::vector<BinaryTestRow>& rows,
                                       int attr) {
  const int c_num = ds.schema().num_classes();
  std::ostringstream os;
  os << ds.schema().attr(attr).name << " | test";
  for (int c = 0; c < c_num; ++c) os << " | " << ds.schema().class_name(c);
  os << '\n';
  for (const auto& r : rows) {
    os << r.value << " | <=";
    for (int c = 0; c < c_num; ++c) os << " | " << r.le[static_cast<std::size_t>(c)];
    os << '\n' << r.value << " | > ";
    for (int c = 0; c < c_num; ++c) os << " | " << r.gt[static_cast<std::size_t>(c)];
    os << '\n';
  }
  return os.str();
}

}  // namespace pdt::dtree
