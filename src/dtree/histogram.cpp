#include "dtree/histogram.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>

namespace pdt::dtree {

void accumulate(std::span<std::int64_t> h, const AttrLayout& layout,
                const SlotMapper& mapper, std::span<const data::RowId> rows) {
  assert(h.size() == static_cast<std::size_t>(layout.total()));
  const std::int32_t* labels = mapper.dataset().labels().data();
  const int c_num = layout.num_classes();
  // Attribute-major: one pass over the rows per attribute, so each pass
  // reads one column and updates one table.
  for (int a = 0; a < layout.num_attributes(); ++a) {
    std::int64_t* table = h.data() + layout.offset(a);
    mapper.for_each_slot(a, rows, [&](data::RowId row, int s) {
      ++table[s * c_num + labels[row]];
    });
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
