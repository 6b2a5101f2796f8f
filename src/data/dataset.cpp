#include "data/dataset.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

namespace pdt::data {

namespace {

[[noreturn, gnu::cold, gnu::noinline]] void reject_out_of_range(
    std::size_t row, std::string_view column, std::string_view what,
    long long value, int bound) {
  throw std::invalid_argument(
      "row " + std::to_string(row) + ", column " + std::string(column) +
      ": " + std::string(what) + " " + std::to_string(value) +
      " is outside [0, " + std::to_string(bound) + ")");
}

}  // namespace

Dataset::Dataset(Schema schema, std::size_t expected_rows)
    : schema_(std::move(schema)) {
  const int n = schema_.num_attributes();
  cat_.resize(static_cast<std::size_t>(n));
  cont_.resize(static_cast<std::size_t>(n));
  for (int a = 0; a < n; ++a) {
    if (schema_.attr(a).is_categorical()) {
      cat_[static_cast<std::size_t>(a)].reserve(expected_rows);
    } else {
      cont_[static_cast<std::size_t>(a)].reserve(expected_rows);
    }
  }
  labels_.reserve(expected_rows);
}

std::size_t Dataset::add_row(std::int32_t label) {
  const std::size_t row = labels_.size();
  if (label < 0 || label >= schema_.num_classes()) {
    reject_out_of_range(row, "class", "label", label, schema_.num_classes());
  }
  labels_.push_back(label);
  for (int a = 0; a < num_attributes(); ++a) {
    if (schema_.attr(a).is_categorical()) {
      cat_[static_cast<std::size_t>(a)].push_back(0);
    } else {
      cont_[static_cast<std::size_t>(a)].push_back(0.0);
    }
  }
  return row;
}

void Dataset::reject_category(int attr, std::size_t row,
                              std::int32_t value) const {
  const Attribute& a = schema_.attr(attr);
  reject_out_of_range(row, a.name, "category", value, a.cardinality);
}

void Dataset::reject_non_finite(int attr, std::size_t row,
                                double value) const {
  throw std::invalid_argument("row " + std::to_string(row) + ", column " +
                              schema_.attr(attr).name + ": value " +
                              std::to_string(value) + " is not finite");
}

std::pair<double, double> Dataset::cont_range(int attr) const {
  const auto& col = cont_column(attr);
  assert(!col.empty());
  // One plain pass with std::minmax_element's tie rule (the first
  // minimum, the last maximum), so a column holding both 0.0 and -0.0
  // gives the same bits as minmax_element.
  double lo = col.front();
  double hi = col.front();
  for (const double v : col) {
    if (v < lo) lo = v;
    if (!(v < hi)) hi = v;
  }
  return {lo, hi};
}

}  // namespace pdt::data
