// Columnar training set.
//
// Storage is column-major: one int32 column per categorical attribute, one
// double column per continuous attribute, plus the int32 class-label
// column. Column-major layout matches the access pattern of histogram
// construction (one attribute scanned at a time) and of the attribute-list
// style algorithms (SLIQ/SPRINT) the paper builds on.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "data/schema.hpp"

namespace pdt::data {

class Dataset {
 public:
  Dataset() = default;
  /// Create an empty dataset with capacity reserved for `expected_rows`.
  explicit Dataset(Schema schema, std::size_t expected_rows = 0);

  [[nodiscard]] const Schema& schema() const { return schema_; }
  [[nodiscard]] std::size_t num_rows() const { return labels_.size(); }
  [[nodiscard]] int num_attributes() const { return schema_.num_attributes(); }

  /// Begin a new row; follow with set_cat/set_cont for every attribute.
  /// Returns the new row index.
  ///
  /// All three check the value in every build type and throw
  /// std::invalid_argument naming the row and column when a label is
  /// outside [0, num_classes), a category outside [0, cardinality), or a
  /// continuous value is NaN or infinite. Histogram indexing and the
  /// equal-width bin lookup rely on these bounds.
  std::size_t add_row(std::int32_t label);
  void set_cat(int attr, std::size_t row, std::int32_t value) {
    const Attribute& a = schema_.attr(attr);
    assert(a.is_categorical());
    if (value < 0 || value >= a.cardinality) reject_category(attr, row, value);
    cat_[static_cast<std::size_t>(attr)][row] = value;
  }
  void set_cont(int attr, std::size_t row, double value) {
    assert(schema_.attr(attr).is_continuous());
    if (!std::isfinite(value)) reject_non_finite(attr, row, value);
    cont_[static_cast<std::size_t>(attr)][row] = value;
  }

  [[nodiscard]] std::int32_t cat(int attr, std::size_t row) const {
    assert(schema_.attr(attr).is_categorical());
    return cat_[static_cast<std::size_t>(attr)][row];
  }
  [[nodiscard]] double cont(int attr, std::size_t row) const {
    assert(schema_.attr(attr).is_continuous());
    return cont_[static_cast<std::size_t>(attr)][row];
  }
  [[nodiscard]] std::int32_t label(std::size_t row) const {
    return labels_[row];
  }

  [[nodiscard]] const std::vector<std::int32_t>& labels() const {
    return labels_;
  }
  [[nodiscard]] const std::vector<std::int32_t>& cat_column(int attr) const {
    return cat_[static_cast<std::size_t>(attr)];
  }
  [[nodiscard]] const std::vector<double>& cont_column(int attr) const {
    return cont_[static_cast<std::size_t>(attr)];
  }

  /// Min / max of a continuous column (asserts non-empty).
  [[nodiscard]] std::pair<double, double> cont_range(int attr) const;

 private:
  // Out of line and cold: the accepting path of a check, which runs once
  // per value stored, stays a compare and a store.
  [[noreturn, gnu::cold]] void reject_category(int attr, std::size_t row,
                                               std::int32_t value) const;
  [[noreturn, gnu::cold]] void reject_non_finite(int attr, std::size_t row,
                                                 double value) const;

  Schema schema_;
  std::vector<std::vector<std::int32_t>> cat_;  // empty vec for continuous
  std::vector<std::vector<double>> cont_;       // empty vec for categorical
  std::vector<std::int32_t> labels_;
};

}  // namespace pdt::data
