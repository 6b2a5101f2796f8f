// Attribute schema for a training set.
//
// Attributes are either continuous (ordered real values) or categorical
// (finite unordered value sets); one distinguished categorical attribute is
// the class label (Section 1 of the paper). Categorical attributes carry an
// `ordered` flag: bins produced by discretizing a continuous attribute keep
// their order (threshold splits apply), whereas genuinely nominal
// attributes (car make, zipcode) use subset splits.
#pragma once

#include <string>
#include <vector>

namespace pdt::data {

enum class AttrType { Categorical, Continuous };

struct Attribute {
  std::string name;
  AttrType type = AttrType::Continuous;
  /// Number of distinct values; meaningful for categorical attributes.
  int cardinality = 0;
  /// For categorical attributes: whether the value ids carry an order
  /// (true for discretized continuous attributes).
  bool ordered = false;
  /// Optional human-readable value names (categorical).
  std::vector<std::string> value_names;

  [[nodiscard]] bool is_categorical() const {
    return type == AttrType::Categorical;
  }
  [[nodiscard]] bool is_continuous() const {
    return type == AttrType::Continuous;
  }

  [[nodiscard]] static Attribute categorical(std::string name, int cardinality,
                                             bool ordered = false);
  [[nodiscard]] static Attribute continuous(std::string name);
};

class Schema {
 public:
  Schema() = default;
  /// Throws std::invalid_argument unless num_classes >= 2 and every
  /// categorical attribute has cardinality >= 1.
  Schema(std::vector<Attribute> attrs, int num_classes,
         std::vector<std::string> class_names = {});

  [[nodiscard]] int num_attributes() const {
    return static_cast<int>(attrs_.size());
  }
  [[nodiscard]] const Attribute& attr(int a) const {
    return attrs_[static_cast<std::size_t>(a)];
  }
  [[nodiscard]] const std::vector<Attribute>& attributes() const {
    return attrs_;
  }
  [[nodiscard]] int num_classes() const { return num_classes_; }
  [[nodiscard]] const std::string& class_name(int c) const;

  /// Number of categorical / continuous attributes (the paper's A_d and
  /// the continuous complement).
  [[nodiscard]] int num_categorical() const;
  [[nodiscard]] int num_continuous() const;
  /// Mean cardinality of the categorical attributes (the paper's M).
  [[nodiscard]] double mean_cardinality() const;

  /// Index of the attribute with the given name, or -1.
  [[nodiscard]] int index_of(const std::string& name) const;

 private:
  std::vector<Attribute> attrs_;
  int num_classes_ = 0;
  std::vector<std::string> class_names_;
};

}  // namespace pdt::data
