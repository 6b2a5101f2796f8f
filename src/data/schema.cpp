#include "data/schema.hpp"

#include <cassert>
#include <stdexcept>

namespace pdt::data {

Attribute Attribute::categorical(std::string name, int cardinality,
                                 bool ordered) {
  Attribute a;
  a.name = std::move(name);
  a.type = AttrType::Categorical;
  a.cardinality = cardinality;
  a.ordered = ordered;
  return a;
}

Attribute Attribute::continuous(std::string name) {
  Attribute a;
  a.name = std::move(name);
  a.type = AttrType::Continuous;
  return a;
}

Schema::Schema(std::vector<Attribute> attrs, int num_classes,
               std::vector<std::string> class_names)
    : attrs_(std::move(attrs)),
      num_classes_(num_classes),
      class_names_(std::move(class_names)) {
  if (num_classes_ < 2) {
    throw std::invalid_argument("schema: need at least 2 classes, got " +
                                std::to_string(num_classes_));
  }
  for (const Attribute& a : attrs_) {
    if (a.is_categorical() && a.cardinality < 1) {
      throw std::invalid_argument("schema: categorical attribute " + a.name +
                                  " has cardinality " +
                                  std::to_string(a.cardinality) +
                                  " (want >= 1)");
    }
  }
  if (class_names_.empty()) {
    for (int c = 0; c < num_classes_; ++c) {
      class_names_.push_back("class" + std::to_string(c));
    }
  }
  assert(static_cast<int>(class_names_.size()) == num_classes_);
}

const std::string& Schema::class_name(int c) const {
  return class_names_[static_cast<std::size_t>(c)];
}

int Schema::num_categorical() const {
  int n = 0;
  for (const auto& a : attrs_) n += a.is_categorical() ? 1 : 0;
  return n;
}

int Schema::num_continuous() const {
  return num_attributes() - num_categorical();
}

double Schema::mean_cardinality() const {
  int n = 0;
  long long sum = 0;
  for (const auto& a : attrs_) {
    if (a.is_categorical()) {
      ++n;
      sum += a.cardinality;
    }
  }
  return n == 0 ? 0.0 : static_cast<double>(sum) / n;
}

int Schema::index_of(const std::string& name) const {
  for (int a = 0; a < num_attributes(); ++a) {
    if (attrs_[static_cast<std::size_t>(a)].name == name) return a;
  }
  return -1;
}

}  // namespace pdt::data
