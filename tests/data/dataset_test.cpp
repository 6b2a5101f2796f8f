#include "data/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace pdt::data {
namespace {

Schema tiny_schema() {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::categorical("color", 3));
  attrs.push_back(Attribute::continuous("weight"));
  attrs.push_back(Attribute::categorical("size", 4, /*ordered=*/true));
  return Schema(std::move(attrs), 2, {"yes", "no"});
}

TEST(Schema, BasicAccessors) {
  const Schema s = tiny_schema();
  EXPECT_EQ(s.num_attributes(), 3);
  EXPECT_EQ(s.num_classes(), 2);
  EXPECT_EQ(s.class_name(0), "yes");
  EXPECT_EQ(s.attr(0).name, "color");
  EXPECT_TRUE(s.attr(0).is_categorical());
  EXPECT_FALSE(s.attr(0).ordered);
  EXPECT_TRUE(s.attr(1).is_continuous());
  EXPECT_TRUE(s.attr(2).ordered);
}

TEST(Schema, CategoricalStatistics) {
  const Schema s = tiny_schema();
  EXPECT_EQ(s.num_categorical(), 2);
  EXPECT_EQ(s.num_continuous(), 1);
  EXPECT_DOUBLE_EQ(s.mean_cardinality(), 3.5);
}

TEST(Schema, IndexOfByName) {
  const Schema s = tiny_schema();
  EXPECT_EQ(s.index_of("weight"), 1);
  EXPECT_EQ(s.index_of("size"), 2);
  EXPECT_EQ(s.index_of("missing"), -1);
}

TEST(Schema, GeneratesClassNamesWhenOmitted) {
  Schema s({Attribute::continuous("x")}, 3);
  EXPECT_EQ(s.class_name(0), "class0");
  EXPECT_EQ(s.class_name(2), "class2");
}

TEST(Dataset, RowRoundTrip) {
  Dataset ds(tiny_schema(), 2);
  const std::size_t r0 = ds.add_row(0);
  ds.set_cat(0, r0, 2);
  ds.set_cont(1, r0, 3.5);
  ds.set_cat(2, r0, 1);
  const std::size_t r1 = ds.add_row(1);
  ds.set_cat(0, r1, 0);
  ds.set_cont(1, r1, -1.0);
  ds.set_cat(2, r1, 3);

  EXPECT_EQ(ds.num_rows(), 2u);
  EXPECT_EQ(ds.cat(0, r0), 2);
  EXPECT_DOUBLE_EQ(ds.cont(1, r0), 3.5);
  EXPECT_EQ(ds.label(r0), 0);
  EXPECT_EQ(ds.cat(2, r1), 3);
  EXPECT_EQ(ds.label(r1), 1);
}

TEST(Dataset, ColumnsExposeContiguousData) {
  Dataset ds(tiny_schema(), 3);
  for (int i = 0; i < 3; ++i) {
    const std::size_t r = ds.add_row(i % 2);
    ds.set_cat(0, r, i);
    ds.set_cont(1, r, i * 1.5);
    ds.set_cat(2, r, 0);
  }
  EXPECT_EQ(ds.cat_column(0).size(), 3u);
  EXPECT_EQ(ds.cont_column(1)[2], 3.0);
  EXPECT_EQ(ds.labels(), (std::vector<std::int32_t>{0, 1, 0}));
}

TEST(Dataset, ContRange) {
  Dataset ds(tiny_schema(), 3);
  for (const double v : {4.0, -2.0, 9.5}) {
    const std::size_t r = ds.add_row(0);
    ds.set_cat(0, r, 0);
    ds.set_cont(1, r, v);
    ds.set_cat(2, r, 0);
  }
  const auto [lo, hi] = ds.cont_range(1);
  EXPECT_DOUBLE_EQ(lo, -2.0);
  EXPECT_DOUBLE_EQ(hi, 9.5);
}

TEST(Dataset, ContRangeKeepsTheSignedZeroesOfMinmaxElement) {
  // 0.0 and -0.0 compare equal: the range is the first minimum and the
  // last maximum, as std::minmax_element picks them.
  for (const std::vector<double>& col :
       {std::vector<double>{0.0, -0.0}, std::vector<double>{-0.0, 0.0},
        std::vector<double>{0.0, -0.0, 0.0, -0.0},
        std::vector<double>{-0.0, 0.0, -0.0}}) {
    Dataset ds(tiny_schema(), col.size());
    for (const double v : col) {
      const std::size_t r = ds.add_row(0);
      ds.set_cat(0, r, 0);
      ds.set_cont(1, r, v);
      ds.set_cat(2, r, 0);
    }
    const auto [lo, hi] = ds.cont_range(1);
    const auto [want_lo, want_hi] = std::minmax_element(col.begin(), col.end());
    EXPECT_EQ(std::signbit(lo), std::signbit(*want_lo));
    EXPECT_EQ(std::signbit(hi), std::signbit(*want_hi));
    EXPECT_EQ(std::signbit(lo), std::signbit(col.front()));
    EXPECT_EQ(std::signbit(hi), std::signbit(col.back()));
  }
}

/// The std::invalid_argument message `f` throws ("" if it does not).
template <class F>
std::string rejection(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Dataset, RejectsLabelsOutsideClassRange) {
  Dataset ds(tiny_schema());
  EXPECT_EQ(rejection([&] { ds.add_row(-1); }),
            "row 0, column class: label -1 is outside [0, 2)");
  EXPECT_EQ(rejection([&] { ds.add_row(2); }),
            "row 0, column class: label 2 is outside [0, 2)");
  EXPECT_EQ(ds.num_rows(), 0u) << "a rejected label adds no row";
  EXPECT_EQ(rejection([&] { ds.add_row(1); }), "");
}

TEST(Dataset, RejectsCategoriesOutsideCardinality) {
  Dataset ds(tiny_schema());
  ds.add_row(0);
  ds.add_row(1);
  EXPECT_EQ(rejection([&] { ds.set_cat(0, 1, 3); }),
            "row 1, column color: category 3 is outside [0, 3)");
  EXPECT_EQ(rejection([&] { ds.set_cat(2, 0, -1); }),
            "row 0, column size: category -1 is outside [0, 4)");
  EXPECT_EQ(rejection([&] { ds.set_cat(0, 1, 2); }), "");
}

TEST(Dataset, RejectsNonFiniteContinuousValues) {
  Dataset ds(tiny_schema());
  ds.add_row(0);
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    const std::string msg = rejection([&] { ds.set_cont(1, 0, v); });
    EXPECT_EQ(msg.rfind("row 0, column weight: value ", 0), 0u) << msg;
    EXPECT_NE(msg.find("is not finite"), std::string::npos) << msg;
  }
  EXPECT_EQ(rejection([&] { ds.set_cont(1, 0, -1e308); }), "");
}

}  // namespace
}  // namespace pdt::data
