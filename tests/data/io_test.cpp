#include "data/io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/golf.hpp"
#include "data/quest.hpp"
#include "dtree/builder.hpp"

namespace pdt::data {
namespace {

TEST(Csv, GolfRoundTrip) {
  const Dataset original = golf_dataset();
  std::stringstream buf;
  save_csv(original, buf);
  const Dataset loaded = load_csv(buf);

  ASSERT_EQ(loaded.num_rows(), original.num_rows());
  ASSERT_EQ(loaded.num_attributes(), original.num_attributes());
  EXPECT_EQ(loaded.schema().num_classes(), 2);
  for (std::size_t i = 0; i < original.num_rows(); ++i) {
    EXPECT_EQ(loaded.label(i), original.label(i));
    EXPECT_EQ(loaded.cat(golf_attr::kOutlook, i),
              original.cat(golf_attr::kOutlook, i));
    EXPECT_DOUBLE_EQ(loaded.cont(golf_attr::kHumidity, i),
                     original.cont(golf_attr::kHumidity, i));
  }
}

TEST(Csv, QuestRoundTripPreservesDoublesExactly) {
  const Dataset original = quest_generate(50, {.function = 7, .seed = 2});
  std::stringstream buf;
  save_csv(original, buf);
  const Dataset loaded = load_csv(buf);
  ASSERT_EQ(loaded.num_rows(), original.num_rows());
  for (std::size_t i = 0; i < original.num_rows(); ++i) {
    for (int a = 0; a < original.num_attributes(); ++a) {
      if (original.schema().attr(a).is_continuous()) {
        EXPECT_DOUBLE_EQ(loaded.cont(a, i), original.cont(a, i));
      } else {
        EXPECT_EQ(loaded.cat(a, i), original.cat(a, i));
      }
    }
  }
}

TEST(Csv, HeaderEncodesSchema) {
  const Dataset original = golf_dataset();
  std::stringstream buf;
  save_csv(original, buf);
  const Dataset loaded = load_csv(buf);
  EXPECT_EQ(loaded.schema().attr(0).name, "Outlook");
  EXPECT_TRUE(loaded.schema().attr(0).is_categorical());
  EXPECT_EQ(loaded.schema().attr(0).cardinality, 3);
  EXPECT_TRUE(loaded.schema().attr(1).is_continuous());
}

TEST(Csv, OrderedFlagSurvives) {
  Schema s({Attribute::categorical("bin", 4, /*ordered=*/true),
            Attribute::categorical("nom", 3)},
           2);
  Dataset ds(s, 1);
  const std::size_t r = ds.add_row(1);
  ds.set_cat(0, r, 2);
  ds.set_cat(1, r, 1);
  std::stringstream buf;
  save_csv(ds, buf);
  const Dataset loaded = load_csv(buf);
  EXPECT_TRUE(loaded.schema().attr(0).ordered);
  EXPECT_FALSE(loaded.schema().attr(1).ordered);
}

TEST(Csv, RejectsMalformedInput) {
  std::stringstream empty;
  EXPECT_THROW((void)load_csv(empty), std::runtime_error);

  std::stringstream bad_header("foo,class:cat:2\n");
  EXPECT_THROW((void)load_csv(bad_header), std::runtime_error);

  std::stringstream bad_row("x:cont,class:cat:2\n1.0\n");
  EXPECT_THROW((void)load_csv(bad_row), std::runtime_error);
}

/// The std::invalid_argument message load_csv throws for `text`.
std::string csv_rejection(const std::string& text) {
  std::stringstream in(text);
  try {
    (void)load_csv(in);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Csv, RejectsOutOfRangeLabelsAndCategoriesByLine) {
  const std::string header = "x:cont,c:cat:3,class:cat:2\n";
  EXPECT_EQ(csv_rejection(header + "1.0,0,0\n1.0,0,-1\n"),
            "csv line 3: row 1, column class: label -1 is outside [0, 2)");
  EXPECT_EQ(csv_rejection(header + "1.0,0,2\n"),
            "csv line 2: row 0, column class: label 2 is outside [0, 2)");
  EXPECT_EQ(csv_rejection(header + "1.0,0,0\n\n1.0,3,1\n"),
            "csv line 4: row 1, column c: category 3 is outside [0, 3)");
  EXPECT_EQ(csv_rejection(header + "1.0,2,1\n"), "");
}

TEST(Csv, RejectsNonFiniteValuesByLine) {
  const std::string header = "x:cont,class:cat:2\n";
  for (const std::string v : {"nan", "inf", "-inf"}) {
    const std::string msg = csv_rejection(header + "0.5,1\n" + v + ",0\n");
    EXPECT_EQ(msg.rfind("csv line 3: row 1, column x: value ", 0), 0u) << msg;
    EXPECT_NE(msg.find("is not finite"), std::string::npos) << msg;
  }
}

TEST(Csv, RejectsSchemasWithFewerThanTwoClassesOrEmptyCategories) {
  EXPECT_EQ(csv_rejection("x:cont,class:cat:1\n0.5,0\n"),
            "schema: need at least 2 classes, got 1");
  EXPECT_EQ(csv_rejection("x:cont,class:cat:0\n"),
            "schema: need at least 2 classes, got 0");
  EXPECT_EQ(csv_rejection("c:cat:0,class:cat:2\n"),
            "schema: categorical attribute c has cardinality 0 (want >= 1)");
  EXPECT_EQ(csv_rejection("c:cat:-3,class:cat:2\n"),
            "schema: categorical attribute c has cardinality -3 (want >= 1)");
  EXPECT_EQ(csv_rejection("c:cat:1,class:cat:2\n0,1\n"), "");
}

/// The std::invalid_argument message core::build_serial throws on the
/// dataset `text` loads to.
std::string build_rejection(const std::string& text) {
  std::stringstream in(text);
  const Dataset ds = load_csv(in);
  try {
    (void)core::build_serial(ds, core::ParOptions{});
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Csv, CountTablePastIntRangeIsRejectedNamingTheAttribute) {
  // 2^30 slots x 4 classes = 2^32 cells, past the int range.
  const std::string msg =
      build_rejection("a:cat:1073741824,class:cat:4\n7,3\n");
  EXPECT_NE(msg.find("at attribute a ("), std::string::npos) << msg;
  EXPECT_NE(msg.find("1073741824 slots x 4 classes"), std::string::npos)
      << msg;
}

TEST(Csv, HeaderOnlyInputLoadsButCannotBeBuilt) {
  std::stringstream in("x:cont,class:cat:2\n");
  const Dataset ds = load_csv(in);
  EXPECT_EQ(ds.num_rows(), 0u);
  EXPECT_EQ(build_rejection("x:cont,class:cat:2\n"),
            "cannot build a tree from an empty dataset");
  EXPECT_EQ(build_rejection("c:cat:3,class:cat:2\n"),
            "cannot build a tree from an empty dataset");
  EXPECT_THROW((void)dtree::grow_bfs(ds, dtree::GrowOptions{}),
               std::invalid_argument);
}

TEST(Csv, HeaderOnlyInputCannotBeDiscretized) {
  // The bins span each column's range; without rows there is none. This
  // must throw in every build type, not fail an assert or read past an
  // empty column.
  std::stringstream in("x:cont,c:cat:3,class:cat:2\n");
  const Dataset ds = load_csv(in);
  try {
    (void)discretize_uniform(ds, {4, 0});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "cannot discretize an empty dataset");
  }
}

TEST(Csv, FileRoundTrip) {
  const Dataset original = golf_dataset();
  const std::string path = ::testing::TempDir() + "/golf_io_test.csv";
  save_csv_file(original, path);
  const Dataset loaded = load_csv_file(path);
  EXPECT_EQ(loaded.num_rows(), original.num_rows());
  EXPECT_THROW((void)load_csv_file(path + ".missing"), std::runtime_error);
}

}  // namespace
}  // namespace pdt::data
