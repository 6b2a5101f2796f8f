// The shared JSON codec (src/json) and the model-node reader built on it:
// the number rule against the printf/strtod loop it replaced, bit-exact
// writer -> reader round trips, model documents of every split kind read
// back to the same tree and digest, out-of-range numbers rejected
// cleanly, and the checkpoint loader's canonical re-serialization check.
#include "json/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/ckpt.hpp"
#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/builder.hpp"
#include "dtree/serialize.hpp"
#include "dtree/sha256.hpp"

namespace pdt {
namespace {

/// The snprintf/strtod loop json_double_exact replaced: the reference
/// the model digests were pinned with.
std::string reference_double_text(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  for (const int prec : {15, 16, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

double from_bits(std::uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

std::uint64_t bits_of(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof d);
  return bits;
}

/// Every threshold of the serial trees golden_digest_test pins (the
/// Fig-6 binned and Fig-8 k-means configurations).
std::vector<double> golden_tree_thresholds() {
  const data::Dataset raw =
      data::quest_generate(20000, {.function = 2, .seed = 1});
  core::ParOptions fig8;
  fig8.grow.cont_split = dtree::ContSplit::KMeans;
  fig8.grow.cont_bins = 32;
  fig8.grow.per_node_bins = 8;
  fig8.grow.min_records = 8;
  std::vector<double> out;
  for (const dtree::Tree& t :
       {core::build_serial(data::discretize_uniform(raw,
                                                    data::quest_paper_bins()),
                           {})
            .tree,
        core::build_serial(raw, fig8).tree}) {
    for (int id = 0; id < t.num_nodes(); ++id) {
      const dtree::SplitTest& test = t.node(id).test;
      if (test.kind == dtree::SplitTest::Kind::Threshold) {
        out.push_back(test.threshold);
      }
    }
  }
  return out;
}

TEST(JsonDoubleExact, MatchesThePrintfStrtodReference) {
  std::vector<double> inputs;
  std::mt19937_64 rng(20240601);
  // 1M seeded doubles: half arbitrary bit patterns (every exponent), half
  // in the ranges the artifacts carry (ratios, microsecond clocks).
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 500000; ++i) {
    inputs.push_back(from_bits(rng()));
    inputs.push_back(unit(rng) * (i % 2 == 0 ? 1.0 : 1e7));
  }
  for (int i = 0; i < 20000; ++i) {  // subnormals: zero exponent field
    const double d = from_bits(rng() & ((std::uint64_t{1} << 52) - 1));
    inputs.push_back(d);
    inputs.push_back(-d);
  }
  for (int e = -325; e <= 308; ++e) {
    const std::string text = "1e" + std::to_string(e);
    inputs.push_back(std::strtod(text.c_str(), nullptr));
  }
  for (double x = 1.0; x <= 9007199254740992.0; x *= 2.0) {  // to 2^53
    inputs.push_back(x - 1.0);
    inputs.push_back(x);
    inputs.push_back(x + 1.0);
  }
  for (int i = 0; i <= 10000; ++i) inputs.push_back(i);
  inputs.insert(inputs.end(),
                {0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN,
                 std::numeric_limits<double>::denorm_min(), 0.1, 0.1 + 0.2,
                 1.0 / 3.0, 100000.0, 1e15, 1e16, 1e17, 123456789012345678.0});
  const std::vector<double> thresholds = golden_tree_thresholds();
  ASSERT_GT(thresholds.size(), 10u);
  inputs.insert(inputs.end(), thresholds.begin(), thresholds.end());

  std::size_t mismatches = 0;
  for (const double v : inputs) {
    const std::string got = json_double_exact(v);
    const std::string want = reference_double_text(v);
    if (got != want && mismatches++ < 5) {
      ADD_FAILURE() << "bits " << std::hex << bits_of(v) << ": got " << got
                    << ", reference " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << inputs.size() << " inputs";
  EXPECT_EQ(json_double_exact(100000.0), "100000");  // not 1e+05
  EXPECT_EQ(json_double_exact(std::nan("")), "null");
}

TEST(JsonWriter, RoundTripsEveryDoubleBitExactlyThroughJsonParse) {
  std::vector<double> values = {0.0,     -0.0,     DBL_MAX, -DBL_MAX,
                                DBL_MIN, 1e-310,   0.1,     1.0 / 3.0,
                                100000.0, 9007199254740993.0};
  std::mt19937_64 rng(7);
  while (values.size() < 200000) {
    const double d = from_bits(rng());
    if (std::isfinite(d)) values.push_back(d);
  }
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  for (const double v : values) w.value(v);
  w.end_array();

  JsonValue root;
  std::string err;
  ASSERT_TRUE(json_parse(os.str(), &root, &err)) << err;
  ASSERT_EQ(root.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(bits_of(root.at(i).as_double()), bits_of(values[i]))
        << "value " << i << " written as " << json_serialize(root.at(i));
  }
}

TEST(JsonValue, AsIntFallsBackOutsideTheInt64Range) {
  JsonValue v;
  ASSERT_TRUE(json_parse("[1e300,-1e300,-9.3e18,9.3e18,-9.2e18,42.9]", &v));
  EXPECT_EQ(v.at(0).as_int(-7), -7);
  EXPECT_EQ(v.at(1).as_int(-7), -7);
  EXPECT_EQ(v.at(2).as_int(-7), -7);
  EXPECT_EQ(v.at(3).as_int(-7), -7);
  EXPECT_EQ(v.at(4).as_int(-7), -9200000000000000000);
  EXPECT_EQ(v.at(5).as_int(-7), 42);  // in range: truncates as before
}

dtree::Tree read_back(const std::string& doc) {
  JsonValue root;
  std::string err;
  EXPECT_TRUE(json_parse(doc, &root, &err)) << err;
  std::vector<dtree::NodeSpec> nodes;
  EXPECT_EQ(dtree::nodes_from_json(root.get("nodes"), &nodes), "");
  dtree::Tree back;
  EXPECT_EQ(dtree::tree_from_nodes(nodes, &back), "");
  return back;
}

TEST(NodeReader, ModelJsonReadsBackEverySplitKind) {
  const data::Dataset raw =
      data::quest_generate(3000, {.function = 2, .seed = 5});
  const data::Dataset binned =
      data::discretize_uniform(raw, data::quest_paper_bins());
  dtree::GrowOptions multiway;
  multiway.policy = dtree::SplitPolicy::Multiway;
  std::set<dtree::SplitTest::Kind> kinds;
  for (const dtree::Tree& t :
       {dtree::grow_bfs(raw, {}), dtree::grow_bfs(binned, {}),
        dtree::grow_bfs(binned, multiway)}) {
    const dtree::Tree back = read_back(dtree::model_json(t, {}));
    EXPECT_EQ(dtree::canonical_nodes_json(back),
              dtree::canonical_nodes_json(t));
    EXPECT_EQ(dtree::model_digest(back), dtree::model_digest(t));
    EXPECT_TRUE(back.same_as(t));
    for (int id = 0; id < back.num_nodes(); ++id) {
      kinds.insert(back.node(id).test.kind);
    }
  }
  using Kind = dtree::SplitTest::Kind;
  for (const Kind k : {Kind::Threshold, Kind::OrderedSlot, Kind::Subset,
                       Kind::Multiway}) {
    EXPECT_EQ(kinds.count(k), 1u) << "no tree exercised kind "
                                  << static_cast<int>(k);
  }
}

TEST(NodeReader, RejectsNonIntegralAndOutOfRangeNumbers) {
  const std::string leaf_prefix =
      R"({"schema":"pdt-model-v1","nodes":[{"id":0,"parent":-1,)"
      R"("first_child":-1,"depth":0,"majority":0,)";
  const struct {
    const char* fields;
    const char* error;
  } cases[] = {
      {R"("counts":[1e300],"kind":"leaf")", "node 0: bad class count"},
      {R"("counts":[-1e300],"kind":"leaf")", "node 0: bad class count"},
      {R"("counts":[2.5],"kind":"leaf")", "node 0: bad class count"},
  };
  for (const auto& c : cases) {
    JsonValue root;
    ASSERT_TRUE(json_parse(leaf_prefix + c.fields + "}]}", &root));
    std::vector<dtree::NodeSpec> nodes;
    EXPECT_EQ(dtree::nodes_from_json(root.get("nodes"), &nodes), c.error);
  }

  const struct {
    const char* node;
    const char* error;
  } bad_ints[] = {
      {R"({"id":1.5,"parent":-1,"first_child":-1,"depth":0,"majority":0,)"
       R"("counts":[3],"kind":"leaf"})",
       "node 0: id is not an integer in range"},
      {R"({"id":0,"parent":-1e300,"first_child":-1,"depth":0,"majority":0,)"
       R"("counts":[3],"kind":"leaf"})",
       "node 0: parent is not an integer in range"},
      {R"({"id":0,"parent":-1,"first_child":1,"depth":0,"majority":0,)"
       R"("counts":[3,1],"kind":"threshold","attr":0.5,"children":2,)"
       R"("threshold":0.5,"slot":3})",
       "node 0: attr is not an integer in range"},
      {R"({"id":0,"parent":-1,"first_child":1,"depth":0,"majority":0,)"
       R"("counts":[3,1],"kind":"ordered_slot","attr":2,"children":2,)"
       R"("slot":9e18})",
       "node 0: slot is not an integer in range"},
  };
  for (const auto& c : bad_ints) {
    JsonValue root;
    ASSERT_TRUE(json_parse(std::string("[") + c.node + "]", &root));
    std::vector<dtree::NodeSpec> nodes;
    EXPECT_EQ(dtree::nodes_from_json(root, &nodes), c.error) << c.node;
  }
}

/// A checkpoint whose tree section is valid JSON for the right tree, but
/// not the canonical bytes (re-spaced; section SHA and meta tree_digest
/// recomputed so every checksum holds), must not be resumed from.
TEST(CkptResume, NonCanonicalTreeSectionIsRejected) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "json_noncanonical";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(2000, {.function = 2, .seed = 3}),
      data::quest_paper_bins());
  core::ParOptions opt;
  opt.num_procs = 4;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 1000;
  const core::ParResult full = core::build(core::Formulation::Sync, ds, opt);
  ASSERT_GT(full.recovery.durable_checkpoints, 1);

  const core::CheckpointStore store(dir.string(), 1000);
  const std::string path = store.epoch_path(store.latest_epoch());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  core::RunSnapshot snap;
  ASSERT_EQ(core::parse_ckpt(bytes, &snap), "");
  std::string respaced;
  for (const char c : snap.tree_json) {
    respaced += c;
    if (c == ',') respaced += ' ';
  }
  JsonValue same_nodes;
  ASSERT_TRUE(json_parse(respaced, &same_nodes));  // still valid JSON
  snap.tree_json = respaced;
  snap.tree_digest = dtree::sha256_hex(respaced);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << core::ckpt_text(snap);
  }
  core::RunSnapshot reread;
  ASSERT_EQ(core::parse_ckpt(core::ckpt_text(snap), &reread), "");

  core::ParOptions ropt = opt;
  ropt.resume = true;
  try {
    (void)core::build(core::Formulation::Sync, ds, ropt);
    ADD_FAILURE() << "resumed from a non-canonical tree section";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not canonical"), std::string::npos)
        << e.what();
  }

  // The untouched previous epoch still resumes to the identical tree.
  ropt.resume_epoch = store.latest_epoch() - 1;
  const core::ParResult resumed =
      core::build(core::Formulation::Sync, ds, ropt);
  EXPECT_TRUE(resumed.recovery.resumed);
  EXPECT_TRUE(resumed.tree.same_as(full.tree));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pdt
