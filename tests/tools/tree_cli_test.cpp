// pdt tree: pdt-model-v1 parsing/validation, diff divergence reporting,
// and eval reproduction of the recorded held-out accuracy.
#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/builder.hpp"
#include "dtree/metrics.hpp"
#include "dtree/serialize.hpp"
#include "json/json.hpp"
#include "tree/tree.hpp"

namespace pdt::tools {
namespace {

data::Dataset quest_binned(std::size_t n, std::uint64_t seed) {
  return data::discretize_uniform(
      data::quest_generate(n, {.function = 2, .seed = seed}),
      data::quest_paper_bins());
}

dtree::ModelMeta meta_for(std::uint64_t train_seed) {
  dtree::ModelMeta meta;
  meta.harness = "tree_cli_test";
  meta.tag = "t.P1";
  meta.formulation = "serial";
  meta.quest_function = 2;
  meta.train_seed = train_seed;
  meta.train_rows = 1500;
  meta.paper_bins = true;
  meta.eval_seed = train_seed + 9000;
  meta.eval_rows = 500;
  return meta;
}

ModelDoc parse_doc(const std::string& text, const std::string& name) {
  JsonValue root;
  std::string error;
  EXPECT_TRUE(json_parse(text, &root, &error)) << error;
  ModelDoc doc;
  doc.name = name;
  EXPECT_EQ(parse_model(root, &doc), "");
  return doc;
}

/// Grow on the recorded provenance and serialize with the honestly
/// measured held-out accuracy, exactly as bench::emit_model does.
std::string model_text(std::uint64_t train_seed,
                       std::span<const dtree::SplitAuditEntry> audit = {}) {
  const dtree::ModelMeta meta = meta_for(train_seed);
  const data::Dataset train =
      quest_binned(static_cast<std::size_t>(meta.train_rows), train_seed);
  const dtree::Tree t = dtree::grow_bfs(train, {});
  const data::Dataset eval_ds = quest_binned(
      static_cast<std::size_t>(meta.eval_rows), meta.eval_seed);
  return dtree::model_json(t, meta, audit,
                           dtree::evaluate(t, eval_ds).accuracy());
}

TEST(TreeCli, ParseModelRoundTripsTreeAndDigest) {
  const std::string text = model_text(3);
  const ModelDoc doc = parse_doc(text, "a.json");
  EXPECT_TRUE(doc.digest_match());
  EXPECT_GT(doc.tree.num_nodes(), 1);
  EXPECT_EQ(doc.computed_digest, dtree::model_digest(doc.tree));
  EXPECT_EQ(static_cast<int>(doc.nodes.size()), doc.tree.num_nodes());
  EXPECT_EQ(doc.meta.get("harness").as_string(), "tree_cli_test");
}

TEST(TreeCli, ParseModelRejectsBadDocuments) {
  ModelDoc doc;
  JsonValue root;
  std::string error;
  ASSERT_TRUE(json_parse(R"({"schema": "pdt-other-v1"})", &root, &error));
  EXPECT_NE(parse_model(root, &doc), "");

  // A structurally broken node array must fail replay validation, not
  // produce a half-built tree.
  std::string text = model_text(3);
  const std::size_t at = text.find("\"depth\":0");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 9, "\"depth\":3");
  ASSERT_TRUE(json_parse(text, &root, &error)) << error;
  EXPECT_NE(parse_model(root, &doc), "");
}

TEST(TreeCli, RecomputedDigestWinsOverTamperedRecord) {
  std::string text = model_text(3);
  const std::size_t at = text.find("\"digest\":\"");
  ASSERT_NE(at, std::string::npos);
  // Flip the first hex char of the recorded digest.
  const std::size_t c = at + std::string("\"digest\":\"").size();
  text[c] = text[c] == '0' ? '1' : '0';
  JsonValue root;
  std::string error;
  ASSERT_TRUE(json_parse(text, &root, &error)) << error;
  ModelDoc doc;
  doc.name = "tampered.json";
  ASSERT_EQ(parse_model(root, &doc), "");  // tampering is flagged, not fatal
  EXPECT_FALSE(doc.digest_match());

  std::ostringstream os;
  EXPECT_EQ(run_inspect(doc, os), kExitOk);  // inspect stays informational
  EXPECT_NE(os.str().find("WARNING"), std::string::npos);
  EXPECT_NE(os.str().find("tampered.json"), std::string::npos);
}

TEST(TreeCli, DiffIdenticalModelsExitsOk) {
  const ModelDoc a = parse_doc(model_text(3), "a.json");
  const ModelDoc b = parse_doc(model_text(3), "b.json");
  std::ostringstream os;
  EXPECT_EQ(run_diff(a, b, os), kExitOk);
  EXPECT_NE(os.str().find("identical"), std::string::npos);
}

TEST(TreeCli, DiffDivergentModelsNamesTheFirstNode) {
  const ModelDoc a = parse_doc(model_text(3), "a.json");
  const ModelDoc b = parse_doc(model_text(4), "b.json");
  std::ostringstream os;
  EXPECT_EQ(run_diff(a, b, os), kExitFail);
  EXPECT_NE(os.str().find("first divergent node: canonical id"),
            std::string::npos);
}

TEST(TreeCli, AuditMarginLookupFindsRecordedEntries) {
  std::vector<dtree::SplitAuditEntry> audit(1);
  audit[0].node_id = 0;
  audit[0].gain = 0.25;
  audit[0].runner_up_gain = 0.1;
  audit[0].runner_up_attr = 5;
  audit[0].level = 0;
  const ModelDoc doc = parse_doc(model_text(3, audit), "a.json");
  const AuditMargin m = audit_margin(doc, 0);
  ASSERT_TRUE(m.found);
  EXPECT_DOUBLE_EQ(m.gain, 0.25);
  EXPECT_DOUBLE_EQ(m.runner_up_gain, 0.1);
  EXPECT_EQ(m.runner_up_attr, 5);
  EXPECT_FALSE(audit_margin(doc, 1).found);  // only node 0 was recorded
}

TEST(TreeCli, EvalReproducesRecordedAccuracyExactly) {
  const ModelDoc doc = parse_doc(model_text(3), "a.json");
  std::ostringstream os;
  EXPECT_EQ(run_eval(doc, os), kExitOk);
  EXPECT_NE(os.str().find("recorded accuracy reproduced exactly"),
            std::string::npos);
}

TEST(TreeCli, EvalFailsOnTamperedAccuracy) {
  std::string text = model_text(3);
  const std::size_t at = text.find("\"accuracy\":");
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = text.find("}", at);
  text.replace(at, end - at, "\"accuracy\":0.125");
  JsonValue root;
  std::string error;
  ASSERT_TRUE(json_parse(text, &root, &error)) << error;
  ModelDoc doc;
  doc.name = "tampered.json";
  ASSERT_EQ(parse_model(root, &doc), "");
  std::ostringstream os;
  EXPECT_EQ(run_eval(doc, os), kExitFail);
  EXPECT_NE(os.str().find("does not reproduce"), std::string::npos);
}

TEST(TreeCli, EvalWithoutProvenanceFailsCleanly) {
  const data::Dataset train = quest_binned(800, 9);
  const dtree::Tree t = dtree::grow_bfs(train, {});
  dtree::ModelMeta meta;  // eval_seed 0: nothing recorded
  meta.harness = "tree_cli_test";
  const ModelDoc doc = parse_doc(dtree::model_json(t, meta), "a.json");
  std::ostringstream os;
  EXPECT_EQ(run_eval(doc, os), kExitFail);
  EXPECT_NE(os.str().find("cannot evaluate"), std::string::npos);
}

}  // namespace
}  // namespace pdt::tools
