// pdt trend: the pdt-runs-v1 registry, the changepoint gate against the
// trailing window, and the (phase, level) regression explanation.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "trend/trend.hpp"

namespace pdt::tools {
namespace {

ReportInput parse(const std::string& name, const std::string& text) {
  ReportInput in;
  in.name = name;
  std::string error;
  EXPECT_TRUE(json_parse(text, &in.root, &error)) << error;
  return in;
}

/// One bench envelope carrying one repeat: a speedup point and an
/// instrumented_run whose host time splits across two (phase, level)
/// cells.
std::string envelope(double time_us, double build_ns, double comm_ns) {
  std::ostringstream os;
  os << R"({"schema": "pdt-bench-v1", "harness": "fig6_speedup",
    "fingerprint": {"git_sha": "abc123def456", "git_dirty": false},
    "sections": [
      {"type": "speedup_series", "workload": "0.8M", "formulation": "hybrid",
       "points": [{"procs": 8, "time_us": )"
     << json_double_exact(time_us)
     << R"(, "speedup": 4.0, "efficiency": 0.5}]},
      {"type": "instrumented_run", "tag": "hybrid.P8",
       "formulation": "hybrid", "procs": 8,
       "host": {"schema": "pdt-host-v1", "total_ns": )"
     << json_double_exact(build_ns + comm_ns) << R"(, "phases": [
         {"phase": "build", "level": 0, "total_ns": )"
     << json_double_exact(build_ns) << R"(, "virtual_us": 500.0},
         {"phase": "comm", "level": 1, "total_ns": )"
     << json_double_exact(comm_ns) << R"(, "virtual_us": 200.0}
       ]}}
    ]})";
  return os.str();
}

RunRecord record(std::int64_t seq, double time_us, double build_ns,
                 double comm_ns) {
  const std::vector<ReportInput> inputs{
      parse("r0.json", envelope(time_us, build_ns, comm_ns)),
      parse("r1.json", envelope(time_us, build_ns * 1.02, comm_ns)),
      parse("r2.json", envelope(time_us, build_ns * 0.98, comm_ns))};
  RunRecord rec = record_from_envelopes(inputs);
  rec.seq = seq;
  rec.timestamp = "2026-08-0" + std::to_string(seq) + "T00:00:00Z";
  return rec;
}

TEST(TrendRecord, FoldsRepeatsIntoOneRecordWithCellsAndFingerprint) {
  const RunRecord rec = record(1, 1000.0, 80e6, 20e6);
  // Virtual tuples dedupe across the deterministic repeats.
  ASSERT_EQ(rec.virt.size(), 1u);
  EXPECT_EQ(rec.virt[0].procs, 8);
  EXPECT_DOUBLE_EQ(rec.virt[0].time_us, 1000.0);

  ASSERT_EQ(rec.host.size(), 1u);
  EXPECT_EQ(rec.host[0].entry.tag, "hybrid.P8");
  EXPECT_EQ(rec.host[0].entry.k, 3);
  // Cells carry the median across repeats: build saw {80, 81.6, 78.4}e6.
  ASSERT_EQ(rec.host[0].cells.size(), 2u);
  EXPECT_EQ(rec.host[0].cells[0].phase, "build");
  EXPECT_DOUBLE_EQ(rec.host[0].cells[0].host_ns, 80e6);
  EXPECT_DOUBLE_EQ(rec.host[0].cells[0].virtual_us, 500.0);
  EXPECT_EQ(rec.host[0].cells[1].phase, "comm");
  EXPECT_DOUBLE_EQ(rec.host[0].cells[1].host_ns, 20e6);

  EXPECT_EQ(rec.fingerprint.get("git_sha").as_string(), "abc123def456");
}

TEST(TrendRegistry, LineRoundTripIsExactAndToleratesBlankLines) {
  std::vector<RunRecord> runs{record(1, 1000.0, 80e6, 20e6),
                              record(2, 1001.0, 81e6, 21e6)};
  runs[0].label = "run \"a\"";  // escaping must survive the round trip
  const std::string text = "\n" + registry_text(runs) + "  \n";

  std::vector<RunRecord> back;
  std::string error;
  ASSERT_TRUE(parse_registry(text, &back, &error)) << error;
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].seq, 1);
  EXPECT_EQ(back[0].label, "run \"a\"");
  EXPECT_EQ(back[0].timestamp, runs[0].timestamp);
  EXPECT_EQ(back[0].fingerprint.get("git_sha").as_string(), "abc123def456");
  ASSERT_EQ(back[0].host.size(), 1u);
  EXPECT_EQ(back[0].host[0].entry.median_ns, runs[0].host[0].entry.median_ns)
      << "bit-exact";
  EXPECT_EQ(back[0].host[0].entry.mad_ns, runs[0].host[0].entry.mad_ns);
  ASSERT_EQ(back[0].host[0].cells.size(), 2u);
  EXPECT_EQ(back[0].host[0].cells[0].host_ns, runs[0].host[0].cells[0].host_ns);
  EXPECT_EQ(back[1].virt[0].time_us, runs[1].virt[0].time_us);

  // Re-serializing the parsed registry reproduces the bytes.
  EXPECT_EQ(registry_text(back), registry_text(runs));
}

TEST(TrendRegistry, RejectsMalformedLinesWithLineNumbers) {
  std::vector<RunRecord> out;
  std::string error;
  EXPECT_FALSE(parse_registry("{\"schema\": \"pdt-bench-v1\"}", &out, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_NE(error.find("pdt-runs-v1"), std::string::npos);

  const std::string good = record_line(record(1, 1000.0, 80e6, 20e6));
  EXPECT_FALSE(parse_registry(good + "\nnot json\n", &out, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);

  // Empty/whitespace-only text is an empty registry, not an error.
  EXPECT_TRUE(parse_registry("", &out, &error));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(parse_registry("\n  \n", &out, &error));
  EXPECT_TRUE(out.empty());
}

TEST(TrendIngest, FoldsCommittedBaselinesAndRejectsUnknownSchemas) {
  RunRecord rec;
  std::string error;
  const ReportInput virt = parse("v.json", R"({
    "schema": "pdt-diff-baseline-v1",
    "entries": [{"harness": "fig6_speedup", "workload": "0.8M",
                 "formulation": "hybrid", "procs": 8, "time_us": 1000.0,
                 "speedup": 4.0, "efficiency": 0.5}]})");
  ASSERT_TRUE(record_from_artifact(virt, &rec, &error)) << error;
  ASSERT_EQ(rec.virt.size(), 1u);
  EXPECT_TRUE(rec.host.empty());

  const ReportInput host = parse("h.json", R"({
    "schema": "pdt-host-baseline-v1",
    "entries": [{"harness": "fig6_speedup", "tag": "hybrid.P8",
                 "formulation": "hybrid", "procs": 8, "k": 3,
                 "median_ns": 100000000.0, "mad_ns": 1000000.0}]})");
  EXPECT_FALSE(record_from_artifact(host, &rec, &error))
      << "host baselines are no longer a schema";
  EXPECT_NE(error.find("pdt-host-baseline-v1"), std::string::npos);

  const ReportInput bad = parse("m.json", R"({"schema": "pdt-mem-v1"})");
  EXPECT_FALSE(record_from_artifact(bad, &rec, &error));
  EXPECT_NE(error.find("pdt-mem-v1"), std::string::npos);
}

// ---------------------------------------------------------------- check --

/// A registry of `n` flat-but-jittery runs around the given centers.
std::vector<RunRecord> flat_registry(int n) {
  std::vector<RunRecord> runs;
  for (int i = 0; i < n; ++i) {
    // Host jitter of a few percent, alternating sign; virtual bit-flat.
    const double jitter = 1.0 + 0.03 * (i % 2 == 0 ? 1 : -1);
    runs.push_back(
        record(i + 1, 1000.0, 80e6 * jitter, 20e6 * jitter));
  }
  return runs;
}

TEST(TrendCheck, JitteryButFlatRegistryPasses) {
  const std::vector<RunRecord> runs = flat_registry(6);
  std::ostringstream os;
  std::string doc;
  EXPECT_EQ(run_trend_check(runs, TrendOptions{}, os, &doc), 0);
  EXPECT_NE(os.str().find("OK: 0 tuples regressed"), std::string::npos);
  EXPECT_NE(doc.find("\"schema\": \"pdt-trend-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"verdict\": \"ok\""), std::string::npos);
  EXPECT_EQ(doc.find("REGRESSION"), std::string::npos);
}

TEST(TrendCheck, InjectedStepRegressionFailsAndExplainNamesTheCell) {
  std::vector<RunRecord> runs = flat_registry(5);
  // Step regression in the latest run: the comm L1 cell triples the
  // tuple's host time while build stays put.
  RunRecord bad = record(6, 1000.0, 80e6, 220e6);
  runs.push_back(std::move(bad));

  std::ostringstream os;
  std::string doc;
  EXPECT_EQ(run_trend_check(runs, TrendOptions{}, os, &doc), 1);
  EXPECT_NE(os.str().find("FAIL    [host] fig6_speedup hybrid.P8"),
            std::string::npos);
  EXPECT_NE(os.str().find("REGRESSION: 1 tuple regressed"),
            std::string::npos);
  // The pdt-trend-v1 doc carries the changepoint and the explain summary
  // blaming the comm L1 cell.
  EXPECT_NE(doc.find("\"verdict\": \"REGRESSION\""), std::string::npos);
  EXPECT_NE(doc.find("\"direction\": \"up\""), std::string::npos);
  const std::size_t explain = doc.find("\"explain\": [");
  ASSERT_NE(explain, std::string::npos);
  // comm ranks first (delta 200e6 vs build's ~0).
  const std::size_t comm = doc.find("{\"phase\": \"comm\", \"level\": 1",
                                    explain);
  EXPECT_NE(comm, std::string::npos);

  // explain on the CLI side names the same cell first.
  std::ostringstream ex;
  EXPECT_TRUE(run_trend_explain(runs, "", TrendOptions{}, ex));
  const std::string out = ex.str();
  const std::size_t top = out.find("top cells by |delta|:");
  ASSERT_NE(top, std::string::npos);
  const std::size_t comm_pos = out.find("comm L1", top);
  const std::size_t build_pos = out.find("build L0", top);
  ASSERT_NE(comm_pos, std::string::npos);
  EXPECT_TRUE(build_pos == std::string::npos || comm_pos < build_pos)
      << "comm L1 must rank above build L0:\n"
      << out;
  EXPECT_NE(out.find("abc123def456"), std::string::npos)
      << "explain names the builds";
}

TEST(TrendCheck, ImprovementIsAChangepointButNotAFailure) {
  std::vector<RunRecord> runs = flat_registry(5);
  runs.push_back(record(6, 1000.0, 20e6, 5e6));  // 4x faster
  std::ostringstream os;
  std::string doc;
  EXPECT_EQ(run_trend_check(runs, TrendOptions{}, os, &doc), 0);
  EXPECT_NE(os.str().find("IMPROVED"), std::string::npos);
  EXPECT_NE(doc.find("\"verdict\": \"IMPROVED\""), std::string::npos);
}

TEST(TrendCheck, MadBandForgivesJitterThatPlainTolWouldCatch) {
  // Latest median 160 ms (MAD 10 ms) against a one-record window at
  // 100 ms, whose own across-run MAD is 0.
  std::vector<RunRecord> runs(2);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs[i].seq = static_cast<std::int64_t>(i) + 1;
    TrendHostTuple t;
    t.entry = {"fig6_speedup", "hybrid.P8", "hybrid", 8, 3,
               i == 0 ? 100e6 : 160e6, 10e6};
    runs[i].host.push_back(std::move(t));
  }

  // 60% drift: past any sane relative tolerance alone...
  TrendOptions strict;
  strict.tol = 0.1;
  strict.mad_k = 0.0;
  std::ostringstream os1;
  EXPECT_EQ(run_trend_check(runs, strict, os1, nullptr), 1);
  EXPECT_NE(os1.str().find("FAIL    [host]"), std::string::npos);

  // ...but inside the measured jitter band:
  // 5 * 1.4826 * (0 + 10 ms) = 74.13 ms >= 60 ms drift.
  TrendOptions noisy;
  noisy.tol = 0.0;
  noisy.mad_k = 5.0;
  std::ostringstream os2;
  EXPECT_EQ(run_trend_check(runs, noisy, os2, nullptr), 0);
  EXPECT_NE(os2.str().find("band ±74.130 ms"), std::string::npos)
      << os2.str();
}

TEST(TrendCheck, VirtualDriftPastVtolFails) {
  std::vector<RunRecord> runs = flat_registry(3);
  runs.push_back(record(4, 1100.0, 80e6, 20e6));  // +10% virtual time
  std::ostringstream os;
  EXPECT_EQ(run_trend_check(runs, TrendOptions{}, os, nullptr), 1);
  EXPECT_NE(os.str().find("FAIL    [virt]"), std::string::npos);

  TrendOptions loose;
  loose.vtol = 0.2;
  std::ostringstream os2;
  EXPECT_EQ(run_trend_check(runs, loose, os2, nullptr), 0);
}

TEST(TrendCheck, TupleMissingFromLatestRunWarnsButPasses) {
  std::vector<RunRecord> runs = flat_registry(3);
  RunRecord narrow;  // a narrowed harness run: virtual tuple only
  narrow.seq = 4;
  narrow.virt = runs[0].virt;
  runs.push_back(std::move(narrow));
  std::ostringstream os;
  EXPECT_EQ(run_trend_check(runs, TrendOptions{}, os, nullptr), 0);
  EXPECT_NE(os.str().find("MISSING [host]"), std::string::npos);
  EXPECT_NE(os.str().find("warning"), std::string::npos);
}

TEST(TrendCheck, FewerThanTwoRunsIsVacuouslyOk) {
  std::ostringstream os;
  EXPECT_EQ(run_trend_check({}, TrendOptions{}, os, nullptr), 0);
  const std::vector<RunRecord> one = flat_registry(1);
  std::ostringstream os2;
  EXPECT_EQ(run_trend_check(one, TrendOptions{}, os2, nullptr), 0);
  EXPECT_NE(os2.str().find("no history"), std::string::npos);
}

TEST(TrendCheck, DocIsDeterministic) {
  const std::vector<RunRecord> runs = flat_registry(4);
  std::ostringstream os1, os2;
  std::string d1, d2;
  (void)run_trend_check(runs, TrendOptions{}, os1, &d1);
  (void)run_trend_check(runs, TrendOptions{}, os2, &d2);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(os1.str(), os2.str());
}

std::string model_envelope(const std::string& digest, double accuracy) {
  std::ostringstream os;
  os << R"({"schema": "pdt-bench-v1", "harness": "fig6_speedup",
    "fingerprint": {"git_sha": "abc123def456", "git_dirty": false},
    "sections": [
      {"type": "model", "tag": "hybrid.P8", "formulation": "hybrid",
       "procs": 8, "digest": ")"
     << digest << R"(", "nodes": 101, "leaves": 51, "depth": 9,
       "eval_seed": 9007, "eval_rows": 2000, "accuracy": )"
     << json_double_exact(accuracy) << R"(}]})";
  return os.str();
}

RunRecord model_record(std::int64_t seq, const std::string& digest,
                       double accuracy) {
  // Two repeats with identical model sections: the tuple dedupes.
  const std::vector<ReportInput> inputs{
      parse("m0.json", model_envelope(digest, accuracy)),
      parse("m1.json", model_envelope(digest, accuracy))};
  RunRecord rec = record_from_envelopes(inputs);
  rec.seq = seq;
  rec.timestamp = "2026-08-0" + std::to_string(seq) + "T00:00:00Z";
  return rec;
}

TEST(TrendModel, RecordExtractsAndRegistryRoundTripsModelTuples) {
  const RunRecord rec = model_record(1, "deadbeefcafe0123", 0.91);
  ASSERT_EQ(rec.model.size(), 1u);
  EXPECT_EQ(rec.model[0].harness, "fig6_speedup");
  EXPECT_EQ(rec.model[0].tag, "hybrid.P8");
  EXPECT_EQ(rec.model[0].formulation, "hybrid");
  EXPECT_EQ(rec.model[0].procs, 8);
  EXPECT_EQ(rec.model[0].digest, "deadbeefcafe0123");
  EXPECT_EQ(rec.model[0].nodes, 101);
  EXPECT_EQ(rec.model[0].leaves, 51);
  EXPECT_EQ(rec.model[0].depth, 9);
  EXPECT_DOUBLE_EQ(rec.model[0].accuracy, 0.91);

  std::vector<RunRecord> back;
  std::string error;
  ASSERT_TRUE(parse_registry(record_line(rec), &back, &error)) << error;
  ASSERT_EQ(back.size(), 1u);
  ASSERT_EQ(back[0].model.size(), 1u);
  EXPECT_EQ(back[0].model[0].digest, "deadbeefcafe0123");
  EXPECT_EQ(back[0].model[0].accuracy, rec.model[0].accuracy) << "bit-exact";
  EXPECT_EQ(record_line(back[0]), record_line(rec));
}

TEST(TrendModel, PreModelRegistryLinesParseWithEmptyModelList) {
  // A pre-0.9 line has no "model" key: backward compatible, not an error.
  const std::string line = record_line(record(1, 1000.0, 80e6, 20e6));
  std::string stripped = line;
  const std::size_t at = stripped.find(", \"model\": []");
  ASSERT_NE(at, std::string::npos) << "0.9 lines always carry the key";
  stripped.erase(at, std::string(", \"model\": []").size());
  std::vector<RunRecord> back;
  std::string error;
  ASSERT_TRUE(parse_registry(stripped, &back, &error)) << error;
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(back[0].model.empty());
}

TEST(TrendModel, DigestChangeIsARegression) {
  std::vector<RunRecord> runs;
  for (int s = 1; s <= 3; ++s) {
    runs.push_back(model_record(s, "aaaa1111bbbb2222", 0.91));
  }
  std::ostringstream ok_os;
  std::string ok_doc;
  EXPECT_EQ(run_trend_check(runs, TrendOptions{}, ok_os, &ok_doc), 0);
  EXPECT_NE(ok_os.str().find("ok      [model] fig6_speedup hybrid.P8"),
            std::string::npos);
  EXPECT_NE(ok_doc.find("\"models\": ["), std::string::npos);

  runs.push_back(model_record(4, "cccc3333dddd4444", 0.87));
  std::ostringstream os;
  std::string doc;
  EXPECT_EQ(run_trend_check(runs, TrendOptions{}, os, &doc), 1);
  EXPECT_NE(os.str().find("FAIL    [model] fig6_speedup hybrid.P8"),
            std::string::npos);
  EXPECT_NE(os.str().find("digest aaaa1111bbbb -> cccc3333dddd"),
            std::string::npos);
  EXPECT_NE(doc.find("\"verdict\": \"REGRESSION\""), std::string::npos);
  EXPECT_NE(doc.find("\"prev_digest\": \"aaaa1111bbbb2222\""),
            std::string::npos);
}

TEST(TrendModel, MissingModelWarnsAndFirstAppearanceIsNew) {
  std::vector<RunRecord> runs{model_record(1, "aaaa1111bbbb2222", 0.91),
                              model_record(2, "aaaa1111bbbb2222", 0.91)};
  RunRecord narrowed;  // latest run dropped the model section
  narrowed.seq = 3;
  runs.push_back(std::move(narrowed));
  std::ostringstream os;
  EXPECT_EQ(run_trend_check(runs, TrendOptions{}, os, nullptr), 0);
  EXPECT_NE(os.str().find("MISSING [model]"), std::string::npos);

  // First appearance in the latest run: "new", not a regression.
  std::vector<RunRecord> fresh{record(1, 1000.0, 80e6, 20e6),
                               model_record(2, "eeee5555ffff6666", 0.9)};
  std::ostringstream os2;
  EXPECT_EQ(run_trend_check(fresh, TrendOptions{}, os2, nullptr), 0);
  EXPECT_NE(os2.str().find("first appearance, digest eeee5555ffff"),
            std::string::npos);
}

std::string ft_envelope(double time_us, double retry_us,
                        std::int64_t retries, bool identical) {
  // One pdt-ft-v1 section row, shaped like bench/fault_tolerance emits.
  std::ostringstream os;
  os << R"({"schema": "pdt-bench-v1", "harness": "fault_tolerance",
    "fingerprint": {"git_sha": "abc123def456", "git_dirty": false},
    "sections": [
      {"type": "fault_tolerance", "schema": "pdt-ft-v1",
       "formulation": "hybrid", "procs": 8, "n": 2000, "rows": [
        {"scenario": "transient-r2x2", "plan": "transient timeout",
         "time_us": )"
     << json_double_exact(time_us)
     << R"(, "overhead_pct": 1.0, "checkpoints": 5, "failures": 0,
         "checkpoint_bytes": 1024, "checkpoint_io_us": 100.0,
         "detect_us": 0.0, "recovery_us": 0.0,
         "records_redistributed": 0, "retries": )"
     << retries << R"(, "retry_us": )" << json_double_exact(retry_us)
     << R"(, "escalations": 0, "durable_checkpoints": 3,
         "durable_bytes": 4096, "durable_io_us": 50.0,
         "resumed": true, "resume_epoch": 1, "resume_skipped": 0,
         "resume_io_us": 25.0, "resume_records": 500,
         "tree_identical": )"
     << (identical ? "true" : "false") << R"(}]}]})";
  return os.str();
}

RunRecord ft_record(std::int64_t seq, double time_us, double retry_us,
                    std::int64_t retries, bool identical = true) {
  const std::vector<ReportInput> inputs{
      parse("f0.json", ft_envelope(time_us, retry_us, retries, identical)),
      parse("f1.json", ft_envelope(time_us, retry_us, retries, identical))};
  RunRecord rec = record_from_envelopes(inputs);
  rec.seq = seq;
  rec.timestamp = "2026-08-0" + std::to_string(seq) + "T00:00:00Z";
  return rec;
}

TEST(TrendFt, RecordExtractsAndRegistryRoundTripsFtTuples) {
  const RunRecord rec = ft_record(1, 5000.0, 8000.0, 2);
  ASSERT_EQ(rec.ft.size(), 1u);  // repeats dedupe to one tuple
  EXPECT_EQ(rec.ft[0].harness, "fault_tolerance");
  EXPECT_EQ(rec.ft[0].formulation, "hybrid");
  EXPECT_EQ(rec.ft[0].procs, 8);
  EXPECT_EQ(rec.ft[0].scenario, "transient-r2x2");
  EXPECT_DOUBLE_EQ(rec.ft[0].time_us, 5000.0);
  // overhead = ckpt_io + detect + recovery + retry + durable_io + resume_io
  EXPECT_DOUBLE_EQ(rec.ft[0].overhead_us, 100.0 + 8000.0 + 50.0 + 25.0);
  EXPECT_DOUBLE_EQ(rec.ft[0].retry_us, 8000.0);
  EXPECT_EQ(rec.ft[0].retries, 2);
  EXPECT_EQ(rec.ft[0].resume_records, 500);
  EXPECT_TRUE(rec.ft[0].tree_identical);

  std::vector<RunRecord> back;
  std::string error;
  ASSERT_TRUE(parse_registry(record_line(rec), &back, &error)) << error;
  ASSERT_EQ(back.size(), 1u);
  ASSERT_EQ(back[0].ft.size(), 1u);
  EXPECT_EQ(back[0].ft[0].scenario, "transient-r2x2");
  EXPECT_EQ(back[0].ft[0].retry_us, rec.ft[0].retry_us) << "bit-exact";
  EXPECT_EQ(record_line(back[0]), record_line(rec));
}

TEST(TrendFt, PreFtRegistryLinesParseWithEmptyFtList) {
  const std::string line = record_line(record(1, 1000.0, 80e6, 20e6));
  std::string stripped = line;
  const std::size_t at = stripped.find(", \"ft\": []");
  ASSERT_NE(at, std::string::npos) << "new lines always carry the key";
  stripped.erase(at, std::string(", \"ft\": []").size());
  std::vector<RunRecord> back;
  std::string error;
  ASSERT_TRUE(parse_registry(stripped, &back, &error)) << error;
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(back[0].ft.empty());
}

TEST(TrendFt, RetryCostAppearingTripsTheOverheadGate) {
  // History with zero retry cost, latest run burns retries: the
  // [overhead] series steps off a zero baseline, which no vtol band
  // forgives — resilience cost may not silently creep in.
  std::vector<RunRecord> runs;
  for (int s = 1; s <= 3; ++s) runs.push_back(ft_record(s, 5000.0, 0.0, 0));
  std::ostringstream ok_os;
  EXPECT_EQ(run_trend_check(runs, TrendOptions{}, ok_os, nullptr), 0);

  runs.push_back(ft_record(4, 5000.0, 8000.0, 2));
  std::ostringstream os;
  EXPECT_EQ(run_trend_check(runs, TrendOptions{}, os, nullptr), 1);
  EXPECT_NE(os.str().find("fault_tolerance hybrid P=8 transient-r2x2 "
                          "[overhead]"),
            std::string::npos)
      << os.str();
}

TEST(TrendFt, TreeDivergenceIsAnUnconditionalRegression) {
  std::vector<RunRecord> runs{ft_record(1, 5000.0, 100.0, 1),
                              ft_record(2, 5000.0, 100.0, 1)};
  std::ostringstream ok_os;
  std::string ok_doc;
  EXPECT_EQ(run_trend_check(runs, TrendOptions{}, ok_os, &ok_doc), 0);
  EXPECT_NE(ok_doc.find("\"ft\": ["), std::string::npos);

  // Same costs, diverged tree: costs pass the bands, the identity gate
  // still fails the run.
  runs.push_back(ft_record(3, 5000.0, 100.0, 1, /*identical=*/false));
  std::ostringstream os;
  std::string doc;
  EXPECT_EQ(run_trend_check(runs, TrendOptions{}, os, &doc), 1);
  EXPECT_NE(os.str().find("FAIL    [ft]   fault_tolerance hybrid P=8 "
                          "transient-r2x2"),
            std::string::npos)
      << os.str();
  EXPECT_NE(os.str().find("tree diverged"), std::string::npos);
  EXPECT_NE(doc.find("\"tree_identical\": false"), std::string::npos);
}

TEST(TrendThreads, SingleThreadedRunsOmitTheKeyAndOldLinesParseClean) {
  // Registry lines carry no "threads" key, and parse back to a record
  // that re-serializes byte-identically.
  const RunRecord rec = record(1, 1000.0, 80e6, 20e6);
  const std::string line = record_line(rec);
  EXPECT_EQ(line.find("\"threads\""), std::string::npos) << line;
  std::vector<RunRecord> back;
  std::string error;
  ASSERT_TRUE(parse_registry(line, &back, &error)) << error;
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(record_line(back[0]), line);
}

TEST(TrendThreads, LinesCarryingAThreadsArrayStillParseCheckAndExplain) {
  // Registries written while pdt trend still folded pdt-threads-v1
  // telemetry end each line with a "threads" array. Such lines must keep
  // parsing (the array is ignored), and check/explain must run on them.
  const std::string kThreads =
      R"(, "threads": [{"harness": "fig6_speedup", "tag": "hybrid.P8", )"
      R"("formulation": "hybrid", "procs": 8, "peak_active": 9, )"
      R"("dropped": 5, "contended": 4, "wait_ns": 1500000}]})";
  std::string text;
  std::vector<RunRecord> expected;
  for (int s = 1; s <= 3; ++s) {
    expected.push_back(record(s, 1000.0, 80e6, 20e6));
    std::string line = record_line(expected.back());
    ASSERT_EQ(line.back(), '}');
    line.pop_back();
    text += line + kThreads + "\n";
  }
  std::vector<RunRecord> runs;
  std::string error;
  ASSERT_TRUE(parse_registry(text, &runs, &error)) << error;
  ASSERT_EQ(runs.size(), expected.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(record_line(runs[i]), record_line(expected[i]));
  }

  std::ostringstream check_os;
  EXPECT_EQ(run_trend_check(runs, TrendOptions{}, check_os, nullptr), 0)
      << check_os.str();
  std::ostringstream explain_os;
  EXPECT_TRUE(
      run_trend_explain(runs, "hybrid.P8", TrendOptions{}, explain_os));
  EXPECT_NE(explain_os.str().find("top cells"), std::string::npos)
      << explain_os.str();
}

TEST(TrendThreads, ExplainAttributesEnvAndTelemetryChanges) {
  std::vector<RunRecord> runs{record(1, 1000.0, 80e6, 20e6),
                              record(2, 1000.0, 90e6, 20e6)};
  std::string error;
  ASSERT_TRUE(json_parse(
      R"({"git_sha": "abc123", "git_dirty": false, "cores": 8})",
      &runs[0].fingerprint, &error))
      << error;
  ASSERT_TRUE(json_parse(R"({"git_sha": "def456", "git_dirty": false,
                             "cores": 16, "pdt_threads": "16"})",
                         &runs[1].fingerprint, &error))
      << error;

  std::ostringstream os;
  EXPECT_TRUE(run_trend_explain(runs, "hybrid.P8", TrendOptions{}, os));
  const std::string out = os.str();
  EXPECT_NE(out.find("cores: 8 -> 16"), std::string::npos) << out;
  EXPECT_NE(out.find("PDT_THREADS: (unset) -> 16"), std::string::npos) << out;

  // A stable machine prints none of the attribution lines — explanations
  // stay byte-stable across the feature.
  std::vector<RunRecord> flat{record(1, 1000.0, 80e6, 20e6),
                              record(2, 1000.0, 90e6, 20e6)};
  std::ostringstream os2;
  EXPECT_TRUE(run_trend_explain(flat, "hybrid.P8", TrendOptions{}, os2));
  EXPECT_EQ(os2.str().find("cores:"), std::string::npos) << os2.str();
  EXPECT_EQ(os2.str().find("PDT_THREADS:"), std::string::npos);
}

TEST(TrendExplain, FilterSelectsTuplesAndMissingFilterReportsCleanly) {
  const std::vector<RunRecord> runs = flat_registry(3);
  std::ostringstream os;
  // Explicit filter works even when nothing regressed.
  EXPECT_TRUE(run_trend_explain(runs, "hybrid.P8", TrendOptions{}, os));
  EXPECT_NE(os.str().find("top cells"), std::string::npos);

  std::ostringstream os2;
  EXPECT_FALSE(run_trend_explain(runs, "no-such-tuple", TrendOptions{}, os2));
  EXPECT_NE(os2.str().find("no host tuple"), std::string::npos);
}

}  // namespace
}  // namespace pdt::tools
