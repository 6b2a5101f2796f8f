// pdt diff: baseline extraction, round-trip, and the regression gate.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "diff/diff.hpp"
#include "json/json.hpp"

namespace pdt::tools {
namespace {

ReportInput parse(const std::string& name, const std::string& text) {
  ReportInput in;
  in.name = name;
  std::string error;
  EXPECT_TRUE(json_parse(text, &in.root, &error)) << error;
  return in;
}

const char* kBench = R"({
  "schema": "pdt-bench-v1",
  "harness": "fig6_speedup",
  "scale": 0.005,
  "sections": [
    {"type": "speedup_series", "workload": "0.8M", "formulation": "hybrid",
     "points": [
       {"procs": 1, "time_us": 1000.0, "speedup": 1.0, "efficiency": 1.0},
       {"procs": 2, "time_us": 600.0, "speedup": 1.6667, "efficiency": 0.8333},
       {"procs": 4, "time_us": 400.0, "speedup": 2.5, "efficiency": 0.625}
     ]},
    {"type": "mem_scaling", "workload": "0.8M", "formulation": "hybrid",
     "points": []}
  ]
})";

TEST(DiffExtract, CollectsSpeedupPointsAndAppliesProcsFilter) {
  const std::vector<ReportInput> inputs{parse("bench.json", kBench)};
  const std::vector<DiffEntry> all = extract_entries(inputs, {});
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].harness, "fig6_speedup");
  EXPECT_EQ(all[0].workload, "0.8M");
  EXPECT_EQ(all[0].formulation, "hybrid");
  EXPECT_EQ(all[1].procs, 2);
  EXPECT_DOUBLE_EQ(all[1].time_us, 600.0);
  EXPECT_DOUBLE_EQ(all[2].speedup, 2.5);

  const std::vector<DiffEntry> filtered = extract_entries(inputs, {1, 4});
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0].procs, 1);
  EXPECT_EQ(filtered[1].procs, 4);
}

TEST(DiffExtract, IgnoresNonBenchInputs) {
  const std::vector<ReportInput> inputs{
      parse("mem.json", R"({"schema": "pdt-mem-v1", "num_ranks": 2})")};
  EXPECT_TRUE(extract_entries(inputs, {}).empty());
}

TEST(DiffBaseline, WriteThenParseRoundTripsExactly) {
  const std::vector<ReportInput> inputs{parse("bench.json", kBench)};
  const std::vector<DiffEntry> entries = extract_entries(inputs, {});
  std::ostringstream os;
  write_baseline(entries, os);

  const ReportInput base = parse("base.json", os.str());
  std::vector<DiffEntry> back;
  std::string error;
  ASSERT_TRUE(parse_baseline(base.root, &back, &error)) << error;
  ASSERT_EQ(back.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(back[i].harness, entries[i].harness);
    EXPECT_EQ(back[i].procs, entries[i].procs);
    EXPECT_EQ(back[i].time_us, entries[i].time_us) << "bit-exact round trip";
    EXPECT_EQ(back[i].speedup, entries[i].speedup);
    EXPECT_EQ(back[i].efficiency, entries[i].efficiency);
  }
}

TEST(DiffBaseline, RejectsWrongSchemaAndMalformedEntries) {
  std::vector<DiffEntry> out;
  std::string error;
  const ReportInput wrong =
      parse("x.json", R"({"schema": "pdt-bench-v1", "entries": []})");
  EXPECT_FALSE(parse_baseline(wrong.root, &out, &error));
  EXPECT_NE(error.find("pdt-diff-baseline-v1"), std::string::npos);

  const ReportInput bad = parse("y.json", R"({
    "schema": "pdt-diff-baseline-v1",
    "entries": [{"harness": "", "procs": 4}]})");
  EXPECT_FALSE(parse_baseline(bad.root, &out, &error));
}

TEST(DiffGate, IdenticalResultsPassAndDriftPastTolFails) {
  const std::vector<ReportInput> inputs{parse("bench.json", kBench)};
  const std::vector<DiffEntry> baseline = extract_entries(inputs, {});

  std::ostringstream os;
  DiffOptions opt;
  EXPECT_EQ(run_diff(baseline, baseline, opt, os), 0);
  EXPECT_NE(os.str().find("OK: 0 of 3"), std::string::npos);

  // 1% slowdown on one tuple: caught at the default tolerance, admitted
  // at --tol 0.02.
  std::vector<DiffEntry> current = baseline;
  current[2].time_us *= 1.01;
  std::ostringstream os2;
  EXPECT_EQ(run_diff(baseline, current, opt, os2), 1);
  EXPECT_NE(os2.str().find("FAIL"), std::string::npos);
  opt.tol = 0.02;
  std::ostringstream os3;
  EXPECT_EQ(run_diff(baseline, current, opt, os3), 0);
}

TEST(DiffGate, MissingTupleIsAFailure) {
  const std::vector<ReportInput> inputs{parse("bench.json", kBench)};
  const std::vector<DiffEntry> baseline = extract_entries(inputs, {});
  std::vector<DiffEntry> current = baseline;
  current.pop_back();
  std::ostringstream os;
  EXPECT_EQ(run_diff(baseline, current, DiffOptions{}, os), 1);
  EXPECT_NE(os.str().find("MISSING"), std::string::npos);
}

// -------------------------------------------------------------------------
// Host time: the median-of-k collapse and its MAD math.

// One bench envelope carrying one repeat's host measurement.
std::string host_bench(double total_ns) {
  std::ostringstream os;
  os << R"({"schema": "pdt-bench-v1", "harness": "fig6_speedup",
            "sections": [{"type": "instrumented_run", "tag": "hybrid.P8",
            "formulation": "hybrid", "procs": 8,
            "host": {"schema": "pdt-host-v1", "total_ns": )"
     << total_ns << "}}]}";
  return os.str();
}

std::vector<HostEntry> host_entries(std::vector<double> repeats) {
  std::vector<ReportInput> inputs;
  for (std::size_t i = 0; i < repeats.size(); ++i) {
    inputs.push_back(parse("r" + std::to_string(i) + ".json",
                           host_bench(repeats[i])));
  }
  return extract_host_entries(inputs);
}

TEST(HostDiffExtract, CollapsesRepeatsToMedianAndMad) {
  // median(100, 120, 90) = 100; deviations {0, 20, 10} -> MAD = 10.
  const std::vector<HostEntry> entries = host_entries({100e6, 120e6, 90e6});
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].harness, "fig6_speedup");
  EXPECT_EQ(entries[0].tag, "hybrid.P8");
  EXPECT_EQ(entries[0].formulation, "hybrid");
  EXPECT_EQ(entries[0].procs, 8);
  EXPECT_EQ(entries[0].k, 3);
  EXPECT_DOUBLE_EQ(entries[0].median_ns, 100e6);
  EXPECT_DOUBLE_EQ(entries[0].mad_ns, 10e6);

  // Even k: median is the average of the middle pair.
  const std::vector<HostEntry> even = host_entries({100e6, 120e6});
  ASSERT_EQ(even.size(), 1u);
  EXPECT_DOUBLE_EQ(even[0].median_ns, 110e6);
  EXPECT_EQ(even[0].k, 2);
}

TEST(HostDiffExtract, IgnoresEnvelopesWithoutHostSections) {
  const std::vector<ReportInput> inputs{parse("bench.json", kBench)};
  EXPECT_TRUE(extract_host_entries(inputs).empty());
}

}  // namespace
}  // namespace pdt::tools
