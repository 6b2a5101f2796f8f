// Tests for the pdt report renderer: each schema renders its sections,
// the output is deterministic (render twice, compare byte-for-byte), and
// unrecognized schemas are reported without aborting the whole run.
#include "report/report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "json/json.hpp"

namespace pdt::tools {
namespace {

ReportInput make_input(const std::string& name, std::string_view json) {
  ReportInput in;
  in.name = name;
  std::string err;
  EXPECT_TRUE(json_parse(json, &in.root, &err)) << err;
  return in;
}

constexpr std::string_view kComm = R"({
  "schema": "pdt-comm-v1",
  "num_ranks": 2,
  "num_collective_calls": 3,
  "collectives": [
    {"kind": "all-reduce", "calls": 2, "words": 12.0,
     "predicted_us": 52.0, "measured_us": 52.0, "delta_us": 0.0,
     "io_us": 0.0, "messages": 4},
    {"kind": "pairwise-exchange", "calls": 1, "words": 14.0,
     "predicted_us": 24.0, "measured_us": 44.0, "delta_us": 20.0,
     "io_us": 0.0, "messages": 2}
  ],
  "levels": [
    {"level": 0, "calls": 3, "words": 26.0, "predicted_us": 76.0,
     "measured_us": 96.0, "delta_us": 20.0, "io_us": 0.0, "messages": 6}
  ],
  "matrix": {
    "bytes": [[0.0, 56.0], [48.0, 0.0]],
    "messages": [[0, 3], [3, 0]]
  },
  "critical_path": {
    "max_clock_us": 100.0, "end_rank": 1, "handoffs": 1, "barriers": 3,
    "num_segments": 2,
    "by_kind": {"compute_us": 40.0, "comm_us": 60.0, "io_us": 0.0,
                "idle_us": 0.0},
    "by_phase": [{"phase": "histogram", "us": 100.0, "blame_pct": 100.0}],
    "top_segments": [
      {"rank": 0, "phase": "histogram", "level": 0, "kind": "comm",
       "start_us": 40.0, "dur_us": 60.0, "blame_pct": 60.0},
      {"rank": 1, "phase": "histogram", "level": 0, "kind": "compute",
       "start_us": 0.0, "dur_us": 40.0, "blame_pct": 40.0}
    ]
  }
})";

constexpr std::string_view kBench = R"({
  "schema": "pdt-bench-v1",
  "harness": "fig6_speedup",
  "scale": 0.1,
  "cost_model": {"t_s": 40.0, "t_w": 0.11, "t_c": 0.15, "t_io": 0.05},
  "sections": [
    {"type": "speedup_series", "workload": "quest-f2", "formulation": "sync",
     "points": [
       {"procs": 1, "time_us": 100.0, "speedup": 1.0, "efficiency": 1.0},
       {"procs": 4, "time_us": 30.0, "speedup": 3.33, "efficiency": 0.83}
     ]},
    {"type": "speedup_series", "workload": "quest-f2",
     "formulation": "partitioned",
     "points": [
       {"procs": 4, "time_us": 40.0, "speedup": 2.5, "efficiency": 0.63}
     ]}
  ]
})";

TEST(Report, RendersCommSchemaSections) {
  std::ostringstream os;
  EXPECT_TRUE(render_report({make_input("c.json", kComm)}, os));
  const std::string out = os.str();
  EXPECT_NE(out.find("# Communication report: `c.json`"), std::string::npos);
  EXPECT_NE(out.find("Collective cost model"), std::string::npos);
  EXPECT_NE(out.find("| all-reduce | 2 | 12 | 52.0 | 52.0 | 0.0 | 0.00 |"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("pairwise-exchange"), std::string::npos);
  EXPECT_NE(out.find("Traffic matrix"), std::string::npos);
  // Row sums / column sums: rank 0 sent 56, received 48.
  EXPECT_NE(out.find("| 0 | 0 | 56 | 56 |"), std::string::npos) << out;
  EXPECT_NE(out.find("| **recv** | 48 | 56 | 104 |"), std::string::npos)
      << out;
  EXPECT_NE(out.find("Critical path"), std::string::npos);
  EXPECT_NE(out.find("ending on rank 1 (1 handoffs, 3 barriers"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("comm 60.0 us (60.0%)"), std::string::npos) << out;
}

TEST(Report, RendersBenchSpeedupTablesMergingFormulations) {
  std::ostringstream os;
  EXPECT_TRUE(render_report({make_input("b.json", kBench)}, os));
  const std::string out = os.str();
  EXPECT_NE(out.find("# Bench report: fig6_speedup"), std::string::npos);
  EXPECT_NE(out.find("### Speedup — quest-f2"), std::string::npos);
  EXPECT_NE(out.find("| P | sync | partitioned |"), std::string::npos) << out;
  EXPECT_NE(out.find("| 4 | 3.33 | 2.50 |"), std::string::npos) << out;
  // P=1 exists only in the sync series: the partitioned cell is a dash.
  EXPECT_NE(out.find("| 1 | 1.00 | — |"), std::string::npos) << out;
  EXPECT_NE(out.find("t_s=40.00us"), std::string::npos) << out;
}

TEST(Report, OutputIsDeterministic) {
  std::ostringstream a, b;
  const std::vector<ReportInput> inputs = {make_input("b.json", kBench),
                                           make_input("c.json", kComm)};
  EXPECT_TRUE(render_report(inputs, a));
  EXPECT_TRUE(render_report(inputs, b));
  EXPECT_EQ(a.str(), b.str());
  EXPECT_FALSE(a.str().empty());
}

TEST(Report, UnknownSchemaReturnsFalseButStillRenders) {
  std::ostringstream os;
  EXPECT_FALSE(render_report({make_input("x.json", R"({"schema":"nope"})"),
                              make_input("c.json", kComm)},
                             os));
  const std::string out = os.str();
  EXPECT_NE(out.find("Unrecognized report: `x.json`"), std::string::npos);
  EXPECT_NE(out.find("`nope`"), std::string::npos);
  // The recognized input after it still rendered.
  EXPECT_NE(out.find("# Communication report: `c.json`"), std::string::npos);
}

TEST(Report, MissingSchemaFieldIsReportedAsNone) {
  std::ostringstream os;
  EXPECT_FALSE(render_report({make_input("y.json", "{}")}, os));
  EXPECT_NE(os.str().find("`(none)`"), std::string::npos);
}

// Bench envelope with paired host accounts on two instrumented runs —
// enough for the host share table and the host-time speedup table.
constexpr std::string_view kHostBench = R"({
  "schema": "pdt-bench-v1",
  "harness": "fig6_speedup",
  "sections": [
    {"type": "speedup_series", "workload": "q", "formulation": "hybrid",
     "points": [
       {"procs": 4, "time_us": 30.0, "speedup": 3.0, "efficiency": 0.75}
     ]},
    {"type": "instrumented_run", "tag": "hybrid.P1", "formulation": "hybrid",
     "procs": 1, "max_clock_us": 1000.0,
     "host": {"schema": "pdt-host-v1", "clock": "steady_clock",
              "total_ns": 2000000.0, "samples": 10,
              "virtual_total_us": 1000.0,
              "by_phase": [
                {"phase": "histogram", "host_ns": 1500000.0,
                 "host_share_pct": 75.0, "virtual_us": 400.0,
                 "virtual_share_pct": 40.0, "divergence_pp": 35.0},
                {"phase": "all-reduce", "host_ns": 500000.0,
                 "host_share_pct": 25.0, "virtual_us": 600.0,
                 "virtual_share_pct": 60.0, "divergence_pp": -35.0}
              ]}},
    {"type": "instrumented_run", "tag": "hybrid.P4", "formulation": "hybrid",
     "procs": 4, "max_clock_us": 400.0,
     "host": {"schema": "pdt-host-v1", "clock": "steady_clock",
              "total_ns": 1000000.0, "samples": 10,
              "virtual_total_us": 400.0, "by_phase": []}}
  ]
})";

TEST(Report, RendersHostSectionsAndSpeedupTable) {
  std::ostringstream os;
  EXPECT_TRUE(render_report({make_input("h.json", kHostBench)}, os));
  const std::string out = os.str();
  EXPECT_NE(out.find("### Host wall-clock (pdt-host-v1)"), std::string::npos);
  EXPECT_NE(out.find("Host vs simulated time share by phase"),
            std::string::npos);
  EXPECT_NE(out.find("| histogram | 1.500 | 75.0 | 400.0 | 40.0 | 35.0 |"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("Largest simulated-vs-real divergences"),
            std::string::npos);
  EXPECT_NE(out.find("### Host-time speedup — hybrid (baseline P=1)"),
            std::string::npos)
      << out;
  // P=4: host 2.0ms -> 1.0ms = 2.00x, virtual 1000us -> 400us = 2.50x.
  EXPECT_NE(out.find("| 4 | 1.000 | 2.00 | 400.0 | 2.50 |"),
            std::string::npos)
      << out;
}

TEST(Report, SectionFilterGatesWhatRenders) {
  RenderOptions host_only;
  host_only.sections = {"host"};
  std::ostringstream os;
  EXPECT_TRUE(
      render_report({make_input("h.json", kHostBench)}, os, host_only));
  const std::string out = os.str();
  EXPECT_NE(out.find("Host-time speedup"), std::string::npos);
  EXPECT_NE(out.find("Host wall-clock"), std::string::npos);
  EXPECT_EQ(out.find("### Speedup —"), std::string::npos) << out;

  RenderOptions speedup_only;
  speedup_only.sections = {"speedup"};
  std::ostringstream os2;
  EXPECT_TRUE(
      render_report({make_input("h.json", kHostBench)}, os2, speedup_only));
  const std::string out2 = os2.str();
  EXPECT_NE(out2.find("### Speedup —"), std::string::npos) << out2;
  EXPECT_EQ(out2.find("Host-time speedup"), std::string::npos);
  EXPECT_EQ(out2.find("Host wall-clock"), std::string::npos);
}

TEST(Report, WantsIsAllWhenEmptyAndMembershipOtherwise) {
  RenderOptions all;
  EXPECT_TRUE(all.wants("host"));
  EXPECT_TRUE(all.wants("speedup"));
  RenderOptions some;
  some.sections = {"comm", "memory"};
  EXPECT_TRUE(some.wants("comm"));
  EXPECT_TRUE(some.wants("memory"));
  EXPECT_FALSE(some.wants("host"));
}

TEST(Report, TrendSchemaRendersSparklinesAndExplainTable) {
  constexpr std::string_view kTrendDoc = R"({
    "schema": "pdt-trend-v1", "runs": 3, "window": 5,
    "tol": 0.5, "mad_k": 5, "vtol": 0.02,
    "meta": [
      {"seq": 1, "timestamp": "2026-08-01T00:00:00Z", "label": "a",
       "git_sha": "abc123", "git_dirty": false},
      {"seq": 2, "timestamp": "", "label": "", "git_sha": "def456",
       "git_dirty": true},
      {"seq": 3, "timestamp": "2026-08-03T00:00:00Z", "label": "c",
       "git_sha": "abc789", "git_dirty": false}
    ],
    "tuples": [
      {"name": "fig6 0.8M hybrid P=8", "kind": "host",
       "verdict": "REGRESSION", "seqs": [1, 2, 3],
       "values": [100000000.0, 101000000.0, 300000000.0],
       "changepoints": [{"seq": 3, "direction": "up"}],
       "base": 100500000.0, "latest": 300000000.0, "band": 50250000.0,
       "explain": [
         {"phase": "comm", "level": 1, "before_ns": 20000000.0,
          "after_ns": 220000000.0, "delta_ns": 200000000.0,
          "share_pct": 100.2}
       ]},
      {"name": "fig6 0.8M hybrid P=8", "kind": "virtual", "verdict": "ok",
       "seqs": [1, 2, 3], "values": [1000.0, 1000.0, 1000.0],
       "changepoints": [], "base": 1000.0, "latest": 1000.0, "band": 20.0}
    ]
  })";
  std::ostringstream os1, os2;
  EXPECT_TRUE(render_report({make_input("trend.json", kTrendDoc)}, os1));
  EXPECT_TRUE(render_report({make_input("trend.json", kTrendDoc)}, os2));
  EXPECT_EQ(os1.str(), os2.str()) << "byte-identical re-render";
  const std::string out = os1.str();
  EXPECT_NE(out.find("# Trend report: `trend.json`"), std::string::npos);
  EXPECT_NE(out.find("| 2 | - | def456\\* | - |"), std::string::npos)
      << "dirty build marked, empty fields dashed:\n" << out;
  EXPECT_NE(out.find("▁"), std::string::npos) << "sparkline rendered";
  EXPECT_NE(out.find("^@3"), std::string::npos) << "changepoint marker";
  EXPECT_NE(out.find("**REGRESSION**"), std::string::npos);
  EXPECT_NE(out.find("#### Explain: fig6 0.8M hybrid P=8"),
            std::string::npos);
  EXPECT_NE(out.find("| comm | 1 | 20.000 | 220.000 | 200.000 | 100.2 |"),
            std::string::npos)
      << out;

  // The flat virtual series renders all-low bars and no markers.
  EXPECT_NE(out.find("▁▁▁ | 1000.0 us"), std::string::npos) << out;

  // Section filtering: without "trend", only the header renders.
  RenderOptions none;
  none.sections = {"speedup"};
  std::ostringstream os3;
  EXPECT_TRUE(render_report({make_input("trend.json", kTrendDoc)}, os3, none));
  EXPECT_EQ(os3.str(), "# Trend report: `trend.json`\n\n");
}

TEST(Report, StandaloneHostSchemaRenders) {
  constexpr std::string_view kHostDoc = R"({
    "schema": "pdt-host-v1", "clock": "steady_clock",
    "total_ns": 5000000.0, "samples": 42, "virtual_total_us": 900.0,
    "by_phase": []
  })";
  std::ostringstream os;
  EXPECT_TRUE(render_report({make_input("host.json", kHostDoc)}, os));
  const std::string out = os.str();
  EXPECT_NE(out.find("# Host report: `host.json`"), std::string::npos) << out;
  EXPECT_NE(out.find("`steady_clock`"), std::string::npos);
}

}  // namespace
}  // namespace pdt::tools
