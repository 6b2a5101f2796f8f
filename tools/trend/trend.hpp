// Cross-run performance history: the pdt-runs-v1 registry, changepoint
// gating, and regression explanation.
//
// pdt-diff answers "did THIS build drift from ONE committed baseline?".
// pdt-trend answers the production question the paper's Fig. 6-9
// arguments rest on: "what is the *trajectory*?" — a perf time series
// across harness runs, each record stamped with the EnvFingerprint of
// the build that produced it, so a regression can be pinned to a commit,
// a compiler, or a machine change.
//
// The registry is an append-only JSONL archive (one pdt-runs-v1 record
// per line, one record per harness run) holding, per run:
//   * the fingerprint (git SHA + dirty, compiler/flags, CPU, hostname,
//     PDT_* env) copied verbatim from the bench envelope,
//   * every deterministic virtual tuple (harness, workload, formulation,
//     procs) -> time_us/speedup/efficiency,
//   * every host tuple collapsed to median-of-k + MAD across the run's
//     repeat envelopes, with the per-(phase, level) host-nanosecond
//     cells that let `explain` name what moved,
//   * optional wait-for blame edges from pdt-replay-v1 inputs.
//
// `check` is the noise-aware gate over the series: for each tuple in
// the latest record, the trailing window of earlier records collapses
// to median + MAD and the verdict uses the same band semantics as
// `pdt-diff --host` (DESIGN.md section 9):
//   band = max(tol * window_median, mad_k * 1.4826 * (window_mad + cur_mad))
// A latest value above the band is a REGRESSION (exit 1); below it is an
// IMPROVEMENT (a changepoint worth a look, not a failure). The same
// rolling test applied at every prior position yields the changepoint
// markers the trend report draws.
//
// Like every tool here, pdt-trend links no simulator libraries and its
// outputs depend only on the input bytes.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_value.hpp"
#include "diff/diff.hpp"

namespace pdt::tools {

/// One (phase, level) host-time cell of a tuple: the median host
/// nanoseconds the cell cost across the run's repeats, next to the
/// virtual microseconds the simulator charged the same cell.
struct TrendCell {
  std::string phase;
  int level = -1;
  double host_ns = 0.0;
  double virtual_us = 0.0;
};

/// A host tuple (median-of-k + MAD, as in pdt-diff --host) plus its
/// per-(phase, level) attribution cells.
struct TrendHostTuple {
  HostEntry entry;
  std::vector<TrendCell> cells;
};

/// One model tuple: the classifier a tagged run grew, identified by its
/// pdt-model-v1 content digest. Model drift is gated like perf drift —
/// the digest is deterministic, so any change against the previous
/// sighting of the same (harness, tag, formulation, procs) key is a
/// regression until the history is deliberately re-baselined.
struct TrendModelTuple {
  std::string harness;
  std::string tag;
  std::string formulation;
  std::int64_t procs = 0;
  std::string digest;
  std::int64_t nodes = 0;
  std::int64_t leaves = 0;
  std::int64_t depth = 0;
  double accuracy = 0.0;  ///< held-out accuracy recorded by the harness
};

/// One fault-tolerance tuple from a pdt-ft-v1 section row: the virtual
/// cost of one (formulation, P, scenario) resilience run, plus the
/// recovery/retry/resume overheads that must not silently creep. All
/// values are virtual-clock quantities, so the series is deterministic
/// and gated with the tight virtual tolerance; tree_identical=false in
/// the latest record is an unconditional regression.
struct TrendFtTuple {
  std::string harness;
  std::string formulation;
  std::int64_t procs = 0;
  std::string scenario;
  double time_us = 0.0;
  /// checkpoint_io + detect + recovery + retry + durable_io + resume_io:
  /// everything the run spent on resilience rather than tree growth.
  double overhead_us = 0.0;
  double retry_us = 0.0;
  std::int64_t retries = 0;
  std::int64_t resume_records = 0;
  bool tree_identical = true;
};

/// One wait-for blame edge carried along from a pdt-replay-v1 report.
struct TrendBlameEdge {
  std::int64_t idler = 0;
  std::int64_t level = -1;
  std::int64_t holder = 0;
  std::string holder_phase;
  double idle_us = 0.0;
};

/// One registry record: everything one harness run (possibly k repeat
/// envelopes) contributes to the perf time series.
struct RunRecord {
  std::int64_t seq = 0;       ///< 1-based position in the registry
  std::string timestamp;      ///< ISO-8601, supplied by the writer
  std::string label;          ///< free-form, e.g. the CI run id
  JsonValue fingerprint;      ///< obs::EnvFingerprint object (may be null)
  std::vector<DiffEntry> virt;
  std::vector<TrendHostTuple> host;
  std::vector<TrendModelTuple> model;
  std::vector<TrendFtTuple> ft;
  std::vector<TrendBlameEdge> blame;
};

// ------------------------------------------------------------ registry --

/// Parse a pdt-runs-v1 JSONL registry (one record per non-blank line).
/// Returns false on a malformed line or wrong schema (error names the
/// line). An empty/whitespace-only text parses to an empty registry.
[[nodiscard]] bool parse_registry(std::string_view text,
                                  std::vector<RunRecord>* out,
                                  std::string* error);

/// Serialize one record as a single JSONL line (no trailing newline).
[[nodiscard]] std::string record_line(const RunRecord& rec);

/// Serialize the whole registry (newline-terminated lines).
[[nodiscard]] std::string registry_text(const std::vector<RunRecord>& runs);

/// Build one record from a run's envelopes: virtual tuples from every
/// speedup_series point, host tuples collapsed to median-of-k + MAD
/// across the inputs (each envelope = one repeat) with per-cell medians,
/// the fingerprint copied from the first envelope that carries one, and
/// blame edges from any pdt-replay-v1 inputs. seq/timestamp/label are
/// left for the caller.
[[nodiscard]] RunRecord record_from_envelopes(
    const std::vector<ReportInput>& inputs);

/// Fold one pre-registry artifact into a record: a pdt-diff-baseline-v1
/// (virtual tuples), a pdt-host-baseline-v1 (host tuples, no cells), or
/// a full pdt-bench-v1 envelope. Returns false on any other schema.
[[nodiscard]] bool record_from_artifact(const ReportInput& input,
                                        RunRecord* out, std::string* error);

// ------------------------------------------------------------ analysis --

struct TrendOptions {
  int window = 5;      ///< trailing records the baseline collapses from
  double tol = 0.5;    ///< host relative floor (matches pdt-diff --host)
  double mad_k = 5.0;  ///< host sigmas of combined jitter to forgive
  double vtol = 0.02;  ///< virtual relative tolerance (matches the CI gate)
  int top_cells = 5;   ///< (phase, level) cells ranked per explanation
};

/// Changepoint/drift check over the registry: write a verdict line per
/// tuple of the latest record to `os` and, when `doc` is non-null, the
/// machine-readable pdt-trend-v1 report (series, changepoint markers,
/// explain summaries — what pdt-report renders as the trend section).
/// Returns the number of regressions (0 when the registry holds fewer
/// than two records — no history, nothing to gate).
[[nodiscard]] int run_trend_check(const std::vector<RunRecord>& runs,
                                  const TrendOptions& opt, std::ostream& os,
                                  std::string* doc);

/// Explain a tuple's move: join the latest record's per-(phase, level)
/// host cells against the most recent earlier record carrying the same
/// tuple, rank cells by |delta|, and name the ones that account for the
/// delta (plus a blame-edge delta table when both records carry edges).
/// `tuple_filter` substring-matches "harness tag formulation P=N"; empty
/// explains every tuple the check flags. Returns false (after a
/// diagnostic on `os`) when nothing matches or there is no history.
[[nodiscard]] bool run_trend_explain(const std::vector<RunRecord>& runs,
                                     const std::string& tuple_filter,
                                     const TrendOptions& opt,
                                     std::ostream& os);

/// Human-readable registry listing (one line per record).
void run_trend_list(const std::vector<RunRecord>& runs, std::ostream& os);

}  // namespace pdt::tools
