// Performance-regression comparison of pdt-bench-v1 report files.
//
// pdt diff works on the speedup_series sections every figure harness
// emits: each (harness, workload, formulation, procs) tuple carries the
// run's virtual time, speedup, and efficiency. Because the simulator's
// virtual clock is a pure function of the dataset seed and PDT_SCALE,
// these numbers are deterministic, so a committed baseline can gate CI:
// any relative drift past --tol on any tuple is a regression (or an
// unannounced improvement — either way, the baseline must be regenerated
// deliberately).
//
// The baseline is its own small schema ("pdt-diff-baseline-v1") extracted
// from one or more bench envelopes, so the committed file stays reviewable
// (a few lines per tuple instead of full reports).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "report/report.hpp"

namespace pdt::tools {

/// One comparable measurement: a (harness, workload, formulation, procs)
/// tuple and its deterministic results.
struct DiffEntry {
  std::string harness;
  std::string workload;
  std::string formulation;
  std::int64_t procs = 0;
  double time_us = 0.0;
  double speedup = 0.0;
  double efficiency = 0.0;
};

/// Same (harness, workload, formulation, procs) tuple.
[[nodiscard]] bool same_tuple(const DiffEntry& a, const DiffEntry& b);

/// "harness workload formulation P=N", the tuple's name in gate output.
[[nodiscard]] std::string tuple_name(const DiffEntry& e);

/// Collect every speedup_series point of every input envelope. When
/// `procs_filter` is non-empty, only those processor counts are kept.
/// Bare (non-envelope) inputs contribute nothing.
[[nodiscard]] std::vector<DiffEntry> extract_entries(
    const std::vector<ReportInput>& inputs,
    const std::vector<std::int64_t>& procs_filter);

/// Parse a pdt-diff-baseline-v1 document. Returns false on schema
/// mismatch or malformed entries (error gets a message).
[[nodiscard]] bool parse_baseline(const JsonValue& root,
                                  std::vector<DiffEntry>* out,
                                  std::string* error);

/// Write entries as a pdt-diff-baseline-v1 document (deterministic,
/// input-ordered).
void write_baseline(const std::vector<DiffEntry>& entries, std::ostream& os);

struct DiffOptions {
  /// Maximum tolerated relative drift per field, e.g. 0.02 for 2%. The
  /// default is effectively "bit-stable modulo printing".
  double tol = 1e-9;
};

/// Compare current entries against a baseline and write a line per tuple.
/// Returns the number of failures: tuples drifting past tol on time_us /
/// speedup / efficiency, plus baseline tuples missing from `current`.
[[nodiscard]] int run_diff(const std::vector<DiffEntry>& baseline,
                           const std::vector<DiffEntry>& current,
                           const DiffOptions& opt, std::ostream& os);

// ------------------------------------------------------------ host time --
//
// Unlike the virtual clock, host wall time is noisy: the same binary on
// the same machine jitters run to run. Each (harness, tag, formulation,
// procs) tuple is therefore measured k times (one bench envelope per
// repeat) and collapsed to median + MAD (median absolute deviation — a
// robust spread immune to one slow outlier run). `pdt trend` records
// these tuples and gates them inside the noise band of common/numeric.hpp.

/// One host-time tuple with its repeats collapsed to median + MAD (both
/// in nanoseconds; k = number of repeats observed).
struct HostEntry {
  std::string harness;
  std::string tag;
  std::string formulation;
  std::int64_t procs = 0;
  std::int64_t k = 0;
  double median_ns = 0.0;
  double mad_ns = 0.0;
};

/// Same (harness, tag, formulation, procs) tuple.
[[nodiscard]] bool same_host_tuple(const HostEntry& a, const HostEntry& b);

/// "harness tag formulation P=N", the tuple's name in gate output.
[[nodiscard]] std::string tuple_name(const HostEntry& e);

/// Collect the host total_ns of every instrumented_run section that has
/// one, across all input envelopes (each input = one repeat), and
/// collapse per tuple to median + MAD. Tuples keep first-appearance
/// order; sections without a "host" member contribute nothing.
[[nodiscard]] std::vector<HostEntry> extract_host_entries(
    const std::vector<ReportInput>& inputs);

}  // namespace pdt::tools
