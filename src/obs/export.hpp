// Structured exporters for the observability layer:
//
//  * write_perfetto_trace — Chrome/Perfetto `trace_event` JSON of the
//    simulated timeline: one track (tid) per rank, coalesced phase slices
//    as complete ("X") duration events on the virtual clocks, and the
//    machine's collective TraceEvents as flow arrows spanning the group.
//    Load the file at https://ui.perfetto.dev or chrome://tracing.
//
//  * write_metrics — the machine-readable run report ("pdt-metrics-v1"):
//    the per-phase x per-level x per-rank virtual-time breakdown and
//    per-level rollups with load-imbalance and comm-to-compute factors.
//    Schema documented in DESIGN.md §Observability.
//
//  * write_comm — the communication report ("pdt-comm-v1"): per-collective
//    and per-level measured-vs-predicted cost aggregates from the
//    CommLedger, the rank x rank traffic matrix, and the critical-path
//    breakdown (top-k segments with blame percentages) from the
//    CriticalPathTracer.
//
//  * write_mem — the memory report ("pdt-mem-v1"): per-rank live/peak
//    byte accounts per MemTag from the Machine, the Section-4 analytic
//    per-rank prediction, and (when a MemLedger observed the run) the
//    (tag, phase, level, rank) attribution segments.
//
//  * write_events — the execution log ("pdt-events-v1"): the complete
//    event-sourced history from an EventRecorder — every charge with its
//    latency decomposition and phase/level stamp, every barrier/timeout
//    with its member set, every collective annotation — plus the final
//    per-rank clocks. `tools/pdt replay` consumes this to re-execute the
//    run under arbitrary cost models. Schema in DESIGN.md §8. When a
//    HostProfiler observed the same run, a "host" overlay object carries
//    its wall-clock account so replays can chart predicted vs. measured.
//
//  * write_host — the host-time report ("pdt-host-v1"): the HostProfiler's
//    wall-nanosecond self time per (phase, level) scope, each cell paired
//    with the virtual microseconds the same (phase, level) accumulated,
//    plus a per-phase rollup ranking where simulated and real time
//    diverge. Schema in DESIGN.md §9.
#pragma once

#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

#include "json/json.hpp"
#include "mpsim/trace.hpp"
#include "obs/observability.hpp"

namespace pdt::obs {

struct EnvFingerprint;

/// The bench harnesses and perfbench spell the shared writer obs::JsonWriter.
using pdt::JsonWriter;

/// Perfetto/Chrome trace_event JSON. `collectives` (typically
/// Machine::trace().events()) become flow events tying the group's first
/// and last rank tracks together at the collective's completion time.
void write_perfetto_trace(std::ostream& os, const PhaseProfiler& profiler,
                          const std::vector<mpsim::TraceEvent>& collectives = {});

/// Emit the "pdt-metrics-v1" report as one JSON object value on `w`
/// (composable into a larger document — the bench envelopes do this).
void write_metrics(JsonWriter& w, const Observability& o);

/// Emit the "pdt-comm-v1" report as one JSON object value on `w`.
/// `critical` adds the critical_path section; `profiler` resolves its
/// phase names (without one, phase ids are emitted as "phase<N>").
/// `top_k` bounds the exported top_segments list.
void write_comm(JsonWriter& w, const mpsim::CommLedger& ledger,
                const CriticalPathTracer* critical = nullptr,
                const PhaseProfiler* profiler = nullptr, int top_k = 10);

/// Emit the "pdt-mem-v1" report as one JSON object value on `w`.
/// `per_rank` is the Machine's end-of-run byte accounts (ParResult::mem).
/// `predicted` adds the Section-4 analytic terms (skipped when null or
/// empty). `ledger` adds the per-(tag, phase, level, rank) attribution
/// segments; `profiler` resolves its phase names. `top_k` bounds the
/// exported top_segments list.
void write_mem(JsonWriter& w, const std::vector<mpsim::MemStats>& per_rank,
               const mpsim::MemPredicted* predicted = nullptr,
               const MemLedger* ledger = nullptr,
               const PhaseProfiler* profiler = nullptr, int top_k = 10);

/// Run description carried in the event log's `meta` object so offline
/// replays can label surfaces and chart measured isoefficiency against
/// the analytic model without re-deriving workload parameters.
struct EventLogMeta {
  std::string formulation;  ///< "sync" / "part" / "hybrid" / ...
  std::string workload;     ///< e.g. "fig6"
  std::int64_t n = 0;       ///< training records
  int procs = 0;            ///< ranks in the recorded run
  double iso_c = 0.0;       ///< core::isoefficiency_constant (0 = absent)
  /// Build/machine provenance (borrowed; absent when null, so logs
  /// written without one keep their pre-fingerprint bytes).
  const EnvFingerprint* fingerprint = nullptr;
};

/// Emit the "pdt-events-v1" execution log as one JSON object value on
/// `w` (composable into larger documents). `host` (optional) appends a
/// "host" overlay object with the run's measured wall-clock account —
/// absent when null, so pre-host logs are byte-identical.
void write_events(JsonWriter& w, const mpsim::EventRecorder& rec,
                  const EventLogMeta& meta = {},
                  const HostProfiler* host = nullptr);

/// Standalone file variant of write_events.
void write_events_report(std::ostream& os, const mpsim::EventRecorder& rec,
                         const EventLogMeta& meta = {},
                         const HostProfiler* host = nullptr);

/// Emit the "pdt-host-v1" host-time report as one JSON object value on
/// `w`. Every (phase, level) row carries both the host nanoseconds and
/// the paired virtual microseconds from the profiler whose scopes timed
/// the HostProfiler (the pairing rule: same (phase, level) on both sides).
void write_host(JsonWriter& w, const HostProfiler& host);

/// Standalone file variant of write_host.
void write_host_report(std::ostream& os, const HostProfiler& host);

/// Write {"schema": "pdt-threads-v1", "hardware_concurrency": N}. The
/// collectors are single-threaded (DESIGN.md §14), so there is no
/// concurrency telemetry left to report. The function stays only because
/// the paper-scale benchmark (perfbench/bench.cpp) still writes this file.
void write_threads_report(std::ostream& os, const Observability& o);

}  // namespace pdt::obs
