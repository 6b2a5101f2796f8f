// Offline what-if engine over pdt-events-v1 execution logs.
//
// parse_event_log() ingests the event stream obs::write_events emits;
// replay_log() deterministically re-executes it against an arbitrary
// cost model. Each recorded charge is rescaled by the ratio of the
// target constant to the recorded one (communication charges scale
// their latency and bandwidth parts independently via the recorded
// decomposition), while barriers, timeouts, and waits are recomputed
// structurally with the exact max/assignment arithmetic of the
// simulator. With target == recorded constants every ratio is exactly
// 1.0 and the IEEE identity dt * 1.0 == dt makes the replayed per-rank
// clocks — and max_clock — bit-exact copies of the recorded run. That
// identity is the contract `pdt-replay --check`, the replay tests, and
// CI enforce.
//
// On top of the single replay: --sweep grids produce speedup/efficiency
// surfaces over (t_s, t_w, ...) ranges, --iso bisects recorded-work
// scaling into measured isoefficiency curves charted against the
// analytic N = E/(1-E) * iso_c * P log2 P, and the wait-for blame
// analyzer walks every synchronization's member arrival clocks into
// per-(rank, level, holder, phase) idle-blame edges.
//
// Like the other offline tools, this library links no simulator code —
// it reads JSON only.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "json/json.hpp"

namespace pdt::tools {

/// The five cost constants of mpsim::CostModel, as plain doubles.
struct ReplayCost {
  double t_s = 0.0;
  double t_w = 0.0;
  double t_c = 0.0;
  double t_io = 0.0;
  double t_timeout = 0.0;

  /// Set a constant by name ("t_s", ...); false on unknown key.
  bool set(std::string_view key, double v);
};

/// One parsed event. Tag mirrors the compact pdt-events-v1 encoding.
struct ReplayEvent {
  enum class Tag : std::uint8_t {
    Compute,     ///< ["cp", rank, dt, phase, level]
    Io,          ///< ["io", rank, dt, phase, level]
    Comm,        ///< ["cm", rank, dt, lat, ws, wr, msgs, phase, level]
    Barrier,     ///< ["b",  what, [members]]
    Timeout,     ///< ["to", dead, [survivors]]
    Wait,        ///< ["w",  rank, until]
    WaitFor,     ///< ["wf", rank, src]
    Collective,  ///< ["g",  kind, words, dim, [members]]
    Retry,       ///< ["rt", faulty, mult, [members]]
  };

  Tag tag = Tag::Compute;
  int rank = -1;  ///< charge/wait subject; Timeout: the dead rank
  int peer = -1;  ///< WaitFor: the rank whose clock is waited on
  int phase = 0;
  int level = -1;
  double dt = 0.0;
  double lat = 0.0;  ///< Comm: t_s-proportional part of dt
  double words_sent = 0.0;
  double words_received = 0.0;
  std::uint64_t messages = 0;
  double until = 0.0;  ///< Wait: absolute target time
  double words = 0.0;  ///< Collective payload
  double mult = 1.0;   ///< Retry: backoff multiplier on t_timeout
  int dim = 0;
  std::string label;  ///< Barrier what / Collective kind
  std::vector<int> members;
};

/// One per-phase row of the optional host overlay.
struct HostPhaseRow {
  std::string phase;
  double host_ns = 0.0;
  double virtual_us = 0.0;
};

/// A fully parsed pdt-events-v1 document.
struct EventLog {
  std::string name;
  int nprocs = 0;
  ReplayCost cost;  ///< constants the run was recorded under
  std::string formulation;
  std::string workload;
  double n = 0.0;  ///< training records (meta)
  double iso_c = 0.0;
  std::vector<std::string> phases;
  std::vector<ReplayEvent> events;
  double recorded_max_clock = 0.0;
  std::vector<double> recorded_clocks;

  /// Measured wall-clock overlay, when the log carries a "host" object
  /// (a HostProfiler rode the recorded run). Lets run_replay chart
  /// predicted (virtual, re-priced) scaling against what the recording
  /// host actually spent.
  bool has_host = false;
  std::string host_clock;
  double host_total_ns = 0.0;
  std::uint64_t host_samples = 0;
  std::vector<HostPhaseRow> host_by_phase;
};

/// Parse a pdt-events-v1 root object. On failure returns false and
/// fills `*error` (unknown schema, malformed event, rank out of range).
[[nodiscard]] bool parse_event_log(const JsonValue& root, EventLog* out,
                                   std::string* error);

/// One aggregated wait-for blame edge (offline mirror of
/// obs::BlameEdge; holder_phase -1 = idle waiting out a rank failure).
struct ReplayBlameEdge {
  int idler = -1;
  int idler_level = -1;
  int holder = -1;
  int holder_phase = 0;
  double idle_us = 0.0;
  double idle_pct = 0.0;
};

struct ReplayResult {
  std::vector<double> clocks;
  double max_clock = 0.0;
  /// Sum of charged (busy) time over ranks under the target constants —
  /// the work-equivalent serial time used when no P=1 log is available.
  double busy_total = 0.0;
  /// True when a recorded constant was 0 but the target is not: those
  /// charges cannot be rescaled (ratio pinned to 1) and the what-if
  /// result under-estimates the target cost.
  bool unscalable = false;
  std::vector<ReplayBlameEdge> blame;
};

/// Re-execute `log` under `target`. With target == log.cost the clocks
/// reproduce log.recorded_clocks bit-exactly.
[[nodiscard]] ReplayResult replay_log(const EventLog& log,
                                      const ReplayCost& target,
                                      bool with_blame = false);

/// One --sweep axis: KEY=LO:HI:STEP.
struct SweepAxis {
  std::string key;
  double lo = 0.0;
  double hi = 0.0;
  double step = 0.0;
};

/// Parse "t_s=10:80:10,t_w=0.05:0.2:0.05" (also accepts KEY=V as a
/// single-point axis). False + error on malformed specs.
[[nodiscard]] bool parse_sweep_spec(std::string_view spec,
                                    std::vector<SweepAxis>* out,
                                    std::string* error);

struct ReplayOptions {
  bool check = false;  ///< identity-replay gate over every input
  std::vector<std::pair<std::string, double>> overrides;  ///< --set
  std::vector<SweepAxis> sweep;
  bool iso = false;
  double iso_efficiency = 0.8;
  int blame_top = 10;
};

/// Run the whole pipeline over the parsed logs and emit the
/// pdt-replay-v1 JSON report. Returns kExitOk, or kExitFail when the
/// --check identity gate found a mismatch.
int run_replay(const std::vector<EventLog>& logs, const ReplayOptions& opt,
               std::ostream& os);

}  // namespace pdt::tools
