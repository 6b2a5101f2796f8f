// Offline what-if engine over pdt-events-v1 execution logs.
//
// parse_event_log() ingests the event stream obs::write_events emits
// into mpsim::ExecEvent values; replay_log() runs mpsim::ClockFold — the
// walk the in-process recorder and blame use — over them against an
// arbitrary cost model. Each recorded charge is rescaled by the ratio of
// the target constant to the recorded one, while barriers, timeouts and
// waits are recomputed with the simulator's max/assignment arithmetic.
// With target == recorded constants every ratio is exactly 1.0, so the
// replayed per-rank clocks — and max_clock — are bit-exact copies of the
// recorded run. That identity is the contract `pdt replay --check`, the
// replay tests, and CI enforce.
//
// On top of the single replay: --sweep grids produce speedup/efficiency
// surfaces over (t_s, t_w, ...) ranges, --iso bisects recorded-work
// scaling into measured isoefficiency curves charted against the
// analytic N = E/(1-E) * iso_c * P log2 P, and the blame-on fold yields
// per-(rank, level, holder, phase) idle-blame edges.
//
// The library links pdt_mpsim (for the event type and the fold; it has
// no third-party dependencies) besides the JSON codec.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "json/json.hpp"
#include "mpsim/event_log.hpp"

namespace pdt::tools {

/// Set the cost constant `key` ("t_s", "t_w", "t_c", "t_io" or
/// "t_timeout") of `*cost` to `v`. False, with `*error` naming the key
/// and value, on an unknown key or a value that is not finite and >= 0.
bool set_cost_constant(mpsim::CostModel* cost, std::string_view key,
                       double v, std::string* error);

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
  mpsim::CostModel cost;  ///< constants the run was recorded under
  std::string formulation;
  std::string workload;
  double n = 0.0;  ///< training records (meta)
  double iso_c = 0.0;
  std::vector<std::string> phases;
  /// Barrier and collective labels are not kept (`what` stays "").
  std::vector<mpsim::ExecEvent> events;
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
/// fills `*error` (unknown schema, malformed event, rank out of range, a
/// recorded cost constant that is not finite and >= 0).
[[nodiscard]] bool parse_event_log(const JsonValue& root, EventLog* out,
                                   std::string* error);

/// Fold `log` under `target`. With target == log.cost the clocks
/// reproduce log.recorded_clocks bit-exactly.
[[nodiscard]] mpsim::ClockFold replay_log(const EventLog& log,
                                          const mpsim::CostModel& target,
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
