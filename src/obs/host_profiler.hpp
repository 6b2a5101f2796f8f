// Wall-clock profiler timed by the virtual PhaseProfiler's scopes.
//
// The simulator executes the algorithms' *data* work for real on the host
// CPU while charging *virtual* time to the simulated clocks. The virtual
// side answers "what would the SP-2 have spent here"; the HostProfiler
// answers "what did this host actually spend here". Both ride the same
// (phase, level) scopes: the PhaseProfiler notifies the host profiler
// just before every PhaseScope open/close and every LevelScope level
// change, and the host profiler bills the nanoseconds since the previous
// transition to the (phase, level) that was current until now. Each cell
// therefore holds the *self time* of its scope (nested scopes bill their
// own time, not their parent's), and shares its key with the virtual
// cell of the same scope — which is what lets pdt report render
// simulated-vs-real side by side and rank where the cost model and the
// host diverge.
//
// The clock is read once per transition, never per charge, so the cost
// of observation is bounded by the number of scopes, not by the work
// inside them. The first transition only anchors the chain; host work
// before it and after the last one is setup and teardown, not algorithm.
// There is no rank or charge-kind split: one thread runs every simulated
// rank (DESIGN.md §14), so host time has no per-rank meaning.
//
// Like every observer here the profiler is strictly passive — it reads a
// clock and writes its own cells, never the machine — so enabling it
// cannot change virtual clocks, trees, or any pre-existing export by a
// single bit (the parity suite enforces this). When disabled it costs
// one null-pointer branch per scope transition. A clock step that would
// go backwards is clamped to zero *and counted* (clamped()), surfaced in
// pdt-host-v1.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/host_clock.hpp"
#include "obs/phase.hpp"

namespace pdt::obs {

/// Host nanoseconds of one (phase, level) cell and the number of
/// transition intervals billed to it.
struct HostTotals {
  std::int64_t ns = 0;
  std::uint64_t samples = 0;

  [[nodiscard]] std::int64_t total_ns() const { return ns; }
};

class HostProfiler {
 public:
  /// `stamps` is the PhaseProfiler whose scopes drive this profiler (via
  /// PhaseProfiler::set_host_sink); the exporters read its phase names
  /// and paired virtual totals. May be null. `clock` may be null: a
  /// private SteadyHostClock is used. A non-null clock is borrowed
  /// (tests inject fakes).
  explicit HostProfiler(const PhaseProfiler* stamps = nullptr,
                        HostClock* clock = nullptr);

  /// Scope-transition hook: reads the clock once and bills the time since
  /// the previous transition to (p, level), the scope current until now.
  void on_transition(PhaseId p, int level);

  /// One (phase, level) row of the host breakdown.
  struct Row {
    PhaseId phase = 0;
    int level = kNoLevel;
    HostTotals totals;
  };
  /// Every cell billed at least once, ordered by (phase, level).
  [[nodiscard]] std::vector<Row> rows() const;

  /// Host totals of one phase at one level; pass any_level == true to sum
  /// over levels (mirrors PhaseProfiler::phase_totals).
  [[nodiscard]] HostTotals phase_totals(PhaseId p, int level,
                                        bool any_level = false) const;
  /// One past the highest phase id billed so far.
  [[nodiscard]] PhaseId num_phases() const {
    return static_cast<PhaseId>(cells_.size());
  }

  /// Host nanoseconds billed so far: the last transition minus the first.
  [[nodiscard]] std::int64_t total_ns() const { return total_ns_; }
  /// Transition intervals billed so far (transitions minus the anchor).
  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  /// Intervals whose clock step would have been negative and was clamped
  /// to zero (a well-behaved monotonic clock never trips this).
  [[nodiscard]] std::uint64_t clamped() const { return clamped_; }

  [[nodiscard]] const char* clock_name() const { return clock_->name(); }
  [[nodiscard]] const PhaseProfiler* stamps() const { return stamps_; }

 private:
  const PhaseProfiler* stamps_;
  SteadyHostClock default_clock_;
  HostClock* clock_;
  bool started_ = false;
  std::int64_t last_ns_ = 0;
  std::int64_t total_ns_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t clamped_ = 0;
  /// cells_[phase][level + 1]: phase ids and levels are dense and small,
  /// so a grown-on-demand array replaces any hashing.
  std::vector<std::vector<HostTotals>> cells_;
};

}  // namespace pdt::obs
