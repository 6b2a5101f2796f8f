// Event-sourced execution log for the simulated machine.
//
// An EventRecorder attached to a Machine captures the complete causal
// history of a run: every clock charge (with its phase/level stamp and,
// for communication, the latency/bandwidth decomposition), every barrier
// with its member set, every fault-detection timeout, and every collective
// annotation. Event order in the log *is* the happens-before order — the
// simulator is sequential, so the recording sequence totally orders the
// partial order the algorithm induced.
//
// ClockFold is the one walk over the log outside Machine: per-rank clocks
// advanced with Machine's arithmetic (+= for charges, max-assignment for
// barriers, horizon + window for timeouts and retries), optionally
// re-priced under other cost constants and optionally aggregating
// wait-for blame edges. The recorder's shadow clocks are an identity fold
// (so the final clocks survive the Machine's destruction into the
// serialized log), in-process blame is a blame-on identity fold over
// events(), and tools/pdt replay runs the same fold over a parsed log.
// Under unchanged constants every rescale factor is exactly 1.0, so an
// offline replay reproduces every per-rank clock bit-exactly; that
// identity is the contract `pdt replay --check` and the replay tests
// enforce.
//
// Charges are recorded *post* fault-injector scaling: a straggler's 2x
// charges appear as their doubled durations, so a recorded faulty run
// replays to the faulty clocks without the replayer knowing about faults.
//
// Like ChargeObserver, the recorder is strictly passive and lives in
// mpsim so that Machine can call it without depending on obs; the obs
// layer owns one (obs::Observability::enable_event_log) and serializes it
// (obs::write_events, schema "pdt-events-v1").
//
// The recorder is driven by the one thread that drives the Machine
// (DESIGN.md §14): every hook appends directly and advances the shadow
// clocks in call order.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "mpsim/cost_model.hpp"
#include "mpsim/observer.hpp"
#include "mpsim/topology.hpp"

namespace pdt::mpsim {

/// One entry of the execution log. The index in EventRecorder::events()
/// is the event's sequence number (happens-before order).
struct ExecEvent {
  enum class Type : std::uint8_t {
    Charge,      ///< compute / comm / io clock advance on one rank
    Barrier,     ///< members synchronized at their common horizon
    Timeout,     ///< survivors waited out t_timeout for a dead member
    Wait,        ///< one rank advanced to an absolute time
    WaitFor,     ///< one rank advanced to another rank's current clock
    Collective,  ///< annotation: a Group collective is about to run
    Retry,       ///< a transient collective failure: members waited out a
                 ///< backed-off timeout window blamed on one faulty rank
  };

  Type type = Type::Charge;
  ChargeKind kind = ChargeKind::Compute;  ///< Charge only
  Rank rank = -1;   ///< Charge/Wait/WaitFor subject; Timeout: dead rank
  Rank peer = -1;   ///< WaitFor: the rank whose clock was waited on
  int phase = 0;    ///< interned phase id at record time (Charge only)
  int level = -1;   ///< tree level of the charged rank (Charge only)
  Time dt_us = 0.0;       ///< Charge: amount (post fault-injector scaling)
  Time latency_us = 0.0;  ///< Comm charge: the t_s-proportional part of dt
  Time until_us = 0.0;    ///< Wait: absolute target time
  double words_sent = 0.0;
  double words_received = 0.0;
  std::uint64_t messages = 0;
  int dim = 0;              ///< Collective: hypercube rounds
  double words = 0.0;       ///< Collective: total payload words
  double mult = 1.0;        ///< Retry: backoff multiplier on t_timeout
  const char* what = "";    ///< Barrier/Collective label (string literal)
  std::vector<Rank> members;  ///< Barrier/Timeout/Collective member set
};

/// One aggregated idle-blame edge. `holder_phase` is an interned phase
/// id (index into EventRecorder::phase_names()); kRankFailurePhase marks
/// idle caused by waiting out a dead or faulty rank's detection window.
struct BlameEdge {
  Rank idler = -1;
  int idler_level = -1;  ///< tree level of the idler's last charge
  Rank holder = -1;      ///< the rank (or dead rank) waited on
  int holder_phase = 0;  ///< phase of the holder's last charge
  Time idle_us = 0.0;
  double idle_pct = 0.0;  ///< idle_us / idler's final clock * 100
};

/// Sentinel holder_phase for timeout-induced idleness (there is no
/// holder charge to attribute — the "holder" never arrived).
inline constexpr int kRankFailurePhase = -1;

/// Per-rank clocks folded over a log in happens-before order.
///
/// A log recorded under `recorded` is priced under `target`: compute
/// charges scale by t_c'/t_c, I/O by t_io'/t_io, and a comm charge's
/// latency part by t_s'/t_s and its remainder by t_w'/t_w. Barriers,
/// timeouts, retries and wait-fors are recomputed from the folded clocks;
/// absolute waits are taken as recorded. With target == recorded every
/// factor is exactly 1.0 and the clocks equal the recording machine's
/// bit-exactly.
///
/// With blame on, every synchronization charges each earlier arrival's
/// idle gap to an edge keyed (idler, idler's level, holder, holder's
/// phase): the holder of a barrier is its first member at the horizon
/// (Machine's tie rule), of a wait-for the peer, and of a timeout or
/// retry the dead or faulty rank (kRankFailurePhase).
class ClockFold {
 public:
  ClockFold() = default;
  ClockFold(int nprocs, const CostModel& recorded, const CostModel& target,
            bool blame = false);

  void apply(const ExecEvent& e);

  [[nodiscard]] const std::vector<Time>& clocks() const { return clocks_; }
  [[nodiscard]] Time max_clock() const;
  /// Constants the fold prices under.
  [[nodiscard]] const CostModel& target() const { return target_; }
  /// Sum of every folded charge over all ranks — the work-equivalent
  /// serial time when no P=1 log is available.
  [[nodiscard]] Time busy_total() const { return busy_total_; }
  /// True when a recorded constant was 0 but the target is not: those
  /// charges cannot be rescaled (factor pinned to 1), so the fold
  /// under-estimates the target cost.
  [[nodiscard]] bool unscalable() const { return unscalable_; }
  /// The aggregated edges (empty unless blame is on), ordered by idle_us
  /// descending, ties by idler, holder, idler_level, then holder_phase.
  [[nodiscard]] std::vector<BlameEdge> blame() const;

 private:
  [[nodiscard]] Time& clock(Rank r) {
    return clocks_[static_cast<std::size_t>(r)];
  }
  /// Every member waits until the members' horizon plus `window`, blamed
  /// on `faulty` (Machine::charge_timeout / admit_collective).
  void wait_out(const std::vector<Rank>& members, Rank faulty, Time window);
  void charge_idle(Rank idler, Rank holder, int holder_phase, Time idle);

  std::vector<Time> clocks_;
  std::vector<int> last_phase_;
  std::vector<int> last_level_;
  CostModel target_{};
  double rs_ = 1.0;
  double rw_ = 1.0;
  double rc_ = 1.0;
  double rio_ = 1.0;
  Time busy_total_ = 0.0;
  bool unscalable_ = false;
  bool blame_ = false;
  /// (idler, idler_level, holder, holder_phase) -> accumulated idle.
  std::map<std::array<int, 4>, Time> idle_;
};

class EventRecorder {
 public:
  /// (Re)bind to a machine of `nprocs` ranks using `cost`: clears the
  /// event log and shadow clocks. Called by Machine::set_event_recorder;
  /// the interned phase names and the open phase stack survive, since
  /// phase scopes may already be open when the machine is created.
  void bind(int nprocs, const CostModel& cost);
  [[nodiscard]] bool bound() const { return bound_; }

  // -- Machine hooks (passive; called after the machine's own update) --
  void record_charge(Rank r, ChargeKind kind, Time dt, Time latency,
                     double words_sent, double words_received,
                     std::uint64_t messages, int level);
  void record_barrier(const char* what, const std::vector<Rank>& members);
  void record_timeout(Rank dead, const std::vector<Rank>& survivors);
  void record_retry(Rank faulty, const std::vector<Rank>& members,
                    double mult);
  void record_wait(Rank r, Time until);
  void record_wait_for(Rank r, Rank src);
  void record_collective(const char* kind, const std::vector<Rank>& members,
                         double words, int dim);

  // -- Phase sink (obs::PhaseProfiler forwards its scopes here) --
  void open_phase(std::string_view name);
  void close_phase();

  [[nodiscard]] const std::vector<ExecEvent>& events() const {
    return events_;
  }
  /// Interned phase names; index == ExecEvent::phase. names()[0] is
  /// "(unattributed)".
  [[nodiscard]] const std::vector<std::string>& phase_names() const {
    return names_;
  }
  [[nodiscard]] int nprocs() const {
    return static_cast<int>(fold_.clocks().size());
  }
  [[nodiscard]] const CostModel& cost() const { return fold_.target(); }
  /// Shadow clocks — equal to the machine's per-rank clocks after every
  /// recorded event (bit-exactly; tests enforce it).
  [[nodiscard]] const std::vector<Time>& clocks() const {
    return fold_.clocks();
  }
  [[nodiscard]] Time max_clock() const { return fold_.max_clock(); }

 private:
  [[nodiscard]] int intern(std::string_view name);
  /// Append, then advance the shadow clocks.
  void record(ExecEvent&& e);

  std::vector<ExecEvent> events_;
  std::vector<std::string> names_{"(unattributed)"};
  std::vector<int> stack_;
  ClockFold fold_;  ///< identity fold: recorded == target, blame off
  bool bound_ = false;
};

}  // namespace pdt::mpsim
