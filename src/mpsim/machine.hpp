// The simulated message-passing machine.
//
// A Machine owns P virtual processors, each with its own virtual clock and
// accounting. Algorithms written against mpsim execute their *data* work
// for real (histograms are summed, records are moved between ranks'
// local stores) while *time* is charged to the clocks according to the
// CostModel — exactly the t_c/t_s/t_w model the paper's Section 4 uses.
//
// This substitutes for the paper's 128-node IBM SP-2 (see DESIGN.md §1):
// the algorithmic behaviour (tree shape, communication volume, load
// imbalance) is genuine; only wall-clock time is virtual.
//
// Clocks move in two ways only. A charge (compute, communication or I/O)
// goes through one private step that applies the fault plan, advances the
// clock and tells the observer and the event recorder. A wait (barrier,
// detection timeout, retry backoff, wait_until/wait_for) advances a clock
// to a target time and is accounted as idle.
#pragma once

#include <cassert>
#include <memory>
#include <vector>

#include "mpsim/cost_model.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/observer.hpp"
#include "mpsim/stats.hpp"
#include "mpsim/topology.hpp"
#include "mpsim/trace.hpp"

namespace pdt::mpsim {

class CommLedger;
class EventRecorder;

class Machine {
 public:
  /// Create a machine of `nprocs` processors (any nprocs >= 1; hypercube
  /// collectives round the dimension up when nprocs is not a power of 2).
  explicit Machine(int nprocs, CostModel cost = CostModel::sp2());

  [[nodiscard]] int size() const { return static_cast<int>(clocks_.size()); }
  [[nodiscard]] const CostModel& cost() const { return cost_; }

  [[nodiscard]] Time clock(Rank r) const { return clocks_[idx(r)]; }
  /// Completion time of the whole run: the maximum clock over all ranks.
  [[nodiscard]] Time max_clock() const;

  /// Charge `units` abstract computation units (each costing t_c) to rank
  /// r's clock.
  void charge_compute(Rank r, double units) {
    charge(r, ChargeKind::Compute, units * cost_.t_c);
  }
  /// Charge raw virtual time to r's clock, accounted as computation.
  /// Used for work whose cost is not a clean multiple of t_c (e.g. the
  /// n log n term of a local sort).
  void charge_compute_time(Rank r, Time t) {
    charge(r, ChargeKind::Compute, t);
  }
  /// Charge communication time to r's clock and record traffic volume.
  /// `latency` is the t_s-proportional (start-up) part of `t`, recorded
  /// so an event-log replay can rescale the latency and bandwidth terms
  /// independently; it never affects the charge itself.
  void charge_comm(Rank r, Time t, double words_sent, double words_received,
                   std::uint64_t messages = 1, Time latency = 0.0) {
    charge(r, ChargeKind::Comm, t, words_sent, words_received, messages,
           latency);
  }
  /// Charge disk-I/O time (record relocation) to r's clock.
  void charge_io(Rank r, Time t) { charge(r, ChargeKind::Io, t); }
  /// Advance r's clock to `t` (>= current), accounting the gap as idle
  /// (barrier wait). No-op if r is already past t.
  void wait_until(Rank r, Time t);
  /// Advance r's clock to src's current clock (idle). Prefer this over
  /// wait_until(r, clock(src)): the event log records the *dependency*
  /// instead of the absolute time, so a what-if replay re-derives the
  /// wait from src's replayed clock.
  void wait_for(Rank r, Rank src);
  /// Fault-detection timeout: advance every survivor to the survivors'
  /// common horizon plus cost().t_timeout (charged as idle — the
  /// heartbeat window expiring on dead rank `dead`). Returns the
  /// deadline the survivors advanced to.
  Time charge_timeout(const std::vector<Rank>& survivors, Rank dead);
  /// Synchronize `ranks` at their common horizon (the maximum clock over
  /// the set): every member waits up to it, then the observer's
  /// on_barrier hook fires with the max-clock member as path holder.
  /// `what` names the collective in the event log and the trace. With
  /// faults armed, a dead un-recovered member makes the survivors wait
  /// out cost().t_timeout (charged as idle) and then raises RankFailure
  /// instead of hanging; a member an exhausted retry budget killed was
  /// detected there, so it raises RankFailure without a second timeout.
  /// Dead members whose death was already recovered are silently
  /// excluded.
  void barrier_over(const std::vector<Rank>& ranks,
                    const char* what = "barrier");

  /// Bounded retry attempts a collective makes before escalating a
  /// transient fault to a fail-stop.
  static constexpr int kMaxRetryAttempts = 4;

  /// Admission control for a named Group collective: with faults armed,
  /// consume any transient-fault budget matching `ranks` (checksum-failed
  /// link, transient timeout). Each failed attempt advances every member
  /// to the members' horizon plus cost().t_timeout * 2^attempt (idle —
  /// exponential backoff on the detection window), records a Retry event,
  /// and accrues retry cost for the ledger entry the collective will
  /// write (take_retry_accrual). When the fault outlives the retry
  /// budget, the faulty rank is killed and escalated as a detected
  /// RankFailure for the recovery layer. One predictable branch when
  /// disarmed, so fault-free runs stay bit-identical.
  void admit_collective(const std::vector<Rank>& ranks, const char* what);

  /// Pending retry accrual since the last take: failed-attempt cost not
  /// yet attributed to a ledger entry.
  struct RetryAccrual {
    Time us = 0.0;
    std::uint64_t attempts = 0;
  };
  [[nodiscard]] RetryAccrual take_retry_accrual() {
    const RetryAccrual out = retry_accrual_;
    retry_accrual_ = RetryAccrual{};
    return out;
  }

  /// Run-cumulative transient-retry counters.
  [[nodiscard]] std::uint64_t retries() const { return total_retries_; }
  [[nodiscard]] Time retry_us() const { return total_retry_us_; }
  [[nodiscard]] int escalations() const { return escalations_; }

  /// Charge `bytes` (>= 0) of virtual memory tagged `tag` to rank r's
  /// byte account, updating per-tag and total live/peak counters and
  /// firing the observer's on_alloc hook. Memory events never advance
  /// clocks: footprint accounting is orthogonal to simulated time, so
  /// obs-on and obs-off runs stay bit-identical.
  void alloc_bytes(Rank r, MemTag tag, std::int64_t bytes);
  /// Release `bytes` previously charged with the same tag. Releasing
  /// more than is live is a bug (asserted in debug builds; clamped to
  /// zero otherwise).
  void free_bytes(Rank r, MemTag tag, std::int64_t bytes);

  [[nodiscard]] const MemStats& mem(Rank r) const { return mem_[idx(r)]; }
  [[nodiscard]] std::int64_t live_bytes(Rank r) const {
    return mem_[idx(r)].live_total;
  }
  [[nodiscard]] std::int64_t peak_bytes(Rank r) const {
    return mem_[idx(r)].peak_total;
  }
  [[nodiscard]] const RankStats& stats(Rank r) const { return stats_[idx(r)]; }
  /// Sum of all per-rank stats.
  [[nodiscard]] RankStats total_stats() const;

  [[nodiscard]] Trace& trace() { return trace_; }
  [[nodiscard]] const Trace& trace() const { return trace_; }

  /// Attach (or detach, with nullptr) a passive observer notified of every
  /// clock advance. Not owned. Costs one predictable branch per charge
  /// when detached; never alters simulated time either way.
  void set_observer(ChargeObserver* obs) { observer_ = obs; }
  [[nodiscard]] ChargeObserver* observer() const { return observer_; }

  /// Attach (or detach, with nullptr) a communication ledger that Group
  /// collectives record into. Not owned; strictly passive like the
  /// observer — never alters simulated time.
  void set_comm_ledger(CommLedger* ledger);
  [[nodiscard]] CommLedger* comm_ledger() const { return comm_ledger_; }

  /// Attach (or detach, with nullptr) an event recorder capturing the
  /// causal execution log (see event_log.hpp). Not owned; strictly
  /// passive. Attaching (re)binds the recorder to this machine's size
  /// and cost model, clearing any previously recorded events.
  void set_event_recorder(EventRecorder* rec);
  [[nodiscard]] EventRecorder* event_recorder() const { return recorder_; }

  /// Arm a fault plan: an injector is created and every subsequent charge
  /// / collective consults it (a straggler's charges are scaled, a dead
  /// rank's charges raise RankFailure). One predictable branch per charge
  /// when disarmed, so fault-free runs stay bit-identical.
  void arm_faults(const FaultPlan& plan);
  /// The armed injector, or nullptr on the fault-free path.
  [[nodiscard]] FaultInjector* fault() const { return injector_.get(); }

  /// Link cost multiplier between a and b (1.0 unless a plan delays it).
  [[nodiscard]] double link_factor(Rank a, Rank b) const {
    return injector_ != nullptr ? injector_->link_factor(a, b) : 1.0;
  }

  /// Record that rank r is working on tree level `level`: the event log
  /// stamps r's charges with it. Never touches clocks.
  void set_rank_level(Rank r, int level) { cur_level_[idx(r)] = level; }

 private:
  /// The one charge step behind charge_compute/_time, charge_comm and
  /// charge_io: fail on a dead rank, scale by the straggler factor,
  /// advance the clock, update the stats, then tell the observer and the
  /// event recorder.
  void charge(Rank r, ChargeKind kind, Time t, double words_sent = 0.0,
              double words_received = 0.0, std::uint64_t messages = 0,
              Time latency = 0.0);
  /// wait_until without the event-log hook: barrier_over and wait_out
  /// advance clocks through this, because the recorded Barrier, Timeout
  /// or Retry event lets the replay *recompute* those idles from the
  /// member clocks (recording them too would double-advance).
  void advance_to(Rank r, Time t);
  /// Advance every rank of `ranks` to their horizon plus `window`, as
  /// idle: the wait of charge_timeout and of each failed attempt in
  /// admit_collective. Returns the deadline.
  Time wait_out(const std::vector<Rank>& ranks, Time window);

  [[nodiscard]] std::size_t idx(Rank r) const {
    assert(r >= 0 && r < size());
    return static_cast<std::size_t>(r);
  }

  CostModel cost_;
  std::vector<Time> clocks_;
  std::vector<RankStats> stats_;
  std::vector<MemStats> mem_;
  Trace trace_;
  ChargeObserver* observer_ = nullptr;
  CommLedger* comm_ledger_ = nullptr;
  EventRecorder* recorder_ = nullptr;
  std::unique_ptr<FaultInjector> injector_;
  std::vector<int> cur_level_;
  RetryAccrual retry_accrual_;
  std::uint64_t total_retries_ = 0;
  Time total_retry_us_ = 0.0;
  int escalations_ = 0;
};

}  // namespace pdt::mpsim
