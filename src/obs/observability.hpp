// The per-run observability bundle: one PhaseProfiler, one
// CriticalPathTracer, one CommLedger and one MemLedger, attachable to a
// simulated Machine in a single call. Optional collectors ride
// along on request: the event recorder, the host profiler (timed by the
// PhaseProfiler's scope transitions) and the split audit.
//
// Ownership: the caller (a bench harness, test, or example) owns the
// Observability and points ParOptions::obs at it; the run attaches the
// observers to its Machine. One Observability per build_* call — reusing
// one across runs accumulates, which is only what you want when you mean
// it.
#pragma once

#include <memory>

#include "mpsim/comm_ledger.hpp"
#include "mpsim/event_log.hpp"
#include "mpsim/machine.hpp"
#include "obs/critical_path.hpp"
#include "obs/host_profiler.hpp"
#include "obs/mem_ledger.hpp"
#include "obs/phase.hpp"
#include "obs/split_audit.hpp"

namespace pdt::obs {

/// Forwards every Machine event to the profiler, the critical-path
/// tracer, and the memory ledger (Machine holds a single observer slot).
/// Passive like its constituents.
class ObserverFanout final : public mpsim::ChargeObserver {
 public:
  ObserverFanout(PhaseProfiler* profiler, CriticalPathTracer* critical,
                 MemLedger* mem)
      : profiler_(profiler), critical_(critical), mem_(mem) {}

  void on_charge(mpsim::Rank r, mpsim::ChargeKind kind, mpsim::Time start,
                 mpsim::Time dt, double words_sent,
                 double words_received) override {
    profiler_->on_charge(r, kind, start, dt, words_sent, words_received);
    critical_->on_charge(r, kind, start, dt, words_sent, words_received);
  }

  void on_barrier(const std::vector<mpsim::Rank>& members, mpsim::Rank holder,
                  mpsim::Time t) override {
    profiler_->on_barrier(members, holder, t);
    critical_->on_barrier(members, holder, t);
  }

  void on_alloc(mpsim::Rank r, mpsim::MemTag tag, std::int64_t bytes,
                std::int64_t live_after) override {
    (void)live_after;
    mem_->on_alloc(r, tag, bytes);
  }

  void on_free(mpsim::Rank r, mpsim::MemTag tag, std::int64_t bytes,
               std::int64_t live_after) override {
    (void)live_after;
    mem_->on_free(r, tag, bytes);
  }

 private:
  PhaseProfiler* profiler_;
  CriticalPathTracer* critical_;
  MemLedger* mem_;
};

class Observability {
 public:
  explicit Observability(ProfilerConfig cfg = {})
      : profiler_(cfg),
        critical_(&profiler_),
        mem_(&profiler_),
        fanout_(&profiler_, &critical_, &mem_) {}

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  [[nodiscard]] PhaseProfiler& profiler() { return profiler_; }
  [[nodiscard]] const PhaseProfiler& profiler() const { return profiler_; }
  [[nodiscard]] CriticalPathTracer& critical_path() { return critical_; }
  [[nodiscard]] const CriticalPathTracer& critical_path() const {
    return critical_;
  }
  [[nodiscard]] mpsim::CommLedger& comm_ledger() { return ledger_; }
  [[nodiscard]] const mpsim::CommLedger& comm_ledger() const {
    return ledger_;
  }
  [[nodiscard]] MemLedger& mem_ledger() { return mem_; }
  [[nodiscard]] const MemLedger& mem_ledger() const { return mem_; }

  /// Turn on event-sourced execution logging: creates the owned
  /// EventRecorder (idempotent) and wires the profiler's phase scopes
  /// into it; the next attach() hands it to the machine. Call before the
  /// run you want captured; serialize with obs::write_events afterwards.
  mpsim::EventRecorder& enable_event_log() {
    if (recorder_ == nullptr) {
      recorder_ = std::make_unique<mpsim::EventRecorder>();
      profiler_.set_event_sink(recorder_.get());
    }
    return *recorder_;
  }
  /// The owned recorder, or nullptr when event logging is off.
  [[nodiscard]] const mpsim::EventRecorder* event_log() const {
    return recorder_.get();
  }

  /// Turn on host (wall-clock) profiling: creates the owned HostProfiler
  /// and hands it to the virtual profiler, whose scope transitions time
  /// it per (phase, level) (idempotent — the clock of the first call
  /// wins). The charge fanout never sees it. Strictly passive: the
  /// virtual clocks, trees, and every pre-existing export stay
  /// bit-identical (the parity suite enforces it). Serialize with
  /// obs::write_host afterwards.
  HostProfiler& enable_host_profiler(HostClock* clock = nullptr) {
    if (host_ == nullptr) {
      host_ = std::make_unique<HostProfiler>(&profiler_, clock);
      profiler_.set_host_sink(host_.get());
    }
    return *host_;
  }
  /// The owned host profiler, or nullptr when host profiling is off.
  [[nodiscard]] const HostProfiler* host_profiler() const {
    return host_.get();
  }

  /// Turn on the split-decision audit: creates the owned SplitAudit
  /// riding the profiler's (phase, level) stamps (idempotent). The run
  /// wires it into its Tree via ParContext / GrowOptions::split_observer;
  /// strictly passive like every other observer here. Serialize with
  /// dtree::model_json afterwards.
  SplitAudit& enable_split_audit() {
    if (split_audit_ == nullptr) {
      split_audit_ = std::make_unique<SplitAudit>(&profiler_);
    }
    return *split_audit_;
  }
  /// The owned audit, or nullptr when split auditing is off.
  [[nodiscard]] const SplitAudit* split_audit() const {
    return split_audit_.get();
  }
  [[nodiscard]] SplitAudit* split_audit() { return split_audit_.get(); }

  /// Attach the profiler + critical-path tracer as the machine's charge
  /// observer and the ledger as its communication ledger (plus the event
  /// recorder when enable_event_log() was called).
  void attach(mpsim::Machine& m) {
    m.set_observer(&fanout_);
    m.set_comm_ledger(&ledger_);
    if (recorder_ != nullptr) m.set_event_recorder(recorder_.get());
  }

 private:
  PhaseProfiler profiler_;
  CriticalPathTracer critical_;
  MemLedger mem_;
  ObserverFanout fanout_;
  mpsim::CommLedger ledger_;
  std::unique_ptr<mpsim::EventRecorder> recorder_;
  std::unique_ptr<HostProfiler> host_;
  std::unique_ptr<SplitAudit> split_audit_;
};

}  // namespace pdt::obs
