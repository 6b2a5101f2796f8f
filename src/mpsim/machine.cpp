#include "mpsim/machine.hpp"

#include <algorithm>
#include <cstdint>

#include "mpsim/comm_ledger.hpp"
#include "mpsim/event_log.hpp"

namespace pdt::mpsim {

const char* to_string(ChargeKind k) {
  switch (k) {
    case ChargeKind::Compute: return "compute";
    case ChargeKind::Comm: return "comm";
    case ChargeKind::Io: return "io";
    case ChargeKind::Idle: return "idle";
  }
  return "?";
}

const char* to_string(MemTag t) {
  switch (t) {
    case MemTag::Records: return "records";
    case MemTag::Histogram: return "histogram";
    case MemTag::AttributeList: return "attribute_list";
    case MemTag::HashTable: return "hash_table";
    case MemTag::Scratch: return "scratch";
    case MemTag::CollectiveBuffer: return "collective_buffer";
  }
  return "?";
}

Machine::Machine(int nprocs, CostModel cost)
    : cost_(cost),
      clocks_(static_cast<std::size_t>(nprocs), 0.0),
      stats_(static_cast<std::size_t>(nprocs)),
      mem_(static_cast<std::size_t>(nprocs)),
      cur_level_(static_cast<std::size_t>(nprocs), -1) {
  assert(nprocs >= 1);
}

Time Machine::max_clock() const {
  return *std::max_element(clocks_.begin(), clocks_.end());
}

Time Machine::min_clock() const {
  return *std::min_element(clocks_.begin(), clocks_.end());
}

void Machine::charge(Rank r, ChargeKind kind, Time t, double words_sent,
                     double words_received, std::uint64_t messages,
                     Time latency) {
  assert(t >= 0.0);
  if (injector_ != nullptr) {
    if (!injector_->alive(r)) {
      throw RankFailure(r, injector_->level(r), /*detected=*/false);
    }
    const double factor = injector_->time_factor(r);
    t *= factor;
    latency *= factor;  // the decomposition scales with the whole charge
  }
  const std::size_t i = idx(r);
  const Time start = clocks_[i];
  clocks_[i] += t;
  RankStats& s = stats_[i];
  switch (kind) {
    case ChargeKind::Compute: s.compute_time += t; break;
    case ChargeKind::Comm: s.comm_time += t; break;
    case ChargeKind::Io: s.io_time += t; break;
    case ChargeKind::Idle: assert(false && "idle is waited, not charged");
  }
  s.words_sent += static_cast<std::uint64_t>(words_sent);
  s.words_received += static_cast<std::uint64_t>(words_received);
  s.messages_sent += messages;
  if (observer_ != nullptr) {
    observer_->on_charge(r, kind, start, t, words_sent, words_received);
  }
  if (recorder_ != nullptr) {
    recorder_->record_charge(r, kind, t, latency, words_sent, words_received,
                             messages, cur_level_[i]);
  }
}

void Machine::advance_to(Rank r, Time t) {
  const std::size_t i = idx(r);
  if (clocks_[i] < t) {
    const Time start = clocks_[i];
    stats_[i].idle_time += t - start;
    clocks_[i] = t;
    if (observer_ != nullptr) {
      observer_->on_charge(r, ChargeKind::Idle, start, t - start, 0.0, 0.0);
    }
  }
}

void Machine::wait_until(Rank r, Time t) {
  if (recorder_ != nullptr) recorder_->record_wait(r, t);
  advance_to(r, t);
}

void Machine::wait_for(Rank r, Rank src) {
  if (recorder_ != nullptr) recorder_->record_wait_for(r, src);
  advance_to(r, clocks_[idx(src)]);
}

Time Machine::wait_out(const std::vector<Rank>& ranks, Time window) {
  Time horizon = 0.0;
  for (const Rank r : ranks) horizon = std::max(horizon, clocks_[idx(r)]);
  const Time deadline = horizon + window;
  for (const Rank r : ranks) advance_to(r, deadline);
  return deadline;
}

Time Machine::charge_timeout(const std::vector<Rank>& survivors, Rank dead) {
  const Time deadline = wait_out(survivors, cost_.t_timeout);
  if (recorder_ != nullptr) recorder_->record_timeout(dead, survivors);
  return deadline;
}

void Machine::admit_collective(const std::vector<Rank>& ranks,
                               const char* what) {
  if (injector_ == nullptr || ranks.size() < 2) return;
  const TransientVerdict v =
      injector_->take_transient(ranks, kMaxRetryAttempts);
  if (v.failures == 0) return;
  for (int attempt = 0; attempt < v.failures; ++attempt) {
    // Exponential backoff: attempt i waits out 2^i detection windows.
    const double mult = static_cast<double>(std::uint64_t{1} << attempt);
    const Time deadline = wait_out(ranks, cost_.t_timeout * mult);
    if (recorder_ != nullptr) recorder_->record_retry(v.faulty, ranks, mult);
    const Time window =
        cost_.t_timeout * mult * static_cast<double>(ranks.size());
    retry_accrual_.us += window;
    ++retry_accrual_.attempts;
    total_retry_us_ += window;
    ++total_retries_;
    if (trace_.enabled()) {
      trace_.record({.time = deadline,
                     .kind = EventKind::Retry,
                     .rank = v.faulty,
                     .group_base = ranks.front(),
                     .group_size = static_cast<int>(ranks.size()),
                     .words = mult,
                     .detail = std::string("attempt ") +
                               std::to_string(attempt + 1) + " of " + what +
                               " failed (rank " + std::to_string(v.faulty) +
                               "), backoff x" +
                               std::to_string(static_cast<int>(mult))});
    }
  }
  if (v.exhausted) {
    ++escalations_;
    injector_->kill(v.faulty);
    if (trace_.enabled()) {
      trace_.record({.time = max_clock(),
                     .kind = EventKind::RankFail,
                     .rank = v.faulty,
                     .group_base = ranks.front(),
                     .group_size = static_cast<int>(ranks.size()),
                     .words = 0.0,
                     .detail = std::string("rank ") +
                               std::to_string(v.faulty) + " exhausted " +
                               std::to_string(kMaxRetryAttempts) +
                               " retries in " + what});
    }
    throw RankFailure(v.faulty, injector_->level(v.faulty),
                      /*detected=*/true);
  }
}

void Machine::barrier_over(const std::vector<Rank>& ranks, const char* what) {
  if (ranks.empty()) return;
  // With faults armed, a member that fail-stopped and whose death has not
  // been absorbed yet is detected here: the survivors synchronize, wait
  // out the detection timeout (charged as idle — the cost-model stand-in
  // for a heartbeat expiring), and the failure is raised for the recovery
  // layer. A member an exhausted retry budget killed was detected by its
  // retries, so it raises the failure without waiting out another
  // timeout. Members whose death was already recovered are excluded — a
  // stale group that still lists them simply proceeds without them.
  const std::vector<Rank>* members = &ranks;
  std::vector<Rank> alive_members;
  if (injector_ != nullptr) {
    Rank dead = -1;
    bool any_excluded = false;
    for (Rank r : ranks) {
      if (injector_->alive(r)) continue;
      any_excluded = true;
      if (!injector_->recovered(r) && dead < 0) dead = r;
    }
    if (any_excluded) {
      for (Rank r : ranks) {
        if (injector_->alive(r)) alive_members.push_back(r);
      }
      if (dead >= 0) {
        if (injector_->escalated(dead)) {
          throw RankFailure(dead, injector_->level(dead), /*detected=*/true);
        }
        const Time deadline = charge_timeout(alive_members, dead);
        if (trace_.enabled()) {
          trace_.record({.time = deadline,
                         .kind = EventKind::RankFail,
                         .rank = dead,
                         .group_base = ranks.front(),
                         .group_size = static_cast<int>(ranks.size()),
                         .words = 0.0,
                         .detail = std::string("rank ") +
                                   std::to_string(dead) +
                                   " timed out in " + what});
        }
        throw RankFailure(dead, injector_->level(dead), /*detected=*/true);
      }
      if (alive_members.empty()) return;
      members = &alive_members;
    }
  }
  Time horizon = 0.0;
  for (Rank r : *members) horizon = std::max(horizon, clocks_[idx(r)]);
  // The path holder must be identified before the waits equalize the
  // clocks: it is the first member already at the horizon.
  Rank holder = members->front();
  for (Rank r : *members) {
    if (clocks_[idx(r)] == horizon) {
      holder = r;
      break;
    }
  }
  for (Rank r : *members) advance_to(r, horizon);
  if (observer_ != nullptr && members->size() > 1) {
    observer_->on_barrier(*members, holder, horizon);
  }
  if (recorder_ != nullptr && members->size() > 1) {
    recorder_->record_barrier(what, *members);
  }
}

void Machine::arm_faults(const FaultPlan& plan) {
  injector_ = std::make_unique<FaultInjector>(plan, size());
}

void Machine::alloc_bytes(Rank r, MemTag tag, std::int64_t bytes) {
  assert(bytes >= 0);
  if (bytes == 0) return;
  MemStats& m = mem_[idx(r)];
  const auto t = static_cast<std::size_t>(tag);
  m.live[t] += bytes;
  if (m.live[t] > m.peak[t]) m.peak[t] = m.live[t];
  m.live_total += bytes;
  if (m.live_total > m.peak_total) m.peak_total = m.live_total;
  if (observer_ != nullptr) {
    observer_->on_alloc(r, tag, bytes, m.live_total);
  }
}

void Machine::free_bytes(Rank r, MemTag tag, std::int64_t bytes) {
  assert(bytes >= 0);
  if (bytes == 0) return;
  MemStats& m = mem_[idx(r)];
  const auto t = static_cast<std::size_t>(tag);
  assert(m.live[t] >= bytes && "freeing more than is live for this tag");
  m.live[t] -= bytes;
  if (m.live[t] < 0) m.live[t] = 0;
  m.live_total -= bytes;
  if (m.live_total < 0) m.live_total = 0;
  if (observer_ != nullptr) {
    observer_->on_free(r, tag, bytes, m.live_total);
  }
}

std::int64_t Machine::max_peak_bytes() const {
  std::int64_t peak = 0;
  for (const MemStats& m : mem_) peak = std::max(peak, m.peak_total);
  return peak;
}

void Machine::set_comm_ledger(CommLedger* ledger) {
  comm_ledger_ = ledger;
  if (comm_ledger_ != nullptr) comm_ledger_->ensure_ranks(size());
}

void Machine::set_event_recorder(EventRecorder* rec) {
  recorder_ = rec;
  if (recorder_ != nullptr) recorder_->bind(size(), cost_);
}

RankStats Machine::total_stats() const {
  RankStats total;
  for (const auto& s : stats_) total += s;
  return total;
}

}  // namespace pdt::mpsim
