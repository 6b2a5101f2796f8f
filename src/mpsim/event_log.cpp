#include "mpsim/event_log.hpp"

#include <algorithm>
#include <cassert>

namespace pdt::mpsim {

namespace {

/// Rescale factor for one constant. recorded == target yields exactly
/// 1.0 so the identity fold multiplies every charge by 1.0 — an IEEE
/// no-op that keeps the clocks bit-exact. A recorded 0 with a nonzero
/// target is unscalable: the log carries no term proportional to that
/// constant, so the factor stays 1 and the fold is flagged.
double ratio(double recorded, double target, bool* unscalable) {
  if (recorded == target) return 1.0;
  if (recorded == 0.0) {
    *unscalable = true;
    return 1.0;
  }
  return target / recorded;
}

}  // namespace

ClockFold::ClockFold(int nprocs, const CostModel& recorded,
                     const CostModel& target, bool blame)
    : clocks_(static_cast<std::size_t>(nprocs), 0.0),
      last_phase_(static_cast<std::size_t>(nprocs), 0),
      last_level_(static_cast<std::size_t>(nprocs), -1),
      target_(target),
      rs_(ratio(recorded.t_s, target.t_s, &unscalable_)),
      rw_(ratio(recorded.t_w, target.t_w, &unscalable_)),
      rc_(ratio(recorded.t_c, target.t_c, &unscalable_)),
      rio_(ratio(recorded.t_io, target.t_io, &unscalable_)),
      blame_(blame) {}

void ClockFold::charge_idle(Rank idler, Rank holder, int holder_phase,
                            Time idle) {
  if (!blame_ || idle <= 0.0) return;
  idle_[{idler, last_level_[static_cast<std::size_t>(idler)], holder,
         holder_phase}] += idle;
}

void ClockFold::wait_out(const std::vector<Rank>& members, Rank faulty,
                         Time window) {
  Time horizon = 0.0;
  for (const Rank r : members) horizon = std::max(horizon, clock(r));
  const Time deadline = horizon + window;
  for (const Rank r : members) {
    charge_idle(r, faulty, kRankFailurePhase, deadline - clock(r));
    if (clock(r) < deadline) clock(r) = deadline;
  }
}

void ClockFold::apply(const ExecEvent& e) {
  switch (e.type) {
    case ExecEvent::Type::Charge: {
      Time dt;
      if (e.kind == ChargeKind::Comm) {
        // One factor for the whole charge when t_s and t_w scale alike.
        // The split form is mathematically equal but NOT bit-identical
        // (lat + (dt - lat) need not round back to dt), so the identity
        // fold must take this branch.
        dt = rs_ == rw_ ? e.dt_us * rs_
                        : e.latency_us * rs_ + (e.dt_us - e.latency_us) * rw_;
      } else {
        dt = e.dt_us * (e.kind == ChargeKind::Io ? rio_ : rc_);
      }
      clock(e.rank) += dt;
      busy_total_ += dt;
      last_phase_[static_cast<std::size_t>(e.rank)] = e.phase;
      last_level_[static_cast<std::size_t>(e.rank)] = e.level;
      return;
    }
    case ExecEvent::Type::Barrier: {
      Time horizon = 0.0;
      for (const Rank r : e.members) horizon = std::max(horizon, clock(r));
      // Machine's tie rule: the first member at the horizon holds it.
      Rank holder = e.members.empty() ? 0 : e.members.front();
      for (const Rank r : e.members) {
        if (clock(r) == horizon) {
          holder = r;
          break;
        }
      }
      for (const Rank r : e.members) {
        if (r != holder) {
          charge_idle(r, holder, last_phase_[static_cast<std::size_t>(holder)],
                      horizon - clock(r));
        }
        if (clock(r) < horizon) clock(r) = horizon;
      }
      return;
    }
    case ExecEvent::Type::Timeout:
      wait_out(e.members, e.rank, target_.t_timeout);
      return;
    case ExecEvent::Type::Retry:
      // Attempt i of a transient failure waits out 2^i windows (mult).
      wait_out(e.members, e.rank, target_.t_timeout * e.mult);
      return;
    case ExecEvent::Type::Wait:
      // Absolute-time wait: taken as recorded, with no holder to blame.
      if (clock(e.rank) < e.until_us) clock(e.rank) = e.until_us;
      return;
    case ExecEvent::Type::WaitFor: {
      const Time until = clock(e.peer);
      charge_idle(e.rank, e.peer, last_phase_[static_cast<std::size_t>(e.peer)],
                  until - clock(e.rank));
      if (clock(e.rank) < until) clock(e.rank) = until;
      return;
    }
    case ExecEvent::Type::Collective:
      return;  // annotation only — no clock effect
  }
}

Time ClockFold::max_clock() const {
  Time t = 0.0;
  for (const Time c : clocks_) t = std::max(t, c);
  return t;
}

std::vector<BlameEdge> ClockFold::blame() const {
  std::vector<BlameEdge> out;
  out.reserve(idle_.size());
  for (const auto& [key, idle] : idle_) {
    BlameEdge edge;
    edge.idler = key[0];
    edge.idler_level = key[1];
    edge.holder = key[2];
    edge.holder_phase = key[3];
    edge.idle_us = idle;
    const Time total = clocks_[static_cast<std::size_t>(edge.idler)];
    edge.idle_pct = total > 0.0 ? 100.0 * idle / total : 0.0;
    out.push_back(edge);
  }
  std::sort(out.begin(), out.end(), [](const BlameEdge& a, const BlameEdge& b) {
    if (a.idle_us != b.idle_us) return a.idle_us > b.idle_us;
    if (a.idler != b.idler) return a.idler < b.idler;
    if (a.holder != b.holder) return a.holder < b.holder;
    if (a.idler_level != b.idler_level) return a.idler_level < b.idler_level;
    return a.holder_phase < b.holder_phase;
  });
  return out;
}

void EventRecorder::bind(int nprocs, const CostModel& cost) {
  assert(nprocs >= 1);
  events_.clear();
  fold_ = ClockFold(nprocs, cost, cost);
  bound_ = true;
}

int EventRecorder::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.emplace_back(name);
  return static_cast<int>(names_.size() - 1);
}

void EventRecorder::open_phase(std::string_view name) {
  stack_.push_back(intern(name));
}

void EventRecorder::close_phase() {
  assert(!stack_.empty());
  stack_.pop_back();
}

void EventRecorder::record(ExecEvent&& e) {
  events_.push_back(std::move(e));
  fold_.apply(events_.back());
}

void EventRecorder::record_charge(Rank r, ChargeKind kind, Time dt,
                                  Time latency, double words_sent,
                                  double words_received,
                                  std::uint64_t messages, int level) {
  assert(bound_);
  ExecEvent e;
  e.type = ExecEvent::Type::Charge;
  e.kind = kind;
  e.rank = r;
  e.phase = stack_.empty() ? 0 : stack_.back();
  e.level = level;
  e.dt_us = dt;
  e.latency_us = latency;
  e.words_sent = words_sent;
  e.words_received = words_received;
  e.messages = messages;
  record(std::move(e));
}

void EventRecorder::record_barrier(const char* what,
                                   const std::vector<Rank>& members) {
  assert(bound_);
  ExecEvent e;
  e.type = ExecEvent::Type::Barrier;
  e.what = what;
  e.members = members;
  record(std::move(e));
}

void EventRecorder::record_timeout(Rank dead,
                                   const std::vector<Rank>& survivors) {
  assert(bound_);
  ExecEvent e;
  e.type = ExecEvent::Type::Timeout;
  e.rank = dead;
  e.members = survivors;
  record(std::move(e));
}

void EventRecorder::record_retry(Rank faulty,
                                 const std::vector<Rank>& members,
                                 double mult) {
  assert(bound_);
  ExecEvent e;
  e.type = ExecEvent::Type::Retry;
  e.rank = faulty;
  e.members = members;
  e.mult = mult;
  record(std::move(e));
}

void EventRecorder::record_wait(Rank r, Time until) {
  assert(bound_);
  ExecEvent e;
  e.type = ExecEvent::Type::Wait;
  e.rank = r;
  e.until_us = until;
  record(std::move(e));
}

void EventRecorder::record_wait_for(Rank r, Rank src) {
  assert(bound_);
  ExecEvent e;
  e.type = ExecEvent::Type::WaitFor;
  e.rank = r;
  e.peer = src;
  record(std::move(e));
}

void EventRecorder::record_collective(const char* kind,
                                      const std::vector<Rank>& members,
                                      double words, int dim) {
  assert(bound_);
  ExecEvent e;
  e.type = ExecEvent::Type::Collective;
  e.what = kind;
  e.members = members;
  e.words = words;
  e.dim = dim;
  record(std::move(e));
}

}  // namespace pdt::mpsim
