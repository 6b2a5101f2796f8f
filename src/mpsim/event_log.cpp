#include "mpsim/event_log.hpp"

#include <algorithm>
#include <cassert>

namespace pdt::mpsim {

void EventRecorder::bind(int nprocs, const CostModel& cost) {
  assert(nprocs >= 1);
  events_.clear();
  clocks_.assign(static_cast<std::size_t>(nprocs), 0.0);
  cost_ = cost;
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
  switch (e.type) {
    case ExecEvent::Type::Charge: {
      // Same arithmetic as Machine: the shadow clock stays bit-identical.
      const auto r = static_cast<std::size_t>(e.rank);
      events_.push_back(std::move(e));
      clocks_[r] += events_.back().dt_us;
      return;
    }
    case ExecEvent::Type::Barrier: {
      events_.push_back(std::move(e));
      // Mirror of Machine::barrier_over's main path: horizon = max over
      // the member clocks, then every member is assigned (not added) up
      // to it.
      Time horizon = 0.0;
      for (const Rank r : events_.back().members) {
        horizon = std::max(horizon, clocks_[static_cast<std::size_t>(r)]);
      }
      for (const Rank r : events_.back().members) {
        if (clocks_[static_cast<std::size_t>(r)] < horizon) {
          clocks_[static_cast<std::size_t>(r)] = horizon;
        }
      }
      return;
    }
    case ExecEvent::Type::Timeout: {
      events_.push_back(std::move(e));
      // Mirror of Machine::charge_timeout.
      Time horizon = 0.0;
      for (const Rank r : events_.back().members) {
        horizon = std::max(horizon, clocks_[static_cast<std::size_t>(r)]);
      }
      const Time deadline = horizon + cost_.t_timeout;
      for (const Rank r : events_.back().members) {
        if (clocks_[static_cast<std::size_t>(r)] < deadline) {
          clocks_[static_cast<std::size_t>(r)] = deadline;
        }
      }
      return;
    }
    case ExecEvent::Type::Retry: {
      events_.push_back(std::move(e));
      // Mirror of Machine::charge_retry: every member waits out a
      // backed-off timeout window from the members' common horizon.
      Time horizon = 0.0;
      for (const Rank r : events_.back().members) {
        horizon = std::max(horizon, clocks_[static_cast<std::size_t>(r)]);
      }
      const Time deadline = horizon + cost_.t_timeout * events_.back().mult;
      for (const Rank r : events_.back().members) {
        if (clocks_[static_cast<std::size_t>(r)] < deadline) {
          clocks_[static_cast<std::size_t>(r)] = deadline;
        }
      }
      return;
    }
    case ExecEvent::Type::Wait: {
      const auto r = static_cast<std::size_t>(e.rank);
      const Time until = e.until_us;
      events_.push_back(std::move(e));
      if (clocks_[r] < until) clocks_[r] = until;
      return;
    }
    case ExecEvent::Type::WaitFor: {
      const auto r = static_cast<std::size_t>(e.rank);
      const auto src = static_cast<std::size_t>(e.peer);
      events_.push_back(std::move(e));
      const Time until = clocks_[src];
      if (clocks_[r] < until) clocks_[r] = until;
      return;
    }
    case ExecEvent::Type::Collective: {
      events_.push_back(std::move(e));
      return;
    }
  }
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

Time EventRecorder::max_clock() const {
  Time t = 0.0;
  for (const Time c : clocks_) t = std::max(t, c);
  return t;
}

}  // namespace pdt::mpsim
