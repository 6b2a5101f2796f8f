#include "mpsim/group.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "mpsim/comm_ledger.hpp"
#include "mpsim/event_log.hpp"

namespace pdt::mpsim {

Group::Group(Machine& m, std::vector<Rank> ranks)
    : machine_(&m), ranks_(std::move(ranks)) {
  assert(!ranks_.empty());
  std::sort(ranks_.begin(), ranks_.end());
}

Group Group::whole(Machine& m) {
  std::vector<Rank> all(static_cast<std::size_t>(m.size()));
  std::iota(all.begin(), all.end(), 0);
  return Group(m, std::move(all));
}

Time Group::horizon() const {
  Time t = 0.0;
  for (Rank r : ranks_) t = std::max(t, machine_->clock(r));
  return t;
}

std::string Group::describe() const {
  return "group [" + std::to_string(ranks_.front()) + ".." +
         std::to_string(ranks_.back()) + "] of " + std::to_string(size());
}

void Group::check_words(double words, const char* where) const {
  if (!std::isfinite(words) || words < 0.0) {
    throw std::invalid_argument(std::string("Group::") + where + ": " +
                                describe() +
                                ": word count must be finite and "
                                "non-negative");
  }
}

void Group::barrier() const { machine_->barrier_over(ranks_); }

namespace {

// Message staging held only for the duration of a collective. Words are
// 4-byte units; rounding to integer bytes keeps charge/release pairs
// exact even for the fractional per-round volumes of all-to-all.
[[nodiscard]] std::int64_t staging_bytes(double words) {
  return std::llround(words * 4.0);
}

// How a collective names its barriers and its trace event. The three
// whose members pay unequal costs end with a second barrier, where every
// member waits for the busiest one.
struct Protocol {
  const char* barrier;
  EventKind event;
  const char* detail;
  bool trailing_barrier;
};

[[nodiscard]] Protocol protocol(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::AllReduce:
      return {"all-reduce", EventKind::AllReduce, "all-reduce", false};
    case CollectiveKind::Broadcast:
      return {"broadcast", EventKind::Broadcast, "broadcast", false};
    case CollectiveKind::PairwiseExchange:
      return {"pairwise-exchange", EventKind::MovingPhase,
              "pairwise exchange", true};
    case CollectiveKind::Transfers:
      return {"load-balance", EventKind::LoadBalance, "load balance", true};
    case CollectiveKind::AllToAll:
      return {"all-to-all", EventKind::PointToPoint,
              "all-to-all personalized", true};
  }
  return {};
}

}  // namespace

template <typename Charge>
void Group::collective(CollectiveKind kind, double words,
                       Charge&& charge) const {
  const Protocol proto = protocol(kind);
  // Name the collective in the event log, so replay analyzers can label
  // the barrier that follows.
  if (EventRecorder* rec = machine_->event_recorder()) {
    rec->record_collective(to_string(kind), ranks_, words, dimension());
  }
  CommLedger* ledger = machine_->comm_ledger();
  CollectiveEntry e;
  e.kind = kind;
  e.group_base = ranks_.front();
  e.group_size = size();
  // Admission first: transient faults matching this member set burn their
  // retry budget (backed-off idle, Retry events) before the collective
  // proceeds; an exhausted budget escalates to RankFailure inside
  // admit_collective. The retry cost goes on this call's entry.
  const auto take_retries = [&] {
    const Machine::RetryAccrual retry = machine_->take_retry_accrual();
    e.retry_us += retry.us;
    e.retries += retry.attempts;
  };
  const auto sync = [&] {
    machine_->admit_collective(ranks_, proto.barrier);
    machine_->barrier_over(ranks_, proto.barrier);
    take_retries();
  };
  try {
    sync();
    e.words = words;
    charge(e, ledger);
    if (proto.trailing_barrier) sync();
  } catch (const RankFailure&) {
    // A failed call still books the retries it burned, so no later call
    // absorbs them. One that failed at its entry moved nothing: its entry
    // carries only the retries.
    take_retries();
    if (ledger != nullptr && e.retries > 0) ledger->record(e);
    throw;
  }
  // An empty transfer plan normally records nothing, but retry cost burned
  // at its barriers must still land in the ledger.
  const bool empty = kind == CollectiveKind::Transfers && e.messages == 0;
  if (ledger != nullptr && (!empty || e.retries > 0)) ledger->record(e);
  if (machine_->trace().enabled()) {
    machine_->trace().record({.time = horizon(),
                              .kind = proto.event,
                              .rank = ranks_.front(),
                              .group_base = ranks_.front(),
                              .group_size = size(),
                              .words = e.words,
                              .detail = proto.detail});
  }
}

template <typename T>
void Group::all_reduce_sum(const std::vector<T*>& bufs, std::size_t len,
                           double words) const {
  if (static_cast<int>(bufs.size()) != size()) {
    throw std::invalid_argument(
        "Group::all_reduce_sum: " + describe() + ": expected one buffer per "
        "member, got " + std::to_string(bufs.size()));
  }
  // Element-wise sum into bufs[0], then copy back out to every buffer.
  // The simulated collective is a recursive doubling all-reduce; in the
  // shared address space the arithmetic result is the same.
  for (std::size_t b = 1; b < bufs.size(); ++b) {
    T* acc = bufs[0];
    const T* src = bufs[b];
    for (std::size_t i = 0; i < len; ++i) acc[i] += src[i];
  }
  for (std::size_t b = 1; b < bufs.size(); ++b) {
    std::copy(bufs[0], bufs[0] + len, bufs[b]);
  }
  charge_all_reduce(words < 0.0 ? static_cast<double>(len) * sizeof(T) / 4.0
                                : words);
}

template void Group::all_reduce_sum(const std::vector<std::int64_t*>&,
                                    std::size_t, double) const;
template void Group::all_reduce_sum(const std::vector<double*>&, std::size_t,
                                    double) const;

void Group::charge_all_reduce(double words) const {
  check_words(words, "charge_all_reduce");
  charge_uniform(CollectiveKind::AllReduce, words);
}

void Group::charge_broadcast(double words) const {
  check_words(words, "charge_broadcast");
  charge_uniform(CollectiveKind::Broadcast, words);
}

void Group::charge_uniform(CollectiveKind kind, double words) const {
  if (size() <= 1) return;
  const bool reduce = kind == CollectiveKind::AllReduce;
  collective(kind, words, [&](CollectiveEntry& e, CommLedger* ledger) {
    const CostModel& cm = machine_->cost();
    const int p = size();
    const int rounds = dimension();
    // Recursive doubling (the paper's Eq. 2) exchanges the full payload
    // once per hypercube dimension; a binomial broadcast delivers it once.
    const Time cost = reduce ? cm.all_reduce(words, p) : cm.broadcast(words, p);
    const double member_words = reduce ? words * rounds : words;
    // Every member holds one shadow buffer of the payload while the
    // exchange is in flight.
    const std::int64_t staging = staging_bytes(words);
    for (Rank r : ranks_) {
      machine_->alloc_bytes(r, MemTag::CollectiveBuffer, staging);
    }
    for (Rank r : ranks_) {
      machine_->charge_comm(r, cost, member_words, member_words,
                            static_cast<std::uint64_t>(rounds),
                            cm.t_s * rounds);
    }
    for (Rank r : ranks_) {
      machine_->free_bytes(r, MemTag::CollectiveBuffer, staging);
    }
    // Every member is charged the formula directly, so measured and
    // predicted coincide bit-exactly.
    e.predicted_us = cost * p;
    e.measured_us = e.predicted_us;
    if (ledger == nullptr) return;
    // All-reduce: in round d every member exchanges with its partner
    // across dimension d. Broadcast: a binomial tree rooted at the first
    // member, where the members that already hold the payload (indices
    // < 2^d) send it 2^d ahead.
    for (int d = 0; d < rounds; ++d) {
      for (int i = 0; i < (reduce ? p : 1 << d); ++i) {
        const int to = reduce ? i ^ (1 << d) : i + (1 << d);
        if (to < p) {
          ledger->add_traffic(rank(i), rank(to), words);
          ++e.messages;
        }
      }
    }
  });
}

void Group::pairwise_exchange(const std::vector<double>& words_out) const {
  if (static_cast<int>(words_out.size()) != size()) {
    throw std::invalid_argument(
        "Group::pairwise_exchange: " + describe() +
        ": words_out must have one entry per member, got " +
        std::to_string(words_out.size()));
  }
  if (size() % 2 != 0) {
    throw std::invalid_argument("Group::pairwise_exchange: " + describe() +
                                ": requires an even-sized group");
  }
  for (const double w : words_out) check_words(w, "pairwise_exchange");
  collective(CollectiveKind::PairwiseExchange,
             std::accumulate(words_out.begin(), words_out.end(), 0.0),
             [&](CollectiveEntry& e, CommLedger* ledger) {
    const CostModel& cm = machine_->cost();
    const int half = size() / 2;
    double total = 0.0;
    Time max_member = 0.0;
    for (int i = 0; i < half; ++i) {
      // Member i pairs with member i + half. For a subcube this is exactly
      // the partner across the highest free dimension.
      const Rank a = rank(i);
      const Rank b = rank(i + half);
      const double out_a = words_out[static_cast<std::size_t>(i)];
      const double out_b = words_out[static_cast<std::size_t>(i + half)];
      const double lf = machine_->link_factor(a, b);
      const Time cost = (cm.t_s + cm.t_w * std::max(out_a, out_b)) * lf;
      const Time latency = cm.t_s * lf;
      // Both endpoints stage the outbound payload plus the inbound one.
      const std::int64_t staging = staging_bytes(out_a + out_b);
      machine_->alloc_bytes(a, MemTag::CollectiveBuffer, staging);
      machine_->alloc_bytes(b, MemTag::CollectiveBuffer, staging);
      machine_->charge_comm(a, cost, out_a, out_b, 1, latency);
      machine_->charge_comm(b, cost, out_b, out_a, 1, latency);
      machine_->free_bytes(a, MemTag::CollectiveBuffer, staging);
      machine_->free_bytes(b, MemTag::CollectiveBuffer, staging);
      // Records live in disk-resident attribute lists: the sender reads
      // what it ships, the receiver writes what arrives.
      const Time io = cm.t_io * (out_a + out_b);
      machine_->charge_io(a, io);
      machine_->charge_io(b, io);
      total += out_a + out_b;
      e.predicted_us += cost + cost;
      max_member = std::max(max_member, cost);
      e.io_us += io + io;
      if (ledger != nullptr) {
        ledger->add_traffic(a, b, out_a);
        ledger->add_traffic(b, a, out_b);
      }
    }
    e.words = total;
    // Unequal pair volumes serialize at the trailing barrier: every member
    // effectively pays for the heaviest pair.
    e.measured_us = max_member * size();
    e.messages = static_cast<std::uint64_t>(size());
  });
}

std::vector<Transfer> Group::plan_balance(
    const std::vector<std::int64_t>& counts) {
  const std::int64_t total =
      std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
  const int p = static_cast<int>(counts.size());
  const std::int64_t base = total / p;
  std::int64_t extra = total % p;  // first `extra` members get base + 1

  std::vector<std::int64_t> target(counts.size());
  for (int i = 0; i < p; ++i) {
    target[static_cast<std::size_t>(i)] = base + (i < extra ? 1 : 0);
  }

  // Two-pointer matching of surplus members against deficit members.
  std::vector<Transfer> transfers;
  int donor = 0;
  int taker = 0;
  std::vector<std::int64_t> cur = counts;
  while (true) {
    while (donor < p && cur[static_cast<std::size_t>(donor)] <=
                            target[static_cast<std::size_t>(donor)]) {
      ++donor;
    }
    while (taker < p && cur[static_cast<std::size_t>(taker)] >=
                            target[static_cast<std::size_t>(taker)]) {
      ++taker;
    }
    if (donor >= p || taker >= p) break;
    const std::int64_t give =
        std::min(cur[static_cast<std::size_t>(donor)] -
                     target[static_cast<std::size_t>(donor)],
                 target[static_cast<std::size_t>(taker)] -
                     cur[static_cast<std::size_t>(taker)]);
    transfers.push_back(Transfer{donor, taker, give});
    cur[static_cast<std::size_t>(donor)] -= give;
    cur[static_cast<std::size_t>(taker)] += give;
  }
  return transfers;
}

void Group::charge_transfers(const std::vector<Transfer>& transfers,
                             double words_per_item) const {
  check_words(words_per_item, "charge_transfers");
  for (const Transfer& t : transfers) {
    if (t.from < 0 || t.from >= size() || t.to < 0 || t.to >= size() ||
        t.count < 0) {
      throw std::invalid_argument(
          "Group::charge_transfers: " + describe() +
          ": transfer " + std::to_string(t.from) + "->" +
          std::to_string(t.to) + " x" + std::to_string(t.count) +
          " is outside the group or negative");
    }
  }
  double plan_words = 0.0;
  for (const Transfer& t : transfers) {
    plan_words += static_cast<double>(t.count) * words_per_item;
  }
  collective(CollectiveKind::Transfers, plan_words,
             [&](CollectiveEntry& e, CommLedger* ledger) {
    const CostModel& cm = machine_->cost();
    // Each member pays t_w for every word it sends or receives, plus one
    // start-up per transfer it participates in. Transfers between disjoint
    // pairs overlap; we charge per-member serialized cost, which matches
    // the Eq. 3/4 bound of 2*(N/P)*t_w when counts are within [0, 2N/P].
    const auto n = static_cast<std::size_t>(size());
    std::vector<Time> member_cost(n, 0.0);
    std::vector<Time> member_latency(n, 0.0);
    // Words a member sends and receives, and their sum in transfer order
    // (the volume its cost, disk I/O and staging cover).
    std::vector<double> member_words(n, 0.0);
    std::vector<double> member_sent(n, 0.0);
    std::vector<double> member_received(n, 0.0);
    for (const Transfer& t : transfers) {
      const auto from = static_cast<std::size_t>(t.from);
      const auto to = static_cast<std::size_t>(t.to);
      const double words = static_cast<double>(t.count) * words_per_item;
      const double lf = machine_->link_factor(rank(t.from), rank(t.to));
      const Time wire = (cm.t_s + cm.t_w * words) * lf;
      member_cost[from] += wire;
      member_cost[to] += wire;
      member_latency[from] += cm.t_s * lf;
      member_latency[to] += cm.t_s * lf;
      member_words[from] += words;
      member_words[to] += words;
      member_sent[from] += words;
      member_received[to] += words;
      if (ledger != nullptr) {
        ledger->add_traffic(rank(t.from), rank(t.to), words);
      }
    }
    Time max_member = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Rank r = rank(static_cast<int>(i));
      if (member_cost[i] > 0.0) {
        const std::int64_t staging = staging_bytes(member_words[i]);
        const Time io = cm.t_io * member_words[i];
        machine_->alloc_bytes(r, MemTag::CollectiveBuffer, staging);
        machine_->charge_comm(r, member_cost[i], member_sent[i],
                              member_received[i], 1, member_latency[i]);
        machine_->charge_io(r, io);
        machine_->free_bytes(r, MemTag::CollectiveBuffer, staging);
        e.predicted_us += member_cost[i];
        e.io_us += io;
      }
      max_member = std::max(max_member, member_cost[i]);
    }
    // Members outside the transfer plan idle at the trailing barrier
    // while the busiest endpoint drains its queue.
    e.measured_us = max_member * size();
    e.messages = static_cast<std::uint64_t>(transfers.size());
  });
}

void Group::all_to_all_personalized(
    const std::vector<std::vector<double>>& words_out) const {
  const int p = size();
  // Shape/value errors here would otherwise silently misindex (the old
  // asserts vanish under NDEBUG), so validate for real before charging.
  if (static_cast<int>(words_out.size()) != p) {
    throw std::invalid_argument(
        "Group::all_to_all_personalized: words_out must have one row per "
        "group member");
  }
  for (const std::vector<double>& row : words_out) {
    if (static_cast<int>(row.size()) != p) {
      throw std::invalid_argument(
          "Group::all_to_all_personalized: words_out must be a square p x p "
          "matrix");
    }
    for (const double w : row) {
      if (!std::isfinite(w) || w < 0.0) {
        throw std::invalid_argument(
            "Group::all_to_all_personalized: words_out entries must be "
            "finite and non-negative");
      }
    }
  }
  if (p <= 1) return;
  const auto n = static_cast<std::size_t>(p);
  std::vector<double> sent(n, 0.0);
  std::vector<double> recv(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      sent[i] += words_out[i][j];
      recv[j] += words_out[i][j];
    }
  }
  collective(CollectiveKind::AllToAll,
             std::accumulate(sent.begin(), sent.end(), 0.0),
             [&](CollectiveEntry& e, CommLedger* ledger) {
    const CostModel& cm = machine_->cost();
    const int rounds = dimension();
    double max_vol = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Rank r = rank(static_cast<int>(i));
      const double vol = std::max(sent[i], recv[i]);
      const Time cost = cm.all_to_all(vol, p);
      const Time io = cm.t_io * (sent[i] + recv[i]);
      const std::int64_t staging = staging_bytes(sent[i] + recv[i]);
      machine_->alloc_bytes(r, MemTag::CollectiveBuffer, staging);
      machine_->charge_comm(r, cost, sent[i], recv[i],
                            static_cast<std::uint64_t>(rounds),
                            cm.t_s * rounds);
      machine_->charge_io(r, io);
      machine_->free_bytes(r, MemTag::CollectiveBuffer, staging);
      e.predicted_us += cost;
      e.io_us += io;
      max_vol = std::max(max_vol, vol);
    }
    // The member with the heaviest send/receive volume sets the pace for
    // everyone at the trailing barrier.
    e.measured_us = cm.all_to_all(max_vol, p) * p;
    if (ledger == nullptr) return;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j && words_out[i][j] > 0.0) {
          ledger->add_traffic(rank(static_cast<int>(i)),
                              rank(static_cast<int>(j)), words_out[i][j]);
          ++e.messages;
        }
      }
    }
  });
}

std::pair<Group, Group> Group::halves() const {
  assert(size() >= 2);
  const int half = size() / 2;
  std::vector<Rank> lo(ranks_.begin(), ranks_.begin() + half);
  std::vector<Rank> hi(ranks_.begin() + half, ranks_.end());
  return {Group(*machine_, std::move(lo)), Group(*machine_, std::move(hi))};
}

}  // namespace pdt::mpsim
