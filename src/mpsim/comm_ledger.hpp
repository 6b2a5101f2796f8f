// Communication-cost ledger for the simulated machine.
//
// A CommLedger attached to a Machine records one entry per Group
// collective — kind, group, payload words, the per-member cost the
// collective actually charged, and the Eq. 2-4 analytic prediction from
// the CostModel — and accumulates a rank x rank traffic matrix (words and
// messages) describing who sent how much to whom. This is the measured
// side of the paper's Section 4 cost analysis: the exporter
// (obs::write_comm, schema "pdt-comm-v1") reports the
// measured-vs-predicted delta per collective kind and per tree level.
//
// Accounting convention (model-level, exact arithmetic):
//
//   predicted = sum over members of the member's Eq. 2-4 communication
//               formula (what the collective charged as comm time);
//   measured  = the same sum after folding in trailing-barrier
//               serialization: collectives that end with a barrier
//               (pairwise exchange, transfers, all-to-all) leave every
//               member waiting for the slowest, so each member's measured
//               cost is the group maximum.
//
// Hence measured - predicted is exactly the barrier-idle penalty folded
// into the collective, and is bit-exact 0 for the uniform-cost
// collectives (all-reduce, broadcast) that charge the model formula
// directly to every member. Entry-barrier idle (waiting for stragglers
// *before* the collective starts) is load imbalance of the preceding
// phase and is deliberately not part of either number; I/O surcharges
// (t_io record relocation) are reported separately as io_us.
//
// The ledger is strictly passive: recording never touches the clocks, so
// attaching one can never change simulated time (the obs parity suite
// enforces this bit-for-bit).
#pragma once

#include <cstdint>
#include <vector>

#include "mpsim/cost_model.hpp"
#include "mpsim/topology.hpp"

namespace pdt::mpsim {

/// Which Group collective produced a ledger entry.
enum class CollectiveKind {
  AllReduce,         ///< all_reduce_sum / charge_all_reduce (Eq. 2)
  Broadcast,         ///< charge_broadcast
  PairwiseExchange,  ///< pairwise_exchange — the moving phase (Eq. 3)
  Transfers,         ///< charge_transfers — load balancing (Eq. 4)
  AllToAll,          ///< all_to_all_personalized [KGGK94]
};

inline constexpr int kNumCollectiveKinds = 5;

[[nodiscard]] const char* to_string(CollectiveKind k);

/// One collective call, as recorded by Group.
struct CollectiveEntry {
  CollectiveKind kind = CollectiveKind::AllReduce;
  /// Tree level the call was issued at (see CommLedger::set_level);
  /// -1 = outside any level scope (e.g. partition restructuring).
  int level = -1;
  Rank group_base = 0;  ///< representative (lowest) rank of the group
  int group_size = 1;
  double words = 0.0;      ///< payload words (kind-specific aggregate)
  Time predicted_us = 0.0; ///< sum over members of the Eq. 2-4 formula
  Time measured_us = 0.0;  ///< predicted + trailing-barrier fold
  Time io_us = 0.0;        ///< t_io surcharges billed inside the call
  /// Backed-off timeout windows burned on transient-fault retries before
  /// this collective succeeded (summed over members; 0 on a clean call).
  Time retry_us = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t retries = 0;  ///< failed attempts absorbed by this call

  [[nodiscard]] Time delta_us() const { return measured_us - predicted_us; }
};

class CommLedger {
 public:
  /// Size the traffic matrix for `n` ranks (called by Machine on attach;
  /// growing later is also fine — existing counts are preserved).
  void ensure_ranks(int n);
  [[nodiscard]] int num_ranks() const { return n_; }

  /// Tree level stamped onto subsequently recorded entries; returns the
  /// previous level so LedgerLevelScope can restore it. -1 = none.
  int set_level(int level);
  [[nodiscard]] int level() const { return level_; }

  /// Append a collective entry (the current level is stamped on).
  void record(CollectiveEntry e);
  /// Account `words` 4-byte words (and `messages` point-to-point sends)
  /// travelling from `from` to `to`.
  void add_traffic(Rank from, Rank to, double words,
                   std::uint64_t messages = 1);

  [[nodiscard]] const std::vector<CollectiveEntry>& entries() const {
    return entries_;
  }
  /// Words sent from `from` to `to` over the whole run.
  [[nodiscard]] double words(Rank from, Rank to) const;
  [[nodiscard]] std::uint64_t messages(Rank from, Rank to) const;
  /// Row / column sums of the traffic matrix.
  [[nodiscard]] double words_sent(Rank r) const;
  [[nodiscard]] double words_received(Rank r) const;

  /// Aggregate of all entries of one kind (or one level, any kind).
  struct Totals {
    std::uint64_t calls = 0;
    double words = 0.0;
    Time predicted_us = 0.0;
    Time measured_us = 0.0;
    Time io_us = 0.0;
    Time retry_us = 0.0;
    std::uint64_t messages = 0;
    std::uint64_t retries = 0;

    [[nodiscard]] Time delta_us() const { return measured_us - predicted_us; }
  };
  [[nodiscard]] Totals kind_totals(CollectiveKind k) const;
  [[nodiscard]] Totals level_totals(int level) const;
  /// Highest level seen on any entry (-1 if none).
  [[nodiscard]] int max_level() const { return max_level_; }

 private:
  [[nodiscard]] std::size_t cell(Rank from, Rank to) const {
    return static_cast<std::size_t>(from) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(to);
  }

  int n_ = 0;
  int level_ = -1;
  int max_level_ = -1;
  std::vector<CollectiveEntry> entries_;
  std::vector<double> words_;            // n_ x n_, row = sender
  std::vector<std::uint64_t> messages_;  // n_ x n_
};

/// RAII level tag, null-safe so call sites stay branch-cheap when no
/// ledger is attached (mirrors obs::LevelScope for the profiler).
class LedgerLevelScope {
 public:
  LedgerLevelScope(CommLedger* l, int level) : l_(l) {
    if (l_ != nullptr) prev_ = l_->set_level(level);
  }
  ~LedgerLevelScope() {
    if (l_ != nullptr) l_->set_level(prev_);
  }
  LedgerLevelScope(const LedgerLevelScope&) = delete;
  LedgerLevelScope& operator=(const LedgerLevelScope&) = delete;

 private:
  CommLedger* l_;
  int prev_ = -1;
};

}  // namespace pdt::mpsim
