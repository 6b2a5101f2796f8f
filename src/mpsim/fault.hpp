// Deterministic fault injection for the simulated machine.
//
// A FaultPlan is a seeded, declarative description of what goes wrong in a
// run: fail-stop deaths (a rank dies when its group starts expanding a
// given tree level), transient stragglers (a rank's charge() costs are
// scaled by a factor over a level window), delayed links (point-to-point
// costs between two ranks are scaled), and *transient, retryable* faults:
// checksum-detectable corruption on a link and collective timeouts that
// heal after a bounded number of virtual retries. The Machine arms a plan
// into a FaultInjector, which tracks runtime state: which ranks are alive,
// which deaths already fired, what level each rank is working at, and how
// much transient-fault budget each entry has left.
//
// Because all time in mpsim is virtual, a plan is perfectly reproducible:
// the same seed yields the same deaths at the same virtual instants, so
// recovery can be tested bit-for-bit (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpsim/cost_model.hpp"
#include "mpsim/topology.hpp"

namespace pdt::mpsim {

/// Thrown when work is charged to (or a collective includes) a rank that
/// fail-stopped. Caught by the recovery layer (core/recovery.hpp), never
/// by user code on the fault-free path.
class RankFailure : public std::runtime_error {
 public:
  RankFailure(Rank rank, int level, bool detected);

  Rank rank = -1;      ///< the rank that died
  int level = -1;      ///< tree level its group was expanding
  /// True when a collective already charged the detection timeout to the
  /// survivors (a barrier-side detection); false when the failure surfaced
  /// at a charge on the dead rank itself, in which case the recovery path
  /// charges the timeout.
  bool detected = false;
};

/// One scheduled fail-stop: `rank` dies when its group enters tree level
/// `level` (after that level's checkpoint is taken, so recovery always has
/// a consistent snapshot that includes the dead rank's shard).
struct FailStop {
  Rank rank = -1;
  int level = 0;
};

/// A transient slow-down: `rank`'s charges cost `factor`x while it works
/// on levels in [from_level, to_level] inclusive.
struct Straggler {
  Rank rank = -1;
  int from_level = 0;
  int to_level = 0;
  double factor = 1.0;
};

/// A degraded link: point-to-point costs between ranks a and b (either
/// direction) are scaled by `factor`.
struct LinkDelay {
  Rank a = -1;
  Rank b = -1;
  double factor = 1.0;
};

/// Checksum-detectable corruption on the a<->b link: the next `count`
/// collectives at tree level `level` that include both endpoints fail
/// their integrity check and must be retried. Rank `a` is blamed as the
/// faulty rank (it owns the flaky NIC in this model).
struct LinkCorrupt {
  Rank a = -1;
  Rank b = -1;
  int level = 0;
  int count = 1;
};

/// A transient collective timeout: the next `count` collectives at tree
/// level `level` that include `rank` time out and must be retried; the
/// fault heals once the budget is spent.
struct TransientTimeout {
  Rank rank = -1;
  int level = 0;
  int count = 1;
};

/// Outcome of consuming transient-fault budget for one collective (see
/// FaultInjector::take_transient): how many attempts failed before the
/// fault healed, which rank is blamed, and whether the retry budget of
/// the collective was exhausted (the caller escalates to RankFailure).
struct TransientVerdict {
  int failures = 0;      ///< failed attempts before success (0 = clean)
  Rank faulty = -1;      ///< blamed rank (valid when failures > 0)
  bool exhausted = false;  ///< true when failures == max_attempts and the
                           ///< fault still has budget: escalate
};

/// Declarative fault schedule. Built either explicitly (tests, CLI flags)
/// or from a seed via random().
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Builders validate their arguments eagerly and throw
  /// std::invalid_argument on out-of-range values (negative ranks/levels,
  /// non-positive factors/counts, self-links) — a silently-accepted bad
  /// plan would fire nothing and make a fault test vacuously pass.
  FaultPlan& fail_stop(Rank rank, int level);
  FaultPlan& straggler(Rank rank, int from_level, int to_level,
                       double factor);
  FaultPlan& delay_link(Rank a, Rank b, double factor);
  FaultPlan& corrupt_link(Rank a, Rank b, int level, int count);
  FaultPlan& transient_timeout(Rank rank, int level, int count);

  /// A seeded single-failure scenario: one fail-stop at a pseudo-random
  /// (rank, level) plus one straggler window, both drawn from a splitmix64
  /// stream of `seed`. Identical seeds yield identical plans.
  [[nodiscard]] static FaultPlan random(std::uint64_t seed, int nprocs,
                                        int max_level);

  [[nodiscard]] const std::vector<FailStop>& fail_stops() const {
    return fail_stops_;
  }
  [[nodiscard]] const std::vector<Straggler>& stragglers() const {
    return stragglers_;
  }
  [[nodiscard]] const std::vector<LinkDelay>& link_delays() const {
    return link_delays_;
  }
  [[nodiscard]] const std::vector<LinkCorrupt>& link_corrupts() const {
    return link_corrupts_;
  }
  [[nodiscard]] const std::vector<TransientTimeout>& transient_timeouts()
      const {
    return transient_timeouts_;
  }
  [[nodiscard]] bool empty() const {
    return fail_stops_.empty() && stragglers_.empty() &&
           link_delays_.empty() && link_corrupts_.empty() &&
           transient_timeouts_.empty();
  }

  /// One-line human-readable description (for bench/report headers).
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<FailStop> fail_stops_;
  std::vector<Straggler> stragglers_;
  std::vector<LinkDelay> link_delays_;
  std::vector<LinkCorrupt> link_corrupts_;
  std::vector<TransientTimeout> transient_timeouts_;
};

/// Runtime state of an armed plan, owned by the Machine. Strictly
/// deterministic: deaths fire only at enter_level(), factors are pure
/// functions of (rank, current level).
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, int nprocs);

  /// A group whose member ranks are `ranks` starts expanding tree level
  /// `level`: update the members' current level and fire any scheduled
  /// fail-stop matching (member, level) that has not fired yet. Called by
  /// the recovery layer after the level checkpoint is taken.
  void enter_level(int level, const std::vector<Rank>& ranks);

  [[nodiscard]] bool alive(Rank r) const {
    return alive_[static_cast<std::size_t>(r)] != 0;
  }
  /// True once the recovery path has absorbed r's death: stale groups that
  /// still list r simply exclude it from barriers instead of re-detecting.
  [[nodiscard]] bool recovered(Rank r) const {
    return recovered_[static_cast<std::size_t>(r)] != 0;
  }
  void mark_recovered(Rank r) { recovered_[static_cast<std::size_t>(r)] = 1; }

  /// Straggler cost multiplier for r at its current level (1.0 normally).
  [[nodiscard]] double time_factor(Rank r) const;
  /// Link cost multiplier between a and b (1.0 normally).
  [[nodiscard]] double link_factor(Rank a, Rank b) const;

  /// The tree level r last entered (-1 before any enter_level).
  [[nodiscard]] int level(Rank r) const {
    return level_[static_cast<std::size_t>(r)];
  }

  /// Consume transient-fault budget for one collective over `ranks`. A
  /// LinkCorrupt entry matches when both endpoints are members and the
  /// blamed rank works at the entry's level; a TransientTimeout entry
  /// matches when its rank is a member at the entry's level. The first
  /// matching entry with budget left yields up to `max_attempts` failed
  /// attempts: if its remaining count fits, that many attempts fail and
  /// the fault heals; otherwise `max_attempts` attempts fail, the budget
  /// is drained, and the verdict is marked exhausted (caller escalates
  /// the blamed rank to the fail-stop path). Deterministic: depends only
  /// on plan order and prior consumption.
  [[nodiscard]] TransientVerdict take_transient(const std::vector<Rank>& ranks,
                                                int max_attempts);

  /// Forcibly fail-stop `r` (exhausted-retry escalation): the rank is
  /// marked dead exactly as if a scheduled FailStop fired, and escalated.
  void kill(Rank r);
  /// True once kill() escalated r. Its retries already waited out the
  /// detection windows, so a barrier that meets it before its death is
  /// recovered raises RankFailure without charging another timeout.
  [[nodiscard]] bool escalated(Rank r) const {
    return escalated_[static_cast<std::size_t>(r)] != 0;
  }

  /// All currently-alive ranks, ascending.
  [[nodiscard]] std::vector<Rank> alive_ranks() const;

 private:
  FaultPlan plan_;
  std::vector<char> alive_;
  std::vector<char> recovered_;
  std::vector<char> escalated_;
  std::vector<int> level_;
  std::vector<char> fired_;     ///< parallel to plan_.fail_stops()
  std::vector<int> corrupt_remaining_;    ///< parallel to link_corrupts()
  std::vector<int> timeout_remaining_;    ///< parallel to transient_timeouts()
};

}  // namespace pdt::mpsim
