// A processor partition (Section 3.3 calls these "partitions") and its
// collective operations.
//
// A Group is its ascending rank list. Splitting a partition halves the
// list; a recovery or an idle-partition rejoin may leave any rank set.
// Collective costs use ceil(log2 |group|) hypercube dimensions whatever
// the ranks (the paper's virtual-hypercube embedding argument, Section
// 3.3), and the members pair up by index, not by rank address.
//
// Collectives have barrier semantics: every member's clock first advances
// to the group maximum (waiting ranks accrue idle time — this is where the
// paper's load-imbalance penalty physically shows up), then the collective
// cost is charged to every member. All five share one protocol (the
// private collective()): name the call in the event log, admit and
// synchronize the members, charge them, synchronize again when members
// paid unequal costs, then write the one CommLedger entry with the retry
// cost its barriers burned, and the one trace event. A call that fails
// (RankFailure) still writes its entry when it burned retries, then
// rethrows. Each collective supplies only its checks, its cost formula,
// its per-member charges and its traffic pattern.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpsim/machine.hpp"
#include "mpsim/topology.hpp"

namespace pdt::mpsim {

enum class CollectiveKind;
struct CollectiveEntry;
class CommLedger;

/// A planned item transfer between two group members (indices into the
/// group's rank list, not raw ranks).
struct Transfer {
  int from = 0;
  int to = 0;
  std::int64_t count = 0;
};

class Group {
 public:
  /// Group over a rank list, kept sorted ascending.
  Group(Machine& m, std::vector<Rank> ranks);
  /// Convenience: the whole machine as one group.
  static Group whole(Machine& m);

  [[nodiscard]] Machine& machine() const { return *machine_; }
  [[nodiscard]] int size() const { return static_cast<int>(ranks_.size()); }
  [[nodiscard]] Rank rank(int member) const { return ranks_[static_cast<std::size_t>(member)]; }
  [[nodiscard]] const std::vector<Rank>& ranks() const { return ranks_; }
  [[nodiscard]] int dimension() const { return ceil_log2(size()); }

  /// Max clock over members.
  [[nodiscard]] Time horizon() const;
  /// Advance all members to the group max clock, accounting idle time.
  void barrier() const;

  /// All-reduce (element-wise sum) over per-member buffers; bufs has one
  /// pointer per member, all pointing at equal-length vectors. On return
  /// every buffer holds the element-wise sum. Charges the Eq. 2 cost:
  /// barrier, then ceil(log2 p) * (t_s + t_w * words) to each member.
  /// `words` defaults to length * sizeof(T) / 4; pass it explicitly when
  /// the wire format is narrower than the in-memory type (e.g. histogram
  /// counts kept in int64 locally but 4-byte words on the wire).
  /// Defined for T = std::int64_t and double.
  template <typename T>
  void all_reduce_sum(const std::vector<T*>& bufs, std::size_t len,
                      double words = -1.0) const;

  /// Cost-only all-reduce of `words` 4-byte words (for reductions whose
  /// result the caller computes directly in the shared address space).
  void charge_all_reduce(double words) const;
  /// Cost-only one-to-all broadcast of `words` words.
  void charge_broadcast(double words) const;

  /// The "moving" phase of a partition split (Eq. 3): member i of the
  /// lower half exchanges with member i of the upper half (its partner
  /// across the split). words_out[i] is the number of words member i
  /// sends to its partner; pair cost = t_s + t_w * max(out_i,
  /// out_partner). Barrier first. Requires an even-sized group.
  void pairwise_exchange(const std::vector<double>& words_out) const;

  /// Plan an intra-group load balance: given per-member item counts,
  /// produce transfers that leave every member with floor/ceil of the
  /// mean (counts differing by at most 1). Pure function of `counts`.
  [[nodiscard]] static std::vector<Transfer> plan_balance(
      const std::vector<std::int64_t>& counts);

  /// Charge the communication cost of executing `transfers`, each item
  /// costing `words_per_item` words (Eq. 4: each member pays
  /// t_w * words moved in or out, plus t_s per distinct transfer it
  /// participates in). A member's words are booked as sent or received
  /// by the direction they travel. Barrier first and after.
  void charge_transfers(const std::vector<Transfer>& transfers,
                        double words_per_item) const;

  /// All-to-all personalized exchange: words_out[i][j] words from member i
  /// to member j. Cost per member: t_s * ceil(log2 p) + t_w * max(total
  /// sent, total received) [KGGK94, optimal hypercube algorithm]. Barrier
  /// semantics.
  void all_to_all_personalized(
      const std::vector<std::vector<double>>& words_out) const;

  /// Split the rank list into its lower and upper halves (the two half
  /// subcubes of an aligned subcube).
  [[nodiscard]] std::pair<Group, Group> halves() const;

 private:
  /// The protocol every collective shares (see the file comment).
  /// `words` is the payload the event log is told about and the entry's
  /// default word count. `charge(e, ledger)` bills the members, fills
  /// `e`'s cost, payload and message fields, and adds the traffic to
  /// `ledger` when one is attached. Admission ignores a group of one,
  /// so transient plans never fire for it.
  template <typename Charge>
  void collective(CollectiveKind kind, double words, Charge&& charge) const;
  /// All-reduce and broadcast: every member pays the same formula.
  void charge_uniform(CollectiveKind kind, double words) const;
  /// "group [lo..hi] of p" — rank context for precondition errors.
  [[nodiscard]] std::string describe() const;
  /// Throw std::invalid_argument when `words` is not a finite
  /// non-negative word count (uniform precondition check, mirroring
  /// all_to_all_personalized's matrix validation).
  void check_words(double words, const char* where) const;

  Machine* machine_;
  std::vector<Rank> ranks_;
};

}  // namespace pdt::mpsim
