// Shared machinery of the three parallel formulations: the distributed
// frontier representation and the synchronous level-expansion step
// (Section 3.1 steps 1-5) that all of them build on.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/options.hpp"
#include "data/partition.hpp"
#include "dtree/histogram.hpp"
#include "mpsim/group.hpp"
#include "obs/observability.hpp"

namespace pdt::core {

/// Rows [begin, end) of a node's array.
struct RowRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const { return end - begin; }
};

/// One frontier tree node within a processor partition: which rows of the
/// node each group member holds locally, as one flat array (CSR).
struct NodeWork {
  int node_id = -1;
  /// Every member's rows, member-major: member m holds
  /// rows[offsets[m], offsets[m + 1]), in the order it stores them.
  std::vector<data::RowId> rows;
  /// members() + 1 ascending offsets into `rows`.
  std::vector<std::uint32_t> offsets;
  /// Byte cells, row-major: K = layout.cell_attrs().size() bytes per row,
  /// in `rows` order, byte k = slot * C + label of cell attribute k. Every
  /// node has them: the root and a resumed frontier gather them once
  /// (ParContext::cells_of), and partitioning, regroup and the in-memory
  /// checkpoint carry them along with the rows.
  std::vector<std::uint8_t> cells;

  [[nodiscard]] int members() const {
    return static_cast<int>(offsets.size()) - 1;
  }
  [[nodiscard]] std::int64_t total_records() const {
    return static_cast<std::int64_t>(rows.size());
  }
  [[nodiscard]] std::int64_t member_records(int m) const {
    return offsets[static_cast<std::size_t>(m) + 1] -
           offsets[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] RowRange member_range(int m) const {
    return {offsets[static_cast<std::size_t>(m)],
            offsets[static_cast<std::size_t>(m) + 1]};
  }
  [[nodiscard]] std::span<const data::RowId> member_rows(int m) const {
    const RowRange r = member_range(m);
    return std::span<const data::RowId>(rows).subspan(r.begin, r.size());
  }
  /// Free the rows and cells, leaving every member empty (the node
  /// closed, was split or was moved).
  void release();
};

/// A new layout of a node's rows: member m holds pieces[m], in order.
using MemberPieces = std::vector<std::vector<RowRange>>;

/// `nw` rebuilt over pieces.size() members from ranges of its own rows;
/// each row's cells follow it.
[[nodiscard]] NodeWork regroup(const NodeWork& nw, const MemberPieces& pieces);

/// The hybrid's moving phase on one node: member m of the h-member result
/// holds member m's rows followed by member m + h's. Releases `nw`.
[[nodiscard]] NodeWork fold_halves(NodeWork& nw, int h);

/// The partitioned formulation's shuffle of one node onto `members` (group
/// member indices, ascending): member j of the result keeps its own rows
/// up to its fair share, and the surplus of every member, taken in member
/// order, fills the shares still short in member order. moved[from * p +
/// to] counts the rows that change members (p = nw.members()). Releases
/// `nw`.
[[nodiscard]] NodeWork spread_over(NodeWork& nw, std::span<const int> members,
                                   std::vector<std::int64_t>& moved);

/// One entry of a formulation's worklist: a processor partition, the
/// frontier it expands next and, for the hybrid, the communication cost
/// it accumulated since its last split (Section 4.2's split criterion).
/// The sync formulation is a one-part worklist.
struct Part {
  mpsim::Group group;
  std::vector<NodeWork> frontier;
  mpsim::Time acc_comm = 0.0;
};

/// Host-only sibling-subtraction cache (see expand_level). After a split,
/// the parent's reduced table is kept under the parent's tree id until
/// its children are histogrammed: each accumulated child is subtracted
/// from the remainder, and the last pending one copies the remainder
/// instead of scanning its rows. Counts are exact int64, so a derived
/// table equals the accumulated one bit for bit. Tables live in fixed
/// blocks that are reused and never moved, so the cache holds about its
/// peak number of live entries and allocates once per block.
class ParentTables {
 public:
  /// Keep parent `id`'s reduced table until `pending` children that
  /// received rows are histogrammed.
  void keep(int id, std::span<const std::int64_t> table, int pending);
  /// Children of `id` not yet histogrammed (0 when `id` has no entry).
  [[nodiscard]] int pending(int id) const;
  /// An accumulated child of `id`: subtract it from the remainder.
  void subtract(int id, std::span<const std::int64_t> child);
  /// The last pending child of `id`: copy the remainder into it and
  /// erase the entry.
  void derive(int id, std::span<std::int64_t> child);
  void clear();
  [[nodiscard]] std::size_t size() const { return index_.size(); }

 private:
  struct Entry {
    std::int64_t* remainder = nullptr;
    int pending = 0;
  };
  static constexpr std::size_t kBlockTables = 64;
  std::size_t entries_ = 0;  // table length, set by the first keep()
  std::unordered_map<int, Entry> index_;
  std::vector<std::unique_ptr<std::int64_t[]>> blocks_;
  std::vector<std::int64_t*> free_;
};

/// Run-wide shared state: the dataset, slot machinery, the (replicated)
/// tree under construction, and accounting knobs.
class ParContext {
 public:
  ParContext(const data::Dataset& ds, const ParOptions& opt,
             mpsim::Machine& machine);

  [[nodiscard]] const data::Dataset& dataset() const { return *ds_; }
  [[nodiscard]] const ParOptions& options() const { return *opt_; }
  [[nodiscard]] mpsim::Machine& machine() const { return *machine_; }
  [[nodiscard]] const dtree::SlotMapper& mapper() const { return mapper_; }
  [[nodiscard]] const dtree::AttrLayout& layout() const { return layout_; }
  [[nodiscard]] dtree::Tree& tree() { return tree_; }

  /// Phase profiler of the attached observability sink, or nullptr when
  /// observability is disabled (obs::PhaseScope treats nullptr as no-op).
  [[nodiscard]] obs::PhaseProfiler* profiler() const { return profiler_; }

  /// Split-decision audit of the attached sink, or nullptr when model
  /// auditing is off (the default — one branch per expansion).
  [[nodiscard]] obs::SplitAudit* split_audit() const { return split_audit_; }

  /// Words on the wire of one node's flat histogram (counts travel as
  /// 4-byte words, the unit of Eq. 2's C * A_d * M).
  [[nodiscard]] double hist_words() const {
    return static_cast<double>(layout_.total());
  }
  /// Words of one training record when it moves between processors: one
  /// word per categorical value, two per continuous value, one label.
  [[nodiscard]] double record_words() const { return record_words_; }
  /// Resident bytes of one record in a rank's local store (4 bytes per
  /// record word — the unit of the Records byte account).
  [[nodiscard]] std::int64_t record_bytes() const { return record_bytes_; }

  // Records-account bookkeeping: the distributed row store is the O(N/P)
  // term of the Section-4 memory argument. Rows are charged when they
  // enter a rank's local store (initial distribution, incoming shuffle)
  // and released when they leave it (leaf closure, outgoing shuffle).
  // Same-rank parent-to-child repartitioning is net zero.
  void mem_records_alloc(mpsim::Rank r, std::int64_t n) {
    if (n > 0) machine_->alloc_bytes(r, mpsim::MemTag::Records, n * record_bytes_);
  }
  void mem_records_free(mpsim::Rank r, std::int64_t n) {
    if (n > 0) machine_->free_bytes(r, mpsim::MemTag::Records, n * record_bytes_);
  }
  /// Book `n` rows relocating from rank `from` to rank `to`: records_moved
  /// and both Records accounts. Every record move books through here; the
  /// caller charges the wire.
  void move_records(mpsim::Rank from, mpsim::Rank to, std::int64_t n) {
    records_moved += n;
    if (from == to || n <= 0) return;
    machine_->free_bytes(from, mpsim::MemTag::Records, n * record_bytes_);
    machine_->alloc_bytes(to, mpsim::MemTag::Records, n * record_bytes_);
  }

  /// Write `n` of rank `r`'s records to stable storage: staged through a
  /// Scratch buffer, t_io per record word. Returns the time charged.
  mpsim::Time write_records(mpsim::Rank r, std::int64_t n);
  /// Read `n` records from stable storage into rank `r`'s local store:
  /// t_io per record word, then the rows enter its Records account.
  /// Returns the time charged.
  mpsim::Time read_records(mpsim::Rank r, std::int64_t n);

  /// Section-4 analytic per-rank peak prediction for this run's N, P and
  /// communication-buffer size (computed once at construction).
  [[nodiscard]] const mpsim::MemPredicted& mem_predicted() const {
    return mem_predicted_;
  }

  /// Byte cells of `rows` (NodeWork::cells), gathered one attribute at a
  /// time through the slot columns.
  [[nodiscard]] std::vector<std::uint8_t> cells_of(
      std::span<const data::RowId> rows) const;

  /// The root node with every row dealt at random over `members` members
  /// (data::partition_random, seeded by options().seed), with its cells.
  /// Books no memory.
  [[nodiscard]] NodeWork root_node(int members) const;

  /// The initial frontier: root_node over the group's members (the
  /// paper's initial N/P distribution), its rows entered in each member's
  /// Records account.
  [[nodiscard]] NodeWork initial_root(const mpsim::Group& g);

  /// Fault-tolerance accounting (checkpoints written, failures absorbed),
  /// appended to by core/recovery.cpp and copied into ParResult.
  RecoveryStats recovery;

  /// Sibling-subtraction cache. Only the coordinating thread touches it,
  /// it is never checkpointed, and recovery clears it (a failed attempt
  /// may have consumed part of an entry).
  ParentTables parent_tables;
  /// Child tables derived as parent minus siblings (copied to ParResult).
  std::int64_t derived_histograms = 0;

  /// Result accounting, appended to by the formulations.
  std::int64_t records_moved = 0;
  double histogram_words = 0.0;
  int levels = 0;
  int partition_splits = 0;
  int rejoins = 0;

 private:
  const data::Dataset* ds_;
  const ParOptions* opt_;
  mpsim::Machine* machine_;
  dtree::SlotMapper mapper_;
  dtree::AttrLayout layout_;
  dtree::Tree tree_;
  double record_words_ = 0.0;
  std::int64_t record_bytes_ = 0;
  mpsim::MemPredicted mem_predicted_;

  obs::PhaseProfiler* profiler_ = nullptr;
  obs::SplitAudit* split_audit_ = nullptr;
};

/// Host half of Section 3.1 step 2, with no Machine, ledger or observer
/// call: `hist` becomes one table per node of `nodes`, summed over the
/// members (arithmetically identical to reducing per-member local
/// histograms). Nodes stream their byte cells; attributes without cells
/// gather through the rows. Nodes whose parent has an entry in
/// ctx.parent_tables go last, grouped by parent with the largest last:
/// each is subtracted from the entry, and the last one derived from it.
void fill_tables(ParContext& ctx, std::span<NodeWork* const> nodes,
                 dtree::Hist& hist);

/// Host half of Section 3.1 step 5 for `nw`, already expanded in the tree
/// by `test` into children first, first + 1, ...: partition its rows and
/// cells (releasing `nw`), append the children that received rows to
/// `next`, and keep `table`, its reduced histogram, in ctx.parent_tables
/// for sibling subtraction unless the children sit at the depth limit.
void split_rows(ParContext& ctx, NodeWork& nw, const dtree::SplitTest& test,
                int first, std::span<const std::int64_t> table,
                std::vector<NodeWork>& next);

/// Expand every node of `frontier` by one level, synchronously within
/// group `g` (Section 3.1): local histograms per member, all-reduce in
/// comm_buffer_nodes-sized flushes, identical split selection everywhere,
/// local row partitioning. On the host, one child per split is derived
/// from ctx.parent_tables instead of re-scanned; every virtual charge,
/// all-reduce word and ledger entry is that of the full scan. Returns the
/// next frontier (children that received records). `comm_cost_out`, when
/// non-null, accrues the communication cost charged to each member this
/// level (the quantity the hybrid's split criterion accumulates).
[[nodiscard]] std::vector<NodeWork> expand_level(
    ParContext& ctx, const mpsim::Group& g, std::vector<NodeWork>& frontier,
    mpsim::Time* comm_cost_out = nullptr);

/// Total records across a frontier.
[[nodiscard]] std::int64_t frontier_records(const std::vector<NodeWork>& f);
/// Records held by member m across a frontier.
[[nodiscard]] std::int64_t frontier_member_records(
    const std::vector<NodeWork>& f, int m);

/// Apply an Eq. 4 balance plan (mpsim::Group::plan_balance) to a
/// frontier: each transfer takes rows from the tail of member `from`'s
/// lists into member `to`'s, node by node, and books them
/// (ParContext::move_records). Charges no time: the caller charges the
/// transfers.
void move_member_rows(ParContext& ctx, const mpsim::Group& g,
                      std::vector<NodeWork>& frontier,
                      const std::vector<mpsim::Transfer>& transfers);

}  // namespace pdt::core
