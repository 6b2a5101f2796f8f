// Scoped phase profiler for the simulated machine.
//
// Algorithm code opens nestable, named phases ("histogram", "all-reduce",
// "record-shuffle", ...) plus one level scope per tree level; every
// Machine charge (compute / comm / io / idle) issued while a phase is
// open is attributed to the *innermost* open phase at the *current*
// level, producing the per-rank x per-phase x per-level virtual-time
// breakdown the paper argues from qualitatively in Section 5.
//
// The profiler is a passive mpsim::ChargeObserver: attaching it can never
// change simulated time (tests enforce bit-identical max_clock with the
// profiler on and off). When no profiler is attached the cost is one
// branch per charge inside Machine. Its scope transitions (open, close,
// set_level) are also what times the host: a HostProfiler handed in
// through set_host_sink reads its clock there and nowhere else.
//
// Like every collector here, the profiler is driven by the one thread
// that drives the Machine (DESIGN.md §14), so its state is plain members.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mpsim/observer.hpp"

namespace pdt::mpsim {
class EventRecorder;
}  // namespace pdt::mpsim

namespace pdt::obs {

class HostProfiler;

/// Index into PhaseProfiler::phase_names(). 0 is always the implicit
/// "(unattributed)" phase that catches charges outside any scope.
using PhaseId = int;

/// Level value used when no LevelScope is open.
inline constexpr int kNoLevel = -1;

/// Virtual-time totals of one (phase, level, rank) cell.
struct PhaseTotals {
  mpsim::Time compute = 0.0;
  mpsim::Time comm = 0.0;
  mpsim::Time io = 0.0;
  mpsim::Time idle = 0.0;
  double words_sent = 0.0;
  double words_received = 0.0;
  std::uint64_t charges = 0;

  [[nodiscard]] mpsim::Time busy() const { return compute + comm + io; }
  [[nodiscard]] mpsim::Time total() const { return busy() + idle; }

  PhaseTotals& operator+=(const PhaseTotals& o) {
    compute += o.compute;
    comm += o.comm;
    io += o.io;
    idle += o.idle;
    words_sent += o.words_sent;
    words_received += o.words_received;
    charges += o.charges;
    return *this;
  }
};

/// One contiguous span of a rank's virtual timeline, for trace export.
/// Adjacent charges of the same (phase, level, kind) on the same rank are
/// coalesced, so the slice list stays far smaller than the charge count.
struct Slice {
  mpsim::Rank rank = 0;
  mpsim::Time start = 0.0;
  mpsim::Time dur = 0.0;
  PhaseId phase = 0;
  int level = kNoLevel;
  mpsim::ChargeKind kind = mpsim::ChargeKind::Compute;
};

struct ProfilerConfig {
  /// Collect per-charge timeline slices (needed for Perfetto export).
  /// Aggregated per-phase totals are always collected.
  bool timeline = false;
  /// Stop collecting slices beyond this many (aggregates keep going);
  /// truncated() reports whether the cap was hit.
  std::size_t max_slices = 2u << 20;
};

class PhaseProfiler final : public mpsim::ChargeObserver {
 public:
  explicit PhaseProfiler(ProfilerConfig cfg = {});

  /// Open the named phase (nested inside the currently open one). Phase
  /// names are interned: reusing a name accumulates into the same row.
  /// Prefer the RAII PhaseScope below.
  void open(std::string_view name);
  void close();
  /// Set the tree level attributed to subsequent charges; returns the
  /// previous level so LevelScope can restore it.
  int set_level(int level);

  /// Forward every open/close to an event recorder, so the execution log
  /// carries the same phase attribution as the profiler. Not owned.
  void set_event_sink(mpsim::EventRecorder* sink) { sink_ = sink; }
  /// Notify a host profiler of every open/close/set_level, before the
  /// stack or level changes, so it can time each scope. Not owned.
  void set_host_sink(HostProfiler* host) { host_ = host; }

  /// Current level (kNoLevel if none was ever set).
  [[nodiscard]] int current_level() const { return state_.level; }
  /// Innermost open phase (0 = unattributed).
  [[nodiscard]] PhaseId current_phase() const {
    return state_.stack.empty() ? 0 : state_.stack.back();
  }

  // mpsim::ChargeObserver
  void on_charge(mpsim::Rank r, mpsim::ChargeKind kind, mpsim::Time start,
                 mpsim::Time dt, double words_sent,
                 double words_received) override;

  /// Interned phase names; index == PhaseId. phase_names()[0] is
  /// "(unattributed)".
  [[nodiscard]] const std::vector<std::string>& phase_names() const {
    return names_;
  }
  [[nodiscard]] std::string_view phase_name(PhaseId p) const {
    return names_[static_cast<std::size_t>(p)];
  }

  /// Number of ranks seen so far (== 1 + max rank charged).
  [[nodiscard]] int num_ranks() const { return state_.num_ranks; }
  /// Highest level seen (kNoLevel if none).
  [[nodiscard]] int max_level() const { return state_.max_level; }

  /// A (phase, level, rank) row of the breakdown.
  struct Row {
    PhaseId phase = 0;
    int level = kNoLevel;
    mpsim::Rank rank = 0;
    PhaseTotals totals;
  };
  /// All nonzero rows, ordered by (phase, level, rank) — deterministic.
  [[nodiscard]] std::vector<Row> rows() const;

  /// Totals of one phase at one level summed over ranks; pass
  /// level == kNoLevel & any_level == true to sum over levels too.
  [[nodiscard]] PhaseTotals phase_totals(PhaseId p, int level,
                                         bool any_level = false) const;
  /// Per-rank totals across all phases at one level (vector indexed by
  /// rank). With any_level == true, sums over levels.
  [[nodiscard]] std::vector<PhaseTotals> level_rank_totals(
      int level, bool any_level = false) const;

  /// max(busy) / mean(busy) over the ranks active at `level`
  /// (1.0 = perfectly balanced; 0.0 when the level did no work).
  [[nodiscard]] double load_imbalance(int level) const;

  [[nodiscard]] const std::vector<Slice>& slices() const { return slices_; }
  [[nodiscard]] bool truncated() const { return truncated_; }
  [[nodiscard]] const ProfilerConfig& config() const { return cfg_; }

 private:
  [[nodiscard]] PhaseId intern(std::string_view name);

  // Accumulation cells keyed by (phase, level, rank), stored sparsely:
  // cells[key] with key packed below, in one open-addressed table. A
  // one-entry cache covers the "same cell charged repeatedly" pattern on
  // the hot path.
  struct Cell {
    std::uint64_t key = ~0ull;
    PhaseTotals totals;
  };
  struct State {
    std::vector<PhaseId> stack;
    int level = kNoLevel;
    int num_ranks = 0;
    int max_level = kNoLevel;
    std::vector<Cell> cells = std::vector<Cell>(64);
    std::size_t cells_used = 0;
    std::size_t last_hit = static_cast<std::size_t>(-1);
  };
  static std::uint64_t pack(PhaseId p, int level, mpsim::Rank r) {
    // level is >= -1; bias by 1 so it packs as unsigned.
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p)) << 40) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(level + 1))
            << 20) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(r));
  }
  PhaseTotals& cell(PhaseId p, int level, mpsim::Rank r);
  void grow_cells();
  /// Visit every occupied cell.
  template <typename Fn>
  void for_each_cell(Fn&& fn) const {
    for (const Cell& c : state_.cells) {
      if (c.key != ~0ull) fn(c);
    }
  }

  ProfilerConfig cfg_;
  mpsim::EventRecorder* sink_ = nullptr;
  HostProfiler* host_ = nullptr;
  std::vector<std::string> names_;
  State state_;

  std::vector<Slice> slices_;
  /// Per-rank index of the rank's last slice (for coalescing), or -1.
  std::vector<std::ptrdiff_t> last_slice_;
  bool truncated_ = false;
};

/// RAII phase scope. Null profiler => no-op, so call sites stay
/// branch-cheap when observability is disabled.
class PhaseScope {
 public:
  PhaseScope(PhaseProfiler* p, std::string_view name) : p_(p) {
    if (p_ != nullptr) p_->open(name);
  }
  ~PhaseScope() {
    if (p_ != nullptr) p_->close();
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  PhaseProfiler* p_;
};

/// RAII tree-level scope (restores the previous level on exit, so nested
/// expansions of different partitions attribute correctly).
class LevelScope {
 public:
  LevelScope(PhaseProfiler* p, int level) : p_(p) {
    if (p_ != nullptr) prev_ = p_->set_level(level);
  }
  ~LevelScope() {
    if (p_ != nullptr) p_->set_level(prev_);
  }
  LevelScope(const LevelScope&) = delete;
  LevelScope& operator=(const LevelScope&) = delete;

 private:
  PhaseProfiler* p_;
  int prev_ = kNoLevel;
};

}  // namespace pdt::obs
