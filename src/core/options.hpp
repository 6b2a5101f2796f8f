// Options and results shared by the three parallel formulations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dtree/split.hpp"
#include "dtree/tree.hpp"
#include "mpsim/machine.hpp"
#include "mpsim/trace.hpp"

namespace pdt::obs {
class Observability;
}

namespace pdt::mpsim {
class FaultPlan;
}

namespace pdt::core {

struct ParOptions {
  int num_procs = 4;
  mpsim::CostModel cost = mpsim::CostModel::sp2();
  dtree::GrowOptions grow;
  /// Histogram communication-buffer capacity in tree nodes: processors
  /// synchronize and flush after this many frontier nodes' histograms
  /// ("after every 100 nodes for our experiments", Section 5).
  int comm_buffer_nodes = 100;
  /// Hybrid split trigger: split when the accumulated communication cost
  /// reaches `split_ratio` x (moving cost + load-balancing cost). The
  /// paper proposes 1.0 as optimal; Figure 7 sweeps this knob.
  double split_ratio = 1.0;
  /// Hybrid: let idle processor partitions rejoin busy ones.
  bool rejoin_idle = true;
  /// Hybrid: perform the intra-subcube load-balancing phase after a split.
  bool load_balance = true;
  /// Section 3.4's first strategy for continuous attributes: a parallel
  /// sorting step at every node gives exact thresholds (the tree matches
  /// dtree::grow_dfs_exact), at the price of exchanging the records'
  /// values at every level — "of similar nature as the exchange of class
  /// distribution information, except that it is of much higher volume".
  /// When false, continuous attributes use the micro-histogram slots
  /// (grow.cont_split selects threshold-scan / KMeans / quantile).
  bool exact_continuous = false;
  /// Seed of the initial random record-to-processor distribution and of
  /// the randomized node allocation during hybrid splits.
  std::uint64_t seed = 7;
  /// Record run events in the machine trace (for the tour example).
  bool trace = false;
  /// Observability sink (phase profiler, ledgers, tracer), borrowed from
  /// the caller; nullptr disables all instrumentation (one branch per
  /// charge). Attaching it never changes simulated time — tests enforce a
  /// bit-identical max_clock either way. Use one Observability per build_*
  /// call: a reused sink keeps accumulating across runs.
  obs::Observability* obs = nullptr;
  /// Fault plan to arm on the machine (borrowed from the caller; nullptr
  /// — the default — runs fault-free with zero checkpoint cost and a
  /// bit-identical clock to builds before fault support existed). With a
  /// plan armed, every level expansion checkpoints its frontier first and
  /// failures recover via core/recovery.hpp.
  const mpsim::FaultPlan* fault = nullptr;
  /// Durable-checkpoint directory (pdt-ckpt-v1, see core/ckpt.hpp): every
  /// worklist iteration writes an on-disk epoch via obs::AtomicFile so a
  /// killed process can restart mid-tree. Empty — the default — disables
  /// durable checkpoints entirely (fault-free clocks stay bit-identical).
  /// The directory must already exist.
  std::string ckpt_dir;
  /// Newest epochs retained in ckpt_dir (older files are pruned).
  int ckpt_keep = 3;
  /// Resume from the newest valid epoch in ckpt_dir before building:
  /// corrupt/torn/truncated epochs are skipped back, never trusted. When
  /// no valid epoch exists the build starts from scratch.
  bool resume = false;
  /// Resume from the newest valid epoch <= this bound (-1: latest). Lets
  /// tests resume a completed run from an intermediate cut.
  int resume_epoch = -1;
  /// Crash-restart test hook: terminate the process (std::_Exit(137), a
  /// SIGKILL stand-in that skips every exit handler) immediately after
  /// the checkpoint of this epoch commits. -1 disables.
  int ckpt_crash_epoch = -1;
};

/// Fault-tolerance accounting for one build: checkpoint volume/cost and
/// the detection + recovery overhead of every absorbed failure. All
/// virtual-time figures, deterministic for a fixed plan.
struct RecoveryStats {
  int checkpoints = 0;           ///< level checkpoints written
  int failures = 0;              ///< fail-stops detected and recovered
  std::int64_t checkpoint_bytes = 0;  ///< record bytes written to stable store
  mpsim::Time checkpoint_io_us = 0.0; ///< summed per-member checkpoint I/O
  mpsim::Time detect_us = 0.0;        ///< timeout time charged to survivors
  mpsim::Time recovery_us = 0.0;      ///< restore + redistribute wall time
  std::int64_t records_redistributed = 0;  ///< dead ranks' shards re-spread

  // Durable (on-disk pdt-ckpt-v1) checkpointing and crash-restart resume.
  int durable_checkpoints = 0;        ///< epochs committed to ckpt_dir
  std::int64_t durable_bytes = 0;     ///< bytes of committed epoch files
  mpsim::Time durable_io_us = 0.0;    ///< virtual I/O charged for the writes
  bool resumed = false;               ///< this run restarted from disk
  int resume_epoch = -1;              ///< epoch the run resumed from
  int resume_skipped = 0;             ///< invalid epochs rejected on resume
  mpsim::Time resume_io_us = 0.0;     ///< virtual I/O charged for the restore
  std::int64_t resume_records = 0;    ///< records re-read at resume

  // Transient-fault retry accounting (mirrors the machine's counters).
  std::uint64_t retries = 0;          ///< failed collective attempts retried
  mpsim::Time retry_us = 0.0;         ///< backoff windows charged, summed
  int escalations = 0;                ///< retry budgets exhausted -> fail-stop

  [[nodiscard]] bool any() const {
    return checkpoints > 0 || failures > 0 || durable_checkpoints > 0 ||
           resumed || retries > 0;
  }
};

struct ParResult {
  dtree::Tree tree;
  /// Completion time: max virtual clock over processors (microseconds).
  mpsim::Time parallel_time = 0.0;
  mpsim::RankStats totals;
  std::vector<mpsim::RankStats> per_rank;
  int levels = 0;
  int partition_splits = 0;
  int rejoins = 0;
  /// Records that crossed processors (moving + load-balance + shuffles).
  std::int64_t records_moved = 0;
  /// Total histogram words all-reduced.
  double histogram_words = 0.0;
  /// Host-side child tables derived as parent minus siblings instead of
  /// accumulated from rows (no effect on any virtual clock).
  std::int64_t derived_histograms = 0;
  /// Parent tables still held for sibling subtraction when the build
  /// ended: 0 unless some split's children were never histogrammed.
  std::int64_t parent_tables_left = 0;
  /// Per-rank virtual-memory accounts at run end (live/peak bytes per
  /// MemTag). Always populated — byte accounting runs with or without an
  /// observability sink, since it never touches the clocks.
  std::vector<mpsim::MemStats> mem;
  /// Section-4 analytic per-rank peak prediction for this run's N, P and
  /// buffer size (zeroed when the formulation has no closed-form bound).
  mpsim::MemPredicted mem_predicted;
  /// Event log of the run (populated when ParOptions::trace is set).
  std::vector<mpsim::TraceEvent> trace;
  /// Fault-tolerance accounting (all zeros when no plan was armed).
  RecoveryStats recovery;
};

}  // namespace pdt::core
