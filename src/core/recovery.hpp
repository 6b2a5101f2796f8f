// Checkpoint/recovery for the three parallel formulations (DESIGN.md §7).
//
// With a fault plan armed on the machine, every level expansion is wrapped
// by expand_level_ft(): the partition checkpoints its frontier (tree copy,
// row ownership, per-rank memory snapshot) at an explicit t_io cost, the
// injector fires any fail-stop scheduled for this level, and a raised
// RankFailure is absorbed by restoring the checkpoint onto the surviving
// ranks — the dead rank's records are re-read from stable storage and
// spread N/(P-1)-style over the survivors, the group shrinks, and the
// level is retried. Without a plan armed, expand_level_ft() is a plain
// call to expand_level(): fault-free runs stay bit-identical.
#pragma once

#include "core/frontier.hpp"
#include "mpsim/fault.hpp"

namespace pdt::core {

/// A consistent snapshot of one partition's state just before it expands a
/// level: everything recovery needs to roll the partition back.
struct LevelCheckpoint {
  int level = -1;                       ///< tree depth about to be expanded
  dtree::Tree tree;                     ///< replicated tree at the cut
  std::vector<NodeWork> frontier;       ///< rows and cells at the cut
  std::vector<mpsim::Rank> ranks;       ///< group members at the cut
  std::vector<mpsim::MemStats> mem;     ///< per-member byte accounts
  std::int64_t bytes = 0;               ///< record bytes written to store
};

/// Write a level checkpoint: copy the partition state, charge each member
/// t_io per record word it owns (staged through Scratch), and account it
/// in ctx.recovery. Emits a Checkpoint trace event when tracing.
[[nodiscard]] LevelCheckpoint take_checkpoint(ParContext& ctx,
                                              const mpsim::Group& g,
                                              const std::vector<NodeWork>& f,
                                              int level);

/// Absorb a fail-stop: charge the detection timeout if no collective did,
/// restore survivors' memory to the checkpoint snapshot, roll the tree
/// back, rebuild the frontier on the surviving ranks with the dead rank's
/// shard re-read from the checkpoint and balanced over the survivors, and
/// shrink `g` to the survivor group. If the checkpoint group has no
/// survivor, the lowest alive rank machine-wide adopts the partition; if
/// the whole machine is dead, throws std::runtime_error.
void recover_from_failure(ParContext& ctx, mpsim::Group& g,
                          std::vector<NodeWork>& frontier,
                          const LevelCheckpoint& ckpt,
                          const mpsim::RankFailure& rf);

/// Fault-tolerant expand_level: checkpoint, fire scheduled faults for this
/// level, expand, and on RankFailure recover and retry (the group `g` is
/// replaced by the survivor group). A member that died since the last
/// level is detected by the checkpoint's barrier and recovered from the
/// partition's state as it stands. Falls through to expand_level() when
/// no fault plan is armed.
[[nodiscard]] std::vector<NodeWork> expand_level_ft(
    ParContext& ctx, mpsim::Group& g, std::vector<NodeWork>& frontier,
    mpsim::Time* comm_cost_out = nullptr);

}  // namespace pdt::core
