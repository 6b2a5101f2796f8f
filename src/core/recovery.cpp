#include "core/recovery.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace pdt::core {

namespace {

/// Survivor ranks of a checkpoint group, ascending. Falls back to the
/// lowest alive rank machine-wide when the whole group died (a size-1
/// partition's only member fail-stopped: some other processor must adopt
/// its subtrees, exactly as records would be re-read from stable storage
/// by any node).
std::vector<mpsim::Rank> pick_survivors(const mpsim::FaultInjector& inj,
                                        const std::vector<mpsim::Rank>& ranks,
                                        const mpsim::RankFailure& rf) {
  std::vector<mpsim::Rank> survivors;
  for (const mpsim::Rank r : ranks) {
    if (inj.alive(r)) survivors.push_back(r);
  }
  if (survivors.empty()) {
    const std::vector<mpsim::Rank> alive = inj.alive_ranks();
    if (alive.empty()) {
      throw std::runtime_error(
          "recover_from_failure: rank " + std::to_string(rf.rank) +
          " fail-stopped at level " + std::to_string(rf.level) +
          " and no processor is left alive to adopt its work");
    }
    survivors.push_back(alive.front());
  }
  return survivors;
}

/// The partition's state as it stands: tree, frontier, ranks and member
/// byte accounts.
LevelCheckpoint cut(ParContext& ctx, const mpsim::Group& g,
                    std::vector<NodeWork> f, int level) {
  LevelCheckpoint ck;
  ck.level = level;
  ck.tree = ctx.tree();
  ck.frontier = std::move(f);
  ck.ranks = g.ranks();
  ck.mem.reserve(static_cast<std::size_t>(g.size()));
  for (const mpsim::Rank r : g.ranks()) ck.mem.push_back(ctx.machine().mem(r));
  return ck;
}

}  // namespace

LevelCheckpoint take_checkpoint(ParContext& ctx, const mpsim::Group& g,
                                const std::vector<NodeWork>& f, int level) {
  const obs::PhaseScope phase(ctx.profiler(), "checkpoint");
  mpsim::Machine& machine = ctx.machine();

  // Synchronize first so the snapshot is a consistent cut of the
  // partition (no member is mid-level when its state is captured).
  machine.barrier_over(g.ranks(), "checkpoint");

  mpsim::Time io_total = 0.0;
  std::int64_t records = 0;
  for (int m = 0; m < g.size(); ++m) {
    const std::int64_t n = frontier_member_records(f, m);
    records += n;
    io_total += ctx.write_records(g.rank(m), n);
  }
  // Snapshot the byte accounts after the staging round-trips, so restoring
  // to the snapshot never resurrects checkpoint scratch.
  LevelCheckpoint ck = cut(ctx, g, f, level);
  ck.bytes = records * ctx.record_bytes();

  ctx.recovery.checkpoints += 1;
  ctx.recovery.checkpoint_bytes += ck.bytes;
  ctx.recovery.checkpoint_io_us += io_total;
  if (machine.trace().enabled()) {
    machine.trace().record(
        {.time = g.horizon(),
         .kind = mpsim::EventKind::Checkpoint,
         .rank = g.rank(0),
         .group_base = g.rank(0),
         .group_size = g.size(),
         .words = static_cast<double>(ck.bytes) / 4.0,
         .detail = "level " + std::to_string(level) + " checkpoint: " +
                   std::to_string(records) + " records, " +
                   std::to_string(ck.bytes) + " bytes"});
  }
  return ck;
}

void recover_from_failure(ParContext& ctx, mpsim::Group& g,
                          std::vector<NodeWork>& frontier,
                          const LevelCheckpoint& ckpt,
                          const mpsim::RankFailure& rf) {
  const obs::PhaseScope phase(ctx.profiler(), "recovery");
  mpsim::Machine& machine = ctx.machine();
  const mpsim::CostModel& cm = machine.cost();
  mpsim::FaultInjector* inj = machine.fault();
  assert(inj != nullptr);

  const std::vector<mpsim::Rank> survivors =
      pick_survivors(*inj, ckpt.ranks, rf);
  const int q = static_cast<int>(survivors.size());

  // Detection: when the failure surfaced as a charge on the dead rank
  // itself (rather than at a collective, which already made the survivors
  // wait out the timeout), the heartbeat window is charged here.
  if (!rf.detected) {
    const mpsim::Time deadline = machine.charge_timeout(survivors, rf.rank);
    if (machine.trace().enabled()) {
      machine.trace().record(
          {.time = deadline,
           .kind = mpsim::EventKind::RankFail,
           .rank = rf.rank,
           .group_base = ckpt.ranks.front(),
           .group_size = static_cast<int>(ckpt.ranks.size()),
           .words = 0.0,
           .detail = "rank " + std::to_string(rf.rank) +
                     " fail-stop detected at level " +
                     std::to_string(rf.level)});
    }
  }
  ctx.recovery.detect_us += cm.t_timeout;
  inj->mark_recovered(rf.rank);

  mpsim::Time rec_start = 0.0;
  for (const mpsim::Rank r : survivors) {
    rec_start = std::max(rec_start, machine.clock(r));
  }

  // Roll every old member's byte account back to the snapshot (the failed
  // attempt may have died mid-collective, leaving staging live and record
  // frees half-applied). The dead rank's memory is simply gone.
  for (std::size_t m = 0; m < ckpt.ranks.size(); ++m) {
    const mpsim::Rank r = ckpt.ranks[m];
    const bool dead = !inj->alive(r);
    for (int t = 0; t < mpsim::kNumMemTags; ++t) {
      const auto tag = static_cast<mpsim::MemTag>(t);
      const std::int64_t target = dead ? 0 : ckpt.mem[m].live_for(tag);
      const std::int64_t cur = machine.mem(r).live_for(tag);
      if (cur > target) {
        machine.free_bytes(r, tag, cur - target);
      } else if (cur < target) {
        machine.alloc_bytes(r, tag, target - cur);
      }
    }
  }

  // Roll the replicated tree back to the cut. Nothing else ran between the
  // checkpoint and the failure (the simulation advances one partition at a
  // time), so a whole-tree copy cannot lose another partition's expansions.
  ctx.tree() = ckpt.tree;
  // The failed attempt may already have subtracted from or consumed
  // sibling-subtraction entries; dropping them all is always safe, since
  // a node without an entry is accumulated from its rows.
  ctx.parent_tables.clear();

  // Rebuild the frontier indexed to the survivor group: survivors keep
  // their own checkpointed shards, and each dead member's rows are cut
  // into contiguous near-equal chunks over the survivors (the N/(P-1)
  // redistribution), who re-read them from the checkpoint at t_io cost.
  std::vector<std::int64_t> received(static_cast<std::size_t>(q), 0);
  std::int64_t redistributed = 0;
  frontier.clear();
  frontier.reserve(ckpt.frontier.size());
  for (const NodeWork& nw : ckpt.frontier) {
    MemberPieces pieces(static_cast<std::size_t>(q));
    std::vector<RowRange> dead;
    for (std::size_t m = 0; m < ckpt.ranks.size(); ++m) {
      const RowRange seg = nw.member_range(static_cast<int>(m));
      if (seg.size() == 0) continue;
      const auto it = std::find(survivors.begin(), survivors.end(),
                                ckpt.ranks[m]);
      if (it != survivors.end()) {
        pieces[static_cast<std::size_t>(it - survivors.begin())].push_back(seg);
      } else {
        dead.push_back(seg);
      }
    }
    std::int64_t dn = 0;
    for (const RowRange& r : dead) dn += static_cast<std::int64_t>(r.size());
    redistributed += dn;
    std::size_t d = 0;
    for (int s = 0; s < q; ++s) {
      const std::int64_t take = dn / q + (s < dn % q ? 1 : 0);
      received[static_cast<std::size_t>(s)] += take;
      for (auto left = static_cast<std::size_t>(take); left > 0;) {
        RowRange& from = dead[d];
        const std::size_t n = std::min(left, from.size());
        pieces[static_cast<std::size_t>(s)].push_back(
            {from.begin, from.begin + n});
        from.begin += n;
        left -= n;
        if (from.size() == 0) ++d;
      }
    }
    frontier.push_back(regroup(nw, pieces));
  }
  for (int s = 0; s < q; ++s) {
    const std::int64_t n = received[static_cast<std::size_t>(s)];
    if (n > 0) ctx.read_records(survivors[static_cast<std::size_t>(s)], n);
  }

  // Shrink to the survivor group, then even out per-member totals (the
  // contiguous chunks above balance the dead shard but not the survivors'
  // own uneven loads) with the usual Eq. 4 machinery.
  g = mpsim::Group(machine, survivors);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(q), 0);
  for (int s = 0; s < q; ++s) {
    counts[static_cast<std::size_t>(s)] = frontier_member_records(frontier, s);
  }
  const std::vector<mpsim::Transfer> transfers =
      mpsim::Group::plan_balance(counts);
  move_member_rows(ctx, g, frontier, transfers);
  g.charge_transfers(transfers, ctx.record_words());

  const mpsim::Time rec_end = g.horizon();
  ctx.recovery.failures += 1;
  ctx.recovery.recovery_us += rec_end - rec_start;
  ctx.recovery.records_redistributed += redistributed;
  if (machine.trace().enabled()) {
    machine.trace().record(
        {.time = rec_end,
         .kind = mpsim::EventKind::Recovery,
         .rank = survivors.front(),
         .group_base = survivors.front(),
         .group_size = q,
         .words = static_cast<double>(redistributed) * ctx.record_words(),
         .detail = "recovered from rank " + std::to_string(rf.rank) +
                   " at level " + std::to_string(rf.level) + ": " +
                   std::to_string(redistributed) + " records onto " +
                   std::to_string(q) + " survivors"});
  }
}

std::vector<NodeWork> expand_level_ft(ParContext& ctx, mpsim::Group& g,
                                      std::vector<NodeWork>& frontier,
                                      mpsim::Time* comm_cost_out) {
  mpsim::FaultInjector* inj = ctx.machine().fault();
  if (inj == nullptr || frontier.empty()) {
    return expand_level(ctx, g, frontier, comm_cost_out);
  }
  const int level = ctx.tree().node(frontier.front().node_id).depth;
  for (;;) {
    LevelCheckpoint ckpt;
    try {
      ckpt = take_checkpoint(ctx, g, frontier, level);
    } catch (const mpsim::RankFailure& rf) {
      // A member died between levels (a retry budget ran out in a
      // collective no level wraps, such as the hybrid's rejoin) and the
      // checkpoint barrier raised it; the retries already waited out its
      // detection. Nothing has run since the cut.
      recover_from_failure(ctx, g, frontier,
                           cut(ctx, g, std::move(frontier), level), rf);
      continue;
    }
    inj->enter_level(level, g.ranks());
    try {
      return expand_level(ctx, g, frontier, comm_cost_out);
    } catch (const mpsim::RankFailure& rf) {
      recover_from_failure(ctx, g, frontier, ckpt, rf);
    }
  }
}

}  // namespace pdt::core
