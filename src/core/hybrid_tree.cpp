#include "core/hybrid_tree.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <optional>

#include "core/ckpt.hpp"
#include "core/recovery.hpp"
#include "core/sync_tree.hpp"
#include "data/rng.hpp"

namespace pdt::core {

namespace {

/// Allocate frontier nodes to the two halves with roughly equal record
/// totals. Node order is randomized first (the paper credits the largely
/// randomized node allocation for the hybrid's good load balance), then a
/// greedy lighter-side assignment balances the records.
std::vector<int> allocate_nodes(const std::vector<NodeWork>& frontier,
                                data::Rng& rng) {
  std::vector<std::size_t> order(frontier.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  std::vector<int> side(frontier.size(), 0);
  std::int64_t load[2] = {0, 0};
  for (const std::size_t j : order) {
    const int s = load[0] <= load[1] ? 0 : 1;
    side[j] = s;
    load[s] += frontier[j].total_records();
  }
  return side;
}

/// Even out per-member record counts inside one half after the moving
/// phase (the Eq. 4 load-balancing step). Rows move between members
/// without changing which tree node they belong to.
void balance_half(ParContext& ctx, const mpsim::Group& g,
                  std::vector<NodeWork>& frontier) {
  const obs::PhaseScope phase(ctx.profiler(), "load-balance");
  const int p = g.size();
  if (p <= 1) return;
  std::vector<std::int64_t> counts(static_cast<std::size_t>(p), 0);
  for (int m = 0; m < p; ++m) {
    counts[static_cast<std::size_t>(m)] = frontier_member_records(frontier, m);
  }
  const std::vector<mpsim::Transfer> transfers =
      mpsim::Group::plan_balance(counts);
  if (transfers.empty()) return;
  move_member_rows(ctx, g, frontier, transfers);
  g.charge_transfers(transfers, ctx.record_words());
}

/// Split a partition in two: allocate nodes, run the moving phase across
/// partner processors of the two half subcubes, then balance each half.
std::pair<Part, Part> split_partition(ParContext& ctx, Part part,
                                      data::Rng& rng) {
  const int p = part.group.size();
  const int h = p / 2;
  const std::vector<int> side = allocate_nodes(part.frontier, rng);
  auto [ga, gb] = part.group.halves();

  // Moving phase (Eq. 3): member m sends every row it holds of nodes
  // assigned to the other side to its partner m +/- h.
  std::vector<double> words_out(static_cast<std::size_t>(p), 0.0);
  std::vector<NodeWork> fa, fb;
  {
    const obs::PhaseScope move_phase(ctx.profiler(), "record-shuffle");
    for (std::size_t j = 0; j < part.frontier.size(); ++j) {
      NodeWork& nw = part.frontier[j];
      const bool to_a = side[j] == 0;
      for (int m = 0; m < p; ++m) {
        const std::int64_t rows = nw.member_records(m);
        if (rows == 0 || to_a == (m < h)) continue;
        words_out[static_cast<std::size_t>(m)] +=
            static_cast<double>(rows) * ctx.record_words();
        // The row crosses to its partner across the split dimension.
        ctx.move_records(part.group.rank(m),
                         part.group.rank(to_a ? m - h : m + h), rows);
      }
      (to_a ? fa : fb).push_back(fold_halves(nw, h));
    }
    part.group.pairwise_exchange(words_out);
  }

  if (ctx.options().load_balance) {
    balance_half(ctx, ga, fa);
    balance_half(ctx, gb, fb);
  }
  ++ctx.partition_splits;
  if (ctx.machine().trace().enabled()) {
    ctx.machine().trace().record(
        {.time = ga.horizon(),
         .kind = mpsim::EventKind::PartitionSplit,
         .rank = part.group.rank(0),
         .group_base = part.group.rank(0),
         .group_size = p,
         .words = 0.0,
         .detail = "partition halved: " + std::to_string(fa.size()) + " + " +
                   std::to_string(fb.size()) + " frontier nodes"});
  }
  return {Part{std::move(ga), std::move(fa)},
          Part{std::move(gb), std::move(fb)}};
}

/// A retry budget ran out in a rejoin's shipment and killed `dead`. A dead
/// busy member is absorbed at its partition's next checkpoint
/// (expand_level_ft). A dead member of the idle group idle[match] held no
/// rows: it leaves the group, which is erased once empty. Its detection
/// books one t_timeout, as recover_from_failure does.
void drop_dead_idle_rank(ParContext& ctx, std::vector<mpsim::Group>& idle,
                         std::size_t match, mpsim::Rank dead) {
  std::vector<mpsim::Rank> rest = idle[match].ranks();
  if (std::erase(rest, dead) == 0) return;
  ctx.machine().fault()->mark_recovered(dead);
  ctx.recovery.failures += 1;
  ctx.recovery.detect_us += ctx.machine().cost().t_timeout;
  if (rest.empty()) {
    idle.erase(idle.begin() + static_cast<std::ptrdiff_t>(match));
  } else {
    idle[match] = mpsim::Group(ctx.machine(), std::move(rest));
  }
}

/// The paper's rejoin (Sections 3.3 / 4.2): an idle partition of the same
/// size is included "during the next round of splitting" of a busy
/// partition. Instead of halving itself, the busy partition allocates half
/// of its frontier (by records) to the idle group: busy processor i ships
/// the other side's rows to idle processor i in one transfers collective
/// over both groups, then each side balances internally. Recruits
/// idle[match] and returns its new partition. The shipment is charged
/// before any row moves: if a retry budget runs out in it, the rejoin did
/// not happen, `busy` is as it was and the result is empty.
std::optional<Part> rejoin_split(ParContext& ctx, Part& busy,
                                 std::vector<mpsim::Group>& idle,
                                 std::size_t match, data::Rng& rng) {
  const mpsim::Group& helper_group = idle[match];
  const int p = busy.group.size();
  assert(helper_group.size() == p);
  const std::vector<int> side = allocate_nodes(busy.frontier, rng);
  std::vector<mpsim::Rank> ranks = busy.group.ranks();
  ranks.insert(ranks.end(), helper_group.ranks().begin(),
               helper_group.ranks().end());
  const mpsim::Group both(ctx.machine(), std::move(ranks));
  const auto member = [&both](mpsim::Rank r) {
    return static_cast<int>(std::ranges::lower_bound(both.ranks(), r) -
                            both.ranks().begin());
  };
  std::vector<mpsim::Transfer> plan;
  for (int i = 0; i < p; ++i) {
    std::int64_t n = 0;
    for (std::size_t j = 0; j < side.size(); ++j) {
      if (side[j] != 0) n += busy.frontier[j].member_records(i);
    }
    if (n > 0) {
      plan.push_back(
          {member(busy.group.rank(i)), member(helper_group.rank(i)), n});
    }
  }
  {
    const obs::PhaseScope phase(ctx.profiler(), "record-shuffle");
    try {
      both.charge_transfers(plan, ctx.record_words());
    } catch (const mpsim::RankFailure& rf) {
      drop_dead_idle_rank(ctx, idle, match, rf.rank);
      return std::nullopt;
    }
  }
  for (const mpsim::Transfer& t : plan) {
    ctx.move_records(both.rank(t.from), both.rank(t.to), t.count);
  }

  std::vector<NodeWork> keep, give;
  for (std::size_t j = 0; j < side.size(); ++j) {
    (side[j] == 0 ? keep : give).push_back(std::move(busy.frontier[j]));
  }
  busy.frontier = std::move(keep);
  busy.acc_comm = 0.0;
  if (ctx.options().load_balance) {
    balance_half(ctx, busy.group, busy.frontier);
  }
  Part helper{std::move(idle[match]), std::move(give)};
  idle.erase(idle.begin() + static_cast<std::ptrdiff_t>(match));
  if (ctx.options().load_balance) {
    balance_half(ctx, helper.group, helper.frontier);
  }
  ++ctx.rejoins;
  if (ctx.machine().trace().enabled()) {
    ctx.machine().trace().record(
        {.time = busy.group.horizon(),
         .kind = mpsim::EventKind::Rejoin,
         .rank = busy.group.rank(0),
         .group_base = busy.group.rank(0),
         .group_size = p,
         .words = 0.0,
         .detail = "idle partition recruited for " +
                   std::to_string(helper.frontier.size()) + " frontier nodes"});
  }
  return helper;
}

}  // namespace

ParResult build_hybrid(const data::Dataset& ds, const ParOptions& opt) {
  mpsim::Machine machine(opt.num_procs, opt.cost);
  ParContext ctx(ds, opt, machine);
  data::Rng rng(opt.seed ^ 0x9E3779B97F4A7C15ULL);
  const mpsim::CostModel& cm = machine.cost();

  // A resumed run restarts its clocks at zero, so the earliest-horizon
  // pick below may visit partitions in a different order than the
  // interrupted run — that reorders *when* nodes expand, never which
  // split wins, so the final tree digest still matches an uninterrupted
  // run's.
  DurableCheckpointer ckpt(ctx, "hybrid");
  std::vector<mpsim::Group> idle;
  std::vector<Part> active = ckpt.start(&idle);
  while (!active.empty()) {
    ckpt.save(active, idle);
    // Asynchronous partitions: advance the one earliest in virtual time.
    std::size_t pick = 0;
    for (std::size_t i = 1; i < active.size(); ++i) {
      if (active[i].group.horizon() < active[pick].group.horizon()) {
        pick = i;
      }
    }
    Part part = std::move(active[pick]);
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));

    part.frontier = expand_level_ft(ctx, part.group, part.frontier,
                                    &part.acc_comm);
    if (part.frontier.empty()) {
      idle.push_back(std::move(part.group));
      continue;
    }

    // Splitting criterion (Section 4.2): split when the accumulated
    // communication cost reaches split_ratio x (moving + load balancing).
    if (part.group.size() >= 1 && part.frontier.size() >= 2) {
      const double per_proc =
          static_cast<double>(frontier_records(part.frontier)) /
          part.group.size();
      const double moving_est = 2.0 * per_proc * ctx.record_words() *
                                cm.record_move_word_cost();
      const double lb_est = opt.load_balance ? moving_est : 0.0;
      const double threshold = opt.split_ratio * (moving_est + lb_est);
      if (part.acc_comm >= threshold && threshold > 0.0) {
        // "During the next round of splitting the idle partition is
        // included": a same-size idle group takes half the frontier in
        // preference to halving the busy group.
        int idle_match = -1;
        if (opt.rejoin_idle) {
          for (std::size_t i = 0; i < idle.size(); ++i) {
            if (idle[i].size() == part.group.size()) {
              idle_match = static_cast<int>(i);
              break;
            }
          }
        }
        if (idle_match >= 0) {
          std::optional<Part> helper = rejoin_split(
              ctx, part, idle, static_cast<std::size_t>(idle_match), rng);
          active.push_back(std::move(part));
          if (helper) active.push_back(std::move(*helper));
          continue;
        }
        if (part.group.size() > 1 && part.group.size() % 2 == 0) {
          auto [a, b] = split_partition(ctx, std::move(part), rng);
          active.push_back(std::move(a));
          active.push_back(std::move(b));
          continue;
        }
      }
    }
    active.push_back(std::move(part));
  }

  ctx.levels = ctx.tree().depth();
  return collect_result(ctx);
}

}  // namespace pdt::core
