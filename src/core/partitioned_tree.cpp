#include "core/partitioned_tree.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "core/ckpt.hpp"
#include "core/recovery.hpp"
#include "core/sync_tree.hpp"

namespace pdt::core {

namespace {

/// Case 1: pack `children` into exactly `parts` node groups with roughly
/// equal record totals (LPT). Returns part id per child.
std::vector<int> pack_nodes_lpt(const std::vector<NodeWork>& children,
                                int parts) {
  std::vector<std::size_t> order(children.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return children[a].total_records() >
                            children[b].total_records();
                   });
  std::vector<std::int64_t> load(static_cast<std::size_t>(parts), 0);
  std::vector<int> part_of(children.size(), 0);
  for (const std::size_t j : order) {
    const int lightest = static_cast<int>(
        std::min_element(load.begin(), load.end()) - load.begin());
    part_of[j] = lightest;
    load[static_cast<std::size_t>(lightest)] += children[j].total_records();
  }
  return part_of;
}

/// Case 2: allocate `p` processors over `k` nodes proportionally to their
/// record counts, each node getting at least one (largest remainder).
std::vector<int> allocate_procs(const std::vector<NodeWork>& children, int p) {
  const int k = static_cast<int>(children.size());
  assert(k >= 1 && k <= p);
  std::int64_t total = 0;
  for (const auto& c : children) total += c.total_records();
  std::vector<int> sizes(static_cast<std::size_t>(k), 1);
  int assigned = k;
  std::vector<double> frac(static_cast<std::size_t>(k), 0.0);
  for (int j = 0; j < k; ++j) {
    const double ideal =
        total > 0 ? static_cast<double>(p) *
                        static_cast<double>(children[static_cast<std::size_t>(j)]
                                                .total_records()) /
                        static_cast<double>(total)
                  : static_cast<double>(p) / k;
    const int extra = std::max(0, static_cast<int>(ideal) - 1);
    sizes[static_cast<std::size_t>(j)] += extra;
    assigned += extra;
    frac[static_cast<std::size_t>(j)] = ideal - static_cast<double>(extra + 1);
  }
  while (assigned < p) {
    const int j = static_cast<int>(
        std::max_element(frac.begin(), frac.end()) - frac.begin());
    ++sizes[static_cast<std::size_t>(j)];
    frac[static_cast<std::size_t>(j)] -= 1.0;
    ++assigned;
  }
  while (assigned > p) {
    // Over-allocation can only come from the +1 floors; shrink the largest.
    const int j = static_cast<int>(
        std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
    assert(sizes[static_cast<std::size_t>(j)] > 1);
    --sizes[static_cast<std::size_t>(j)];
    --assigned;
  }
  return sizes;
}

/// Move records so that each part owns exactly its children's rows, spread
/// evenly over the part's members. Physically rebuilds the NodeWork row
/// lists (indexed by part-local member) and charges the all-to-all.
/// `part_of[j]` names the part of child j; `part_members[q]` lists group
/// member indices of part q.
std::vector<std::vector<NodeWork>> shuffle_to_parts(
    ParContext& ctx, const mpsim::Group& g, std::vector<NodeWork>& children,
    const std::vector<int>& part_of,
    const std::vector<std::vector<int>>& part_members) {
  const obs::PhaseScope phase(ctx.profiler(), "record-shuffle");
  const int p = g.size();
  // Records that change ranks here leave the origin's local store and
  // enter the destination's (batched per ordered pair).
  std::vector<std::int64_t> moved(static_cast<std::size_t>(p) *
                                  static_cast<std::size_t>(p), 0);
  std::vector<std::vector<NodeWork>> out(part_members.size());
  for (std::size_t j = 0; j < children.size(); ++j) {
    const auto q = static_cast<std::size_t>(part_of[j]);
    out[q].push_back(spread_over(children[j], part_members[q], moved));
  }

  std::vector<std::vector<double>> words(
      static_cast<std::size_t>(p),
      std::vector<double>(static_cast<std::size_t>(p), 0.0));
  for (int from = 0; from < p; ++from) {
    for (int to = 0; to < p; ++to) {
      const std::int64_t n = moved[static_cast<std::size_t>(from * p + to)];
      // record_words() is a whole number, so this is exactly the sum of
      // one record's words per row.
      words[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)] =
          static_cast<double>(n) * ctx.record_words();
      ctx.move_records(g.rank(from), g.rank(to), n);
    }
  }
  g.all_to_all_personalized(words);
  return out;
}

}  // namespace

ParResult build_partitioned(const data::Dataset& ds, const ParOptions& opt) {
  mpsim::Machine machine(opt.num_procs, opt.cost);
  ParContext ctx(ds, opt, machine);

  DurableCheckpointer ckpt(ctx, "partitioned");
  std::vector<Part> work = ckpt.start();
  while (!work.empty()) {
    ckpt.save(work);
    Part part = std::move(work.back());
    work.pop_back();

    if (part.group.size() == 1) {
      // A lone processor develops its subtrees with the serial
      // algorithm — one level per worklist turn (the partition is
      // re-pushed and, being LIFO, popped right back), so a durable
      // epoch can land between any two levels of the serial phase too.
      part.frontier = expand_level_ft(ctx, part.group, part.frontier);
      if (!part.frontier.empty()) work.push_back(std::move(part));
      continue;
    }

    std::vector<NodeWork> children =
        expand_level_ft(ctx, part.group, part.frontier);
    if (children.empty()) continue;

    const int p = part.group.size();
    std::vector<int> part_of;
    std::vector<std::vector<int>> part_members;
    if (static_cast<int>(children.size()) >= p) {
      // Case 1: one node group per processor.
      part_of = pack_nodes_lpt(children, p);
      part_members.resize(static_cast<std::size_t>(p));
      for (int m = 0; m < p; ++m) {
        part_members[static_cast<std::size_t>(m)] = {m};
      }
    } else {
      // Case 2: processor subsets proportional to node record counts,
      // assigned as contiguous member ranges (Figure 3).
      const std::vector<int> sizes =
          allocate_procs(children, p);
      part_of.resize(children.size());
      int next_member = 0;
      for (std::size_t j = 0; j < children.size(); ++j) {
        part_of[j] = static_cast<int>(j);
        std::vector<int> members;
        for (int t = 0; t < sizes[j]; ++t) members.push_back(next_member++);
        part_members.push_back(std::move(members));
      }
      assert(next_member == p);
    }
    ++ctx.partition_splits;

    std::vector<std::vector<NodeWork>> shuffled =
        shuffle_to_parts(ctx, part.group, children, part_of, part_members);
    for (std::size_t q = 0; q < part_members.size(); ++q) {
      if (shuffled[q].empty()) continue;
      std::vector<mpsim::Rank> ranks;
      for (const int m : part_members[q]) {
        ranks.push_back(part.group.rank(m));
      }
      work.push_back(Part{mpsim::Group(machine, std::move(ranks)),
                          std::move(shuffled[q])});
    }
  }

  ctx.levels = ctx.tree().depth();
  return collect_result(ctx);
}

}  // namespace pdt::core
