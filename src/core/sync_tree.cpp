#include "core/sync_tree.hpp"

#include "core/ckpt.hpp"
#include "core/recovery.hpp"

namespace pdt::core {

ParResult collect_result(ParContext& ctx) {
  mpsim::Machine& m = ctx.machine();
  // Transient-retry cost accrues machine-side (admission control inside
  // Group collectives); fold it into the run's recovery accounting.
  ctx.recovery.retries = m.retries();
  ctx.recovery.retry_us = m.retry_us();
  ctx.recovery.escalations = m.escalations();
  ParResult res;
  res.tree = std::move(ctx.tree());
  res.parallel_time = m.max_clock();
  res.totals = m.total_stats();
  res.per_rank.reserve(static_cast<std::size_t>(m.size()));
  res.mem.reserve(static_cast<std::size_t>(m.size()));
  for (int r = 0; r < m.size(); ++r) {
    res.per_rank.push_back(m.stats(r));
    res.mem.push_back(m.mem(r));
  }
  res.mem_predicted = ctx.mem_predicted();
  res.levels = ctx.levels;
  res.partition_splits = ctx.partition_splits;
  res.rejoins = ctx.rejoins;
  res.records_moved = ctx.records_moved;
  res.histogram_words = ctx.histogram_words;
  res.derived_histograms = ctx.derived_histograms;
  res.parent_tables_left = static_cast<std::int64_t>(ctx.parent_tables.size());
  res.recovery = ctx.recovery;
  res.trace = m.trace().events();
  return res;
}

ParResult build_sync(const data::Dataset& ds, const ParOptions& opt) {
  mpsim::Machine machine(opt.num_procs, opt.cost);
  ParContext ctx(ds, opt, machine);

  // One partition: the whole machine, until a fail-stop shrinks it.
  DurableCheckpointer ckpt(ctx, "sync");
  std::vector<Part> work = ckpt.start();
  while (!work.empty()) {
    ckpt.save(work);
    Part& part = work.back();
    ++ctx.levels;
    part.frontier = expand_level_ft(ctx, part.group, part.frontier);
    if (part.frontier.empty()) {
      part.group.barrier();
      work.pop_back();
    }
  }
  return collect_result(ctx);
}

}  // namespace pdt::core
