#include "core/frontier.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dtree/split_eval.hpp"
#include "mpsim/comm_ledger.hpp"
#include "mpsim/fault.hpp"

namespace pdt::core {

namespace {

/// Section 3.4's parallel-sorting strategy: categorical attributes decide
/// from the reduced histogram tables, continuous attributes from an exact
/// sorted scan of the node's (globally gathered) values — the same
/// candidates dtree::grow_dfs_exact evaluates.
dtree::SplitDecision choose_split_exact(std::span<const std::int64_t> hist,
                                        const dtree::AttrLayout& layout,
                                        const data::Dataset& ds,
                                        const dtree::GrowOptions& grow,
                                        const NodeWork& work) {
  const int c_num = layout.num_classes();
  const std::vector<std::int64_t> parent = dtree::class_counts(hist, layout);
  dtree::BestTracker tracker(parent, grow);
  if (tracker.forced_leaf()) return tracker.take();

  std::vector<std::int64_t> left(static_cast<std::size_t>(c_num));
  std::vector<std::pair<double, int>> vals;
  for (int a = 0; a < layout.num_attributes(); ++a) {
    const data::Attribute& attr = ds.schema().attr(a);
    const auto table = hist.subspan(
        static_cast<std::size_t>(layout.offset(a)),
        static_cast<std::size_t>(layout.slots(a) * c_num));
    if (attr.is_continuous()) {
      vals.clear();
      for (const auto& rows : work.local_rows) {
        for (const data::RowId row : rows) {
          vals.emplace_back(ds.cont(a, row), ds.label(row));
        }
      }
      std::sort(vals.begin(), vals.end());
      std::fill(left.begin(), left.end(), 0);
      for (std::size_t i = 0; i + 1 < vals.size(); ++i) {
        ++left[static_cast<std::size_t>(vals[i].second)];
        if (vals[i].first == vals[i + 1].first) continue;
        dtree::SplitTest test;
        test.kind = dtree::SplitTest::Kind::Threshold;
        test.attr = a;
        test.threshold = 0.5 * (vals[i].first + vals[i + 1].first);
        tracker.offer_binary(left, std::move(test));
      }
      continue;
    }
    if (attr.ordered) {
      tracker.offer_ordered_table(a, table, layout.slots(a),
                                  dtree::SplitTest::Kind::OrderedSlot,
                                  [](int t) { return static_cast<double>(t); });
    } else {
      tracker.offer_nominal(a, table, layout.slots(a));
    }
  }
  return tracker.take();
}

/// Host half of Section 3.1 step 2 for work[c0, c1): fill each node's
/// table in `hist`, summed over the members (arithmetically identical to
/// reducing per-member local histograms). Nodes whose parent has an entry
/// in ctx.parent_tables go last, grouped by parent with the largest last,
/// so the largest sibling in reach is the one derived.
void fill_chunk_tables(ParContext& ctx, const std::vector<NodeWork*>& work,
                       std::size_t c0, std::size_t c1, dtree::Hist& hist) {
  const dtree::AttrLayout& layout = ctx.layout();
  const auto entries = static_cast<std::size_t>(layout.total());
  const auto table = [&](std::size_t i) {
    return std::span<std::int64_t>(hist).subspan((i - c0) * entries, entries);
  };
  const auto accumulate_node = [&](std::size_t i) {
    for (const auto& rows : work[i]->local_rows) {
      if (!rows.empty()) {
        dtree::accumulate(table(i), layout, ctx.mapper(), rows);
      }
    }
  };

  struct Cached {
    int parent;
    std::int64_t records;
    std::size_t i;
  };
  std::vector<Cached> cached;
  for (std::size_t i = c0; i < c1; ++i) {
    const int parent = ctx.tree().node(work[i]->node_id).parent;
    if (ctx.parent_tables.pending(parent) > 0) {
      cached.push_back({parent, work[i]->total_records(), i});
    } else {
      accumulate_node(i);
    }
  }
  std::stable_sort(cached.begin(), cached.end(),
                   [](const Cached& a, const Cached& b) {
                     if (a.parent != b.parent) return a.parent < b.parent;
                     return a.records < b.records;
                   });
  for (const Cached& c : cached) {
    if (ctx.parent_tables.pending(c.parent) > 1) {
      accumulate_node(c.i);
      ctx.parent_tables.subtract(c.parent, table(c.i));
    } else {
      ctx.parent_tables.derive(c.parent, table(c.i));
      ++ctx.derived_histograms;
    }
  }
}

}  // namespace

void ParentTables::keep(int id, std::span<const std::int64_t> table,
                        int pending) {
  if (free_.empty()) {
    entries_ = table.size();
    const std::size_t block = kBlockTables * entries_;
    blocks_.push_back(std::make_unique_for_overwrite<std::int64_t[]>(block));
    for (std::size_t k = 0; k < kBlockTables; ++k) {
      free_.push_back(blocks_.back().get() + k * entries_);
    }
  }
  assert(table.size() == entries_);
  std::int64_t* remainder = free_.back();
  free_.pop_back();
  std::copy(table.begin(), table.end(), remainder);
  index_[id] = {remainder, pending};
}

int ParentTables::pending(int id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? 0 : it->second.pending;
}

void ParentTables::subtract(int id, std::span<const std::int64_t> child) {
  Entry& e = index_.at(id);
  for (std::size_t i = 0; i < entries_; ++i) e.remainder[i] -= child[i];
  --e.pending;
}

void ParentTables::derive(int id, std::span<std::int64_t> child) {
  const auto it = index_.find(id);
  assert(it != index_.end());
  std::copy(it->second.remainder, it->second.remainder + entries_,
            child.begin());
  free_.push_back(it->second.remainder);
  index_.erase(it);
}

void ParentTables::clear() {
  index_.clear();
  blocks_.clear();
  free_.clear();
}

std::int64_t NodeWork::total_records() const {
  std::int64_t n = 0;
  for (const auto& rows : local_rows) {
    n += static_cast<std::int64_t>(rows.size());
  }
  return n;
}

ParContext::ParContext(const data::Dataset& ds, const ParOptions& opt,
                       mpsim::Machine& machine)
    : ds_(&ds),
      opt_(&opt),
      machine_(&machine),
      mapper_(ds, opt.grow.cont_bins),
      layout_(ds.schema(), opt.grow.cont_bins),
      tree_(dtree::class_counts_of_rows(
          ds, [&] {
            std::vector<data::RowId> rows(ds.num_rows());
            for (std::size_t i = 0; i < rows.size(); ++i) {
              rows[i] = static_cast<data::RowId>(i);
            }
            return rows;
          }())) {
  double words = 1.0;  // label
  for (int a = 0; a < ds.num_attributes(); ++a) {
    words += ds.schema().attr(a).is_continuous() ? 2.0 : 1.0;
  }
  record_words_ = words;
  record_bytes_ = std::llround(words * 4.0);
  machine.trace().enable(opt.trace);
  if (opt.fault != nullptr) machine.arm_faults(*opt.fault);

  // Section 4's per-rank memory bound for this run: ceil(N/P) resident
  // records, one buffered chunk of histogram tables, plus the bounded
  // staging terms (all-reduce shadow buffer; the parallel-sorting
  // strategy's 3-words-per-row exchange staging when enabled).
  {
    const auto n = static_cast<std::int64_t>(ds.num_rows());
    const auto p = static_cast<std::int64_t>(opt.num_procs);
    const std::int64_t per_rank = (n + p - 1) / p;
    const std::int64_t buffer_nodes =
        std::max<std::int64_t>(1, opt.comm_buffer_nodes);
    mem_predicted_.records_bytes = per_rank * record_bytes_;
    mem_predicted_.histogram_bytes = layout_.table_bytes(buffer_nodes);
    mem_predicted_.scratch_bytes =
        buffer_nodes * static_cast<std::int64_t>(layout_.total()) * 4;
    const int num_cont = ds.schema().num_continuous();
    if (opt.exact_continuous && num_cont > 0) {
      mem_predicted_.scratch_bytes += per_rank * 3 * 4 * num_cont;
    }
  }

  if (opt.obs != nullptr) {
    obs_ = opt.obs;
    obs_->attach(machine);
    profiler_ = &obs_->profiler();
    split_audit_ = obs_->split_audit();
    obs_->mem_ledger().set_predicted(mem_predicted_);
    obs::MetricsRegistry& reg = obs_->metrics();
    records_relocated_ = &reg.counter("records_relocated");
    words_all_reduced_ = &reg.counter("words_all_reduced");
    splits_evaluated_ = &reg.counter("splits_evaluated");
    frontier_nodes_ = &reg.histogram("frontier_nodes_per_expansion");
    shuffle_records_ = &reg.histogram("records_per_shuffle");
  }
  // The audit observes the replicated tree regardless of which wiring
  // requested it (the observability bundle wins over a GrowOptions hook).
  tree_.set_split_observer(split_audit_ != nullptr
                               ? static_cast<dtree::SplitObserver*>(split_audit_)
                               : opt.grow.split_observer);
}

void ParContext::publish_summary_gauges() {
  if (obs_ == nullptr) return;
  obs::MetricsRegistry& reg = obs_->metrics();
  const int p = machine_->size();
  mpsim::Time max_busy = 0.0;
  mpsim::Time sum_busy = 0.0;
  mpsim::Time sum_compute = 0.0;
  mpsim::Time sum_comm = 0.0;
  for (int r = 0; r < p; ++r) {
    const mpsim::RankStats& s = machine_->stats(r);
    max_busy = std::max(max_busy, s.busy_time());
    sum_busy += s.busy_time();
    sum_compute += s.compute_time;
    sum_comm += s.comm_time;
  }
  reg.gauge("load_imbalance_overall")
      .set(sum_busy > 0.0 ? max_busy / (sum_busy / p) : 0.0);
  reg.gauge("comm_to_compute_overall")
      .set(sum_compute > 0.0 ? sum_comm / sum_compute : 0.0);
  reg.gauge("max_clock_us").set(machine_->max_clock());
  reg.gauge("levels").set(static_cast<double>(levels));
  reg.gauge("partition_splits").set(static_cast<double>(partition_splits));
  reg.gauge("rejoins").set(static_cast<double>(rejoins));
  reg.gauge("records_moved_total").set(static_cast<double>(records_moved));
  reg.gauge("histogram_words_total").set(histogram_words);
}

NodeWork ParContext::initial_root(const mpsim::Group& g) {
  NodeWork root;
  root.node_id = tree_.root();
  const data::RowPartition part =
      data::partition_random(ds_->num_rows(), g.size(), opt_->seed);
  root.local_rows.assign(part.begin(), part.end());
  // The initial N/P distribution enters the ranks' local stores.
  for (int m = 0; m < g.size(); ++m) {
    mem_records_alloc(g.rank(m), root.member_records(m));
  }
  return root;
}

std::int64_t frontier_records(const std::vector<NodeWork>& f) {
  std::int64_t n = 0;
  for (const auto& nw : f) n += nw.total_records();
  return n;
}

std::int64_t frontier_member_records(const std::vector<NodeWork>& f, int m) {
  std::int64_t n = 0;
  for (const auto& nw : f) n += nw.member_records(m);
  return n;
}

void move_member_rows(ParContext& ctx, const mpsim::Group& g,
                      std::vector<NodeWork>& frontier,
                      const std::vector<mpsim::Transfer>& transfers) {
  for (const mpsim::Transfer& t : transfers) {
    std::int64_t remaining = t.count;
    for (NodeWork& nw : frontier) {
      if (remaining == 0) break;
      auto& src = nw.local_rows[static_cast<std::size_t>(t.from)];
      auto& dst = nw.local_rows[static_cast<std::size_t>(t.to)];
      const std::int64_t take = std::min<std::int64_t>(
          remaining, static_cast<std::int64_t>(src.size()));
      dst.insert(dst.end(), src.end() - take, src.end());
      src.resize(src.size() - static_cast<std::size_t>(take));
      remaining -= take;
    }
    assert(remaining == 0);
    ctx.records_moved += t.count;
    ctx.count_records_relocated(t.count);
    ctx.mem_records_move(g.rank(t.from), g.rank(t.to), t.count);
  }
}

std::vector<NodeWork> expand_level(ParContext& ctx, const mpsim::Group& g,
                                   std::vector<NodeWork>& frontier,
                                   mpsim::Time* comm_cost_out) {
  const dtree::AttrLayout& layout = ctx.layout();
  const dtree::SlotMapper& mapper = ctx.mapper();
  const dtree::GrowOptions& grow = ctx.options().grow;
  mpsim::Machine& machine = ctx.machine();
  const mpsim::CostModel& cm = machine.cost();
  dtree::Tree& tree = ctx.tree();
  const int p = g.size();
  const int num_attrs = layout.num_attributes();
  const int entries = layout.total();

#ifndef NDEBUG
  // Scratch is strictly level-local: whatever histogram chunks, sort
  // staging, and collective buffers a level charges, it must release
  // before returning, or reported peaks would accumulate artifacts.
  std::vector<std::int64_t> scratch_baseline(static_cast<std::size_t>(p));
  for (int m = 0; m < p; ++m) {
    const mpsim::MemStats& mem = machine.mem(g.rank(m));
    scratch_baseline[static_cast<std::size_t>(m)] =
        mem.live_for(mpsim::MemTag::Histogram) +
        mem.live_for(mpsim::MemTag::Scratch) +
        mem.live_for(mpsim::MemTag::CollectiveBuffer);
  }
#endif

  // Nodes at the depth limit stay leaves and are not even histogrammed;
  // their rows leave the distributed store here.
  std::vector<NodeWork*> work;
  work.reserve(frontier.size());
  for (NodeWork& nw : frontier) {
    if (tree.node(nw.node_id).depth < grow.max_depth) {
      work.push_back(&nw);
    } else {
      for (int m = 0; m < p; ++m) {
        ctx.mem_records_free(g.rank(m), nw.member_records(m));
      }
    }
  }

  std::vector<NodeWork> next;
  mpsim::Time level_comm = 0.0;
  const int buffer_nodes = std::max(1, ctx.options().comm_buffer_nodes);
  dtree::Hist hist;

  // All nodes of one frontier share a depth; attribute this expansion's
  // charges to it (restores the caller's level on exit — partitions at
  // different depths interleave in the hybrid).
  const int frontier_level = work.empty()
                                 ? obs::kNoLevel
                                 : tree.node(work.front()->node_id).depth;
  const obs::LevelScope level_scope(ctx.profiler(), frontier_level);
  const mpsim::LedgerLevelScope ledger_level(machine.comm_ledger(),
                                             frontier_level);
  // Tag the members with the level they are expanding, so collective
  // stamps (deadlock reports) and fault events carry tree-depth context.
  for (int m = 0; m < p; ++m) {
    machine.set_rank_level(g.rank(m), frontier_level);
  }
  ctx.observe_frontier_nodes(static_cast<std::int64_t>(work.size()));

  for (std::size_t c0 = 0; c0 < work.size(); c0 += static_cast<std::size_t>(buffer_nodes)) {
    const std::size_t c1 =
        std::min(work.size(), c0 + static_cast<std::size_t>(buffer_nodes));
    const std::size_t chunk_nodes = c1 - c0;
    hist.assign(chunk_nodes * static_cast<std::size_t>(entries), 0);
    const std::int64_t chunk_table_bytes =
        layout.table_bytes(static_cast<std::int64_t>(chunk_nodes));

    {
      const obs::PhaseScope phase(ctx.profiler(), "histogram");
      // Every member materializes this chunk's count tables (the
      // communication buffer of Section 5's "after every 100 nodes");
      // released as soon as the chunk's splits are selected.
      for (int m = 0; m < p; ++m) {
        machine.alloc_bytes(g.rank(m), mpsim::MemTag::Histogram,
                            chunk_table_bytes);
      }
      fill_chunk_tables(ctx, work, c0, c1, hist);
      // Local histogram construction: each member is charged for its own
      // share of the update work, derived table or not (this is where
      // load imbalance surfaces as idle time at the following collective).
      for (std::size_t i = c0; i < c1; ++i) {
        for (int m = 0; m < p; ++m) {
          const auto& rows = work[i]->local_rows[static_cast<std::size_t>(m)];
          if (rows.empty()) continue;
          machine.charge_compute(g.rank(m),
                                 static_cast<double>(rows.size()) * num_attrs);
          // Eq. 1's "I/O scan of the training set": the attribute lists are
          // disk-resident, so every level re-reads each local record once.
          machine.charge_io(g.rank(m), static_cast<double>(rows.size()) *
                                           ctx.record_words() * cm.t_io);
        }
      }
      // Table initialization plus split-gain evaluation (Eq. 1's
      // C*A_d*M*2^L term), identical on every member. Charged at 0.5 t_c
      // per entry: zeroing and a sequential gain scan are far cheaper per
      // entry than the random-access increments t_c is calibrated to.
      for (int m = 0; m < p; ++m) {
        machine.charge_compute(g.rank(m),
                               0.5 * static_cast<double>(chunk_nodes) * entries);
      }
    }

    // Flush the communication buffer: one global reduction of this chunk's
    // histograms (Section 3.1 step 3 / Eq. 2).
    const double words =
        static_cast<double>(chunk_nodes) * ctx.hist_words();
    {
      const obs::PhaseScope phase(ctx.profiler(), "all-reduce");
      if (machine.fault() != nullptr) {
        // The hybrid's split criterion must see the straggler-inflated
        // cost, so measure the horizon advance instead of the analytic
        // Eq. 2 value (the two agree whenever no straggler is active).
        const mpsim::Time before = g.horizon();
        g.charge_all_reduce(words);
        level_comm += g.horizon() - before;
      } else {
        g.charge_all_reduce(words);
        level_comm += cm.all_reduce(words, p);
      }
    }
    ctx.count_words_all_reduced(words);
    ctx.histogram_words += words;

    // Section 3.4's parallel sorting for exact continuous thresholds: the
    // chunk's values are sorted cooperatively (local sort + sample-sort
    // exchange) for every continuous attribute — the "much higher volume"
    // exchange the paper warns about.
    const int num_cont = ctx.dataset().schema().num_continuous();
    if (ctx.options().exact_continuous && num_cont > 0) {
      const obs::PhaseScope phase(ctx.profiler(), "sort");
      std::vector<double> member_rows(static_cast<std::size_t>(p), 0.0);
      for (std::size_t i = c0; i < c1; ++i) {
        for (int m = 0; m < p; ++m) {
          member_rows[static_cast<std::size_t>(m)] += static_cast<double>(
              work[i]->local_rows[static_cast<std::size_t>(m)].size());
        }
      }
      // Sort staging: 3 words (value, rid, class) per local row per
      // continuous attribute, held only through this chunk's sort.
      std::vector<std::int64_t> sort_bytes(static_cast<std::size_t>(p), 0);
      for (int m = 0; m < p; ++m) {
        sort_bytes[static_cast<std::size_t>(m)] = std::llround(
            member_rows[static_cast<std::size_t>(m)] * 3.0 * num_cont * 4.0);
        machine.alloc_bytes(g.rank(m), mpsim::MemTag::Scratch,
                            sort_bytes[static_cast<std::size_t>(m)]);
      }
      for (int m = 0; m < p; ++m) {
        const double rows_m = member_rows[static_cast<std::size_t>(m)];
        if (rows_m > 0.0) {
          machine.charge_compute(
              g.rank(m), num_cont * rows_m *
                             std::log2(std::max(2.0, rows_m)));
        }
      }
      if (p > 1) {
        // One combined exchange: 3 words (value, rid, class) per row per
        // continuous attribute.
        std::vector<std::vector<double>> matrix(
            static_cast<std::size_t>(p),
            std::vector<double>(static_cast<std::size_t>(p), 0.0));
        double sort_words = 0.0;
        for (int i = 0; i < p; ++i) {
          const double out =
              member_rows[static_cast<std::size_t>(i)] * 3.0 * num_cont;
          sort_words += out;
          for (int j = 0; j < p; ++j) {
            matrix[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
                out / p;
          }
        }
        const mpsim::Time before = g.horizon();
        g.all_to_all_personalized(matrix);
        level_comm += g.horizon() - before;
        ctx.histogram_words += sort_words;
      }
      for (int m = 0; m < p; ++m) {
        machine.free_bytes(g.rank(m), mpsim::MemTag::Scratch,
                           sort_bytes[static_cast<std::size_t>(m)]);
      }
    }

    // Split selection — computed simultaneously (and identically) by every
    // member (Section 3.1 step 4), then local row partitioning (step 5).
    const obs::PhaseScope split_phase(ctx.profiler(), "split-eval");
    ctx.count_splits_evaluated(static_cast<std::int64_t>(chunk_nodes));
    for (std::size_t i = c0; i < c1; ++i) {
      auto node_hist = std::span<const std::int64_t>(hist).subspan(
          (i - c0) * static_cast<std::size_t>(entries),
          static_cast<std::size_t>(entries));
      const dtree::SplitDecision d =
          ctx.options().exact_continuous
              ? choose_split_exact(node_hist, layout, ctx.dataset(), grow,
                                   *work[i])
              : dtree::choose_split(node_hist, layout,
                                    ctx.dataset().schema(), mapper, grow);
      if (d.test.is_leaf()) {
        // The node closes: its rows leave the distributed store.
        for (int m = 0; m < p; ++m) {
          ctx.mem_records_free(g.rank(m), work[i]->member_records(m));
        }
        continue;
      }
      const int first = tree.expand(work[i]->node_id, d);
      if (dtree::SplitObserver* audit = tree.split_observer()) {
        // Feed counts by *global* rank, taken before the partition loop
        // below clears the node's row lists.
        for (int m = 0; m < p; ++m) {
          const std::int64_t fed = work[i]->member_records(m);
          if (fed > 0) audit->on_feed(work[i]->node_id, g.rank(m), fed);
        }
      }

      std::vector<NodeWork> children(
          static_cast<std::size_t>(d.test.num_children));
      for (auto& ch : children) {
        ch.local_rows.resize(static_cast<std::size_t>(p));
      }
      for (int m = 0; m < p; ++m) {
        auto& rows = work[i]->local_rows[static_cast<std::size_t>(m)];
        if (rows.empty()) continue;
        machine.charge_compute(g.rank(m), static_cast<double>(rows.size()));
        const auto route = [&](data::RowId row, int child) {
          children[static_cast<std::size_t>(child)]
              .local_rows[static_cast<std::size_t>(m)]
              .push_back(row);
        };
        if (d.test.kind == dtree::SplitTest::Kind::Threshold) {
          // Threshold tests compare the raw value (equivalent to the slot
          // comparison when the cut is a micro-bin boundary, and required
          // for the exact thresholds of the parallel-sorting strategy).
          const double* col = ctx.dataset().cont_column(d.test.attr).data();
          for (const data::RowId row : rows) {
            route(row, col[row] < d.test.threshold ? 0 : 1);
          }
        } else {
          mapper.for_each_slot(d.test.attr, rows, [&](data::RowId row, int s) {
            route(row, d.test.child_of_slot(s));
          });
        }
        rows.clear();
        rows.shrink_to_fit();
      }
      int pending = 0;
      for (int k = 0; k < d.test.num_children; ++k) {
        auto& ch = children[static_cast<std::size_t>(k)];
        if (ch.total_records() > 0) {
          ch.node_id = first + k;
          next.push_back(std::move(ch));
          ++pending;
        }
      }
      // Keep the reduced table for sibling subtraction, unless the
      // children sit at the depth limit and are never histogrammed.
      if (tree.node(first).depth < grow.max_depth) {
        ctx.parent_tables.keep(work[i]->node_id, node_hist, pending);
      }
    }

    // Chunk done: release its count tables before the next chunk is
    // materialized (the buffer is reused, not accumulated). Attributed to
    // the histogram phase that charged them, so the ledger cell
    // telescopes to zero instead of leaving a positive remainder here
    // and a negative one under split-eval.
    {
      const obs::PhaseScope phase(ctx.profiler(), "histogram");
      for (int m = 0; m < p; ++m) {
        machine.free_bytes(g.rank(m), mpsim::MemTag::Histogram,
                           chunk_table_bytes);
      }
    }
  }

#ifndef NDEBUG
  for (int m = 0; m < p; ++m) {
    const mpsim::MemStats& mem = machine.mem(g.rank(m));
    assert(mem.live_for(mpsim::MemTag::Histogram) +
               mem.live_for(mpsim::MemTag::Scratch) +
               mem.live_for(mpsim::MemTag::CollectiveBuffer) ==
           scratch_baseline[static_cast<std::size_t>(m)]);
  }
#endif

  if (comm_cost_out != nullptr) *comm_cost_out += level_comm;
  return next;
}

}  // namespace pdt::core
