#include "core/baselines.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "core/sync_tree.hpp"
#include "dtree/histogram.hpp"

namespace pdt::core {

namespace {

std::vector<data::RowId> all_rows(const data::Dataset& ds) {
  std::vector<data::RowId> rows(ds.num_rows());
  std::iota(rows.begin(), rows.end(), data::RowId{0});
  return rows;
}

}  // namespace

ParResult build_vertical(const data::Dataset& ds, const ParOptions& opt) {
  mpsim::Machine machine(opt.num_procs, opt.cost);
  ParContext ctx(ds, opt, machine);
  const mpsim::Group all = mpsim::Group::whole(machine);
  const mpsim::CostModel& cm = machine.cost();
  const dtree::AttrLayout& layout = ctx.layout();
  const dtree::SlotMapper& mapper = ctx.mapper();
  const int p = opt.num_procs;
  const int num_attrs = layout.num_attributes();

  // Attribute ownership, round-robin; processors beyond A_d stay idle —
  // the scheme's structural scaling limit.
  const auto owner = [&](int attr) { return attr % p; };
  // Per-rank words of one record restricted to the rank's columns.
  std::vector<double> rank_record_words(static_cast<std::size_t>(p), 1.0);
  for (int a = 0; a < num_attrs; ++a) {
    rank_record_words[static_cast<std::size_t>(owner(a))] +=
        ds.schema().attr(a).is_continuous() ? 2.0 : 1.0;
  }

  dtree::Tree& tree = ctx.tree();
  struct FrontierNode {
    int id;
    std::vector<data::RowId> rows;
  };
  std::vector<FrontierNode> frontier;
  frontier.push_back({tree.root(), all_rows(ds)});

  dtree::Hist hist(static_cast<std::size_t>(layout.total()));
  const int buffer_nodes = std::max(1, opt.comm_buffer_nodes);
  while (!frontier.empty()) {
    ++ctx.levels;
    std::vector<FrontierNode> next;
    for (std::size_t c0 = 0; c0 < frontier.size();
         c0 += static_cast<std::size_t>(buffer_nodes)) {
      const std::size_t c1 = std::min(
          frontier.size(), c0 + static_cast<std::size_t>(buffer_nodes));
      std::int64_t chunk_rows = 0;
      std::vector<const FrontierNode*> chunk;
      for (std::size_t i = c0; i < c1; ++i) {
        if (tree.node(frontier[i].id).depth >= opt.grow.max_depth) continue;
        chunk.push_back(&frontier[i]);
        chunk_rows += static_cast<std::int64_t>(frontier[i].rows.size());
      }
      if (chunk.empty()) continue;

      // Statistics: each processor scans every record, but only its own
      // attributes' columns — perfectly load balanced across <= A_d
      // processors, no record communication.
      for (int a = 0; a < num_attrs; ++a) {
        machine.charge_compute(owner(a), static_cast<double>(chunk_rows));
        machine.charge_compute(owner(a),
                               0.5 * static_cast<double>(chunk.size()) *
                                   layout.slots(a) * layout.num_classes());
      }
      for (int r = 0; r < p; ++r) {
        machine.charge_io(r, static_cast<double>(chunk_rows) *
                                 rank_record_words[static_cast<std::size_t>(r)] *
                                 cm.t_io);
      }
      // Elect the best split per node: tiny reduction of per-attribute
      // winners.
      all.charge_all_reduce(static_cast<double>(chunk.size()) * 4.0);

      for (const FrontierNode* fn : chunk) {
        std::fill(hist.begin(), hist.end(), 0);
        dtree::accumulate(hist, layout, mapper, fn->rows);
        const dtree::SplitDecision d =
            dtree::choose_split(hist, layout, ds.schema(), mapper, opt.grow);
        if (d.test.is_leaf()) continue;
        const int first = tree.expand(fn->id, d);

        // The winning attribute's owner routes every record and
        // broadcasts the assignments; the others update their views.
        machine.charge_compute(owner(d.test.attr),
                               static_cast<double>(fn->rows.size()));
        all.charge_broadcast(static_cast<double>(fn->rows.size()));
        for (int r = 0; r < p; ++r) {
          machine.charge_compute(r, 0.25 *
                                        static_cast<double>(fn->rows.size()));
        }

        std::vector<std::vector<data::RowId>> child_rows(
            static_cast<std::size_t>(d.test.num_children));
        mapper.for_each_slot(
            d.test.attr, fn->rows, [&](data::RowId row, int s) {
              child_rows[static_cast<std::size_t>(d.test.child_of_slot(s))]
                  .push_back(row);
            });
        for (int k = 0; k < d.test.num_children; ++k) {
          auto& rows = child_rows[static_cast<std::size_t>(k)];
          if (!rows.empty()) next.push_back({first + k, std::move(rows)});
        }
      }
    }
    frontier = std::move(next);
  }
  all.barrier();
  return collect_result(ctx);
}

ParResult build_host_worker(const data::Dataset& ds, const ParOptions& opt) {
  assert(opt.num_procs >= 2 && "PDT needs a host plus at least one worker");
  mpsim::Machine machine(opt.num_procs, opt.cost);
  ParContext ctx(ds, opt, machine);
  const mpsim::CostModel& cm = machine.cost();
  const dtree::AttrLayout& layout = ctx.layout();
  const dtree::SlotMapper& mapper = ctx.mapper();
  const int workers = opt.num_procs - 1;  // rank 0 is the data-less host
  const mpsim::Rank host = 0;
  const int num_attrs = layout.num_attributes();

  dtree::Tree& tree = ctx.tree();
  // Rows over workers (ranks 1..P-1).
  const data::RowPartition part =
      data::partition_random(ds.num_rows(), workers, opt.seed);
  struct FrontierNode {
    int id;
    std::vector<std::vector<data::RowId>> worker_rows;
  };
  std::vector<FrontierNode> frontier;
  {
    FrontierNode root;
    root.id = tree.root();
    root.worker_rows.assign(part.begin(), part.end());
    frontier.push_back(std::move(root));
  }

  dtree::Hist hist;
  const int entries = layout.total();
  const int buffer_nodes = std::max(1, opt.comm_buffer_nodes);
  while (!frontier.empty()) {
    ++ctx.levels;
    std::vector<FrontierNode> next;
    for (std::size_t c0 = 0; c0 < frontier.size();
         c0 += static_cast<std::size_t>(buffer_nodes)) {
      const std::size_t c1 = std::min(
          frontier.size(), c0 + static_cast<std::size_t>(buffer_nodes));
      std::vector<FrontierNode*> chunk;
      for (std::size_t i = c0; i < c1; ++i) {
        if (tree.node(frontier[i].id).depth < opt.grow.max_depth) {
          chunk.push_back(&frontier[i]);
        }
      }
      if (chunk.empty()) continue;
      hist.assign(chunk.size() * static_cast<std::size_t>(entries), 0);

      // Workers: local statistics for the chunk.
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        auto node_hist = std::span<std::int64_t>(hist).subspan(
            i * static_cast<std::size_t>(entries),
            static_cast<std::size_t>(entries));
        for (int w = 0; w < workers; ++w) {
          const auto& rows = chunk[i]->worker_rows[static_cast<std::size_t>(w)];
          if (rows.empty()) continue;
          dtree::accumulate(node_hist, layout, mapper, rows);
          machine.charge_compute(w + 1,
                                 static_cast<double>(rows.size()) * num_attrs);
          machine.charge_io(w + 1, static_cast<double>(rows.size()) *
                                       ctx.record_words() * cm.t_io);
        }
      }
      for (int w = 0; w < workers; ++w) {
        machine.charge_compute(
            w + 1, 0.5 * static_cast<double>(chunk.size()) * entries);
      }

      // The bottleneck: every worker sends its statistics to the host "at
      // roughly the same time", and the host receives them one after
      // another.
      const double words = static_cast<double>(chunk.size()) * entries;
      ctx.histogram_words += words;
      for (int w = 0; w < workers; ++w) {
        const mpsim::Time send = cm.t_s + cm.t_w * words;
        machine.charge_comm(w + 1, send, words, 0.0, 1, cm.t_s);
        machine.wait_for(host, w + 1);
        machine.charge_comm(host, send, 0.0, words, 1, cm.t_s);
      }
      // Host alone evaluates the splits.
      machine.charge_compute(host, static_cast<double>(chunk.size()) * entries);

      std::vector<dtree::SplitDecision> decisions;
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        auto node_hist = std::span<const std::int64_t>(hist).subspan(
            i * static_cast<std::size_t>(entries),
            static_cast<std::size_t>(entries));
        decisions.push_back(dtree::choose_split(node_hist, layout,
                                                ds.schema(), mapper,
                                                opt.grow));
      }
      // Host notifies every worker, again serialized at the host.
      const double dec_words = static_cast<double>(chunk.size()) * 8.0;
      for (int w = 0; w < workers; ++w) {
        const mpsim::Time send = cm.t_s + cm.t_w * dec_words;
        machine.charge_comm(host, send, dec_words, 0.0, 1, cm.t_s);
        machine.wait_for(w + 1, host);
        machine.charge_comm(w + 1, 0.0, 0.0, dec_words);
      }

      // Workers split their local rows.
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        const dtree::SplitDecision& d = decisions[i];
        if (d.test.is_leaf()) continue;
        const int first = tree.expand(chunk[i]->id, d);
        std::vector<FrontierNode> children(
            static_cast<std::size_t>(d.test.num_children));
        for (auto& ch : children) {
          ch.worker_rows.resize(static_cast<std::size_t>(workers));
        }
        for (int w = 0; w < workers; ++w) {
          auto& rows = chunk[i]->worker_rows[static_cast<std::size_t>(w)];
          if (rows.empty()) continue;
          machine.charge_compute(w + 1, static_cast<double>(rows.size()));
          mapper.for_each_slot(
              d.test.attr, rows, [&](data::RowId row, int s) {
                children[static_cast<std::size_t>(d.test.child_of_slot(s))]
                    .worker_rows[static_cast<std::size_t>(w)]
                    .push_back(row);
              });
          rows.clear();
          rows.shrink_to_fit();
        }
        for (int k = 0; k < d.test.num_children; ++k) {
          auto& ch = children[static_cast<std::size_t>(k)];
          std::int64_t total = 0;
          for (const auto& rows : ch.worker_rows) {
            total += static_cast<std::int64_t>(rows.size());
          }
          if (total > 0) {
            ch.id = first + k;
            next.push_back(std::move(ch));
          }
        }
      }
    }
    frontier = std::move(next);
  }
  mpsim::Group::whole(machine).barrier();
  return collect_result(ctx);
}

}  // namespace pdt::core
