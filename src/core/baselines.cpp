#include "core/baselines.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

#include "core/sync_tree.hpp"
#include "dtree/split.hpp"

namespace pdt::core {

namespace {

/// Grow the tree breadth first from `root`, as both baselines do: each
/// level histograms its nodes in comm_buffer_nodes-sized chunks and splits
/// them through the formulations' fill_tables and split_rows. The
/// baseline's cost model is `charge_chunk(chunk)`, which books a chunk's
/// statistics and split election, and `charge_split(nw, test)`, which
/// books the routing of one split node's rows.
template <class ChargeChunk, class ChargeSplit>
void grow_levels(ParContext& ctx, NodeWork root, ChargeChunk&& charge_chunk,
                 ChargeSplit&& charge_split) {
  const ParOptions& opt = ctx.options();
  dtree::Tree& tree = ctx.tree();
  const auto entries = static_cast<std::size_t>(ctx.layout().total());
  const auto buffer_nodes =
      static_cast<std::size_t>(std::max(1, opt.comm_buffer_nodes));
  dtree::Hist hist;
  std::vector<NodeWork> frontier;
  frontier.push_back(std::move(root));
  while (!frontier.empty()) {
    ++ctx.levels;
    // Nodes at the depth limit stay leaves.
    std::vector<NodeWork*> work;
    for (NodeWork& nw : frontier) {
      if (tree.node(nw.node_id).depth < opt.grow.max_depth) work.push_back(&nw);
    }
    std::vector<NodeWork> next;
    for (std::size_t c0 = 0; c0 < work.size(); c0 += buffer_nodes) {
      const auto chunk = std::span<NodeWork* const>(work).subspan(
          c0, std::min(buffer_nodes, work.size() - c0));
      fill_tables(ctx, chunk, hist);
      charge_chunk(chunk);
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        NodeWork& nw = *chunk[i];
        const auto table =
            std::span<const std::int64_t>(hist).subspan(i * entries, entries);
        const dtree::SplitDecision d =
            dtree::choose_split(table, ctx.layout(), ctx.dataset().schema(),
                                ctx.mapper(), opt.grow);
        if (d.test.is_leaf()) {
          nw.release();
          continue;
        }
        const int first = tree.expand(nw.node_id, d);
        charge_split(nw, d.test);
        split_rows(ctx, nw, d.test, first, table, next);
      }
    }
    frontier = std::move(next);
  }
}

}  // namespace

ParResult build_vertical(const data::Dataset& ds, const ParOptions& opt) {
  mpsim::Machine machine(opt.num_procs, opt.cost);
  ParContext ctx(ds, opt, machine);
  const mpsim::Group all = mpsim::Group::whole(machine);
  const mpsim::CostModel& cm = machine.cost();
  const dtree::AttrLayout& layout = ctx.layout();
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

  // Every processor sees every record (through its own columns), so the
  // store holds each node's rows as one member.
  grow_levels(
      ctx, ctx.root_node(1),
      [&](auto chunk) {
        std::int64_t chunk_rows = 0;
        for (const NodeWork* nw : chunk) chunk_rows += nw->total_records();
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
      },
      [&](const NodeWork& nw, const dtree::SplitTest& test) {
        // The winning attribute's owner routes every record and
        // broadcasts the assignments; the others update their views.
        const auto rows = static_cast<double>(nw.total_records());
        machine.charge_compute(owner(test.attr), rows);
        all.charge_broadcast(rows);
        for (int r = 0; r < p; ++r) machine.charge_compute(r, 0.25 * rows);
      });
  all.barrier();
  return collect_result(ctx);
}

ParResult build_host_worker(const data::Dataset& ds, const ParOptions& opt) {
  assert(opt.num_procs >= 2 && "PDT needs a host plus at least one worker");
  mpsim::Machine machine(opt.num_procs, opt.cost);
  ParContext ctx(ds, opt, machine);
  const mpsim::CostModel& cm = machine.cost();
  const int workers = opt.num_procs - 1;  // rank 0 is the data-less host
  const mpsim::Rank host = 0;
  const int num_attrs = ctx.layout().num_attributes();
  const int entries = ctx.layout().total();

  // Rows over workers: member w is rank w + 1.
  grow_levels(
      ctx, ctx.root_node(workers),
      [&](auto chunk) {
        // Workers: local statistics for the chunk.
        for (const NodeWork* nw : chunk) {
          for (int w = 0; w < workers; ++w) {
            const auto rows = static_cast<double>(nw->member_records(w));
            if (rows == 0.0) continue;
            machine.charge_compute(w + 1, rows * num_attrs);
            machine.charge_io(w + 1, rows * ctx.record_words() * cm.t_io);
          }
        }
        for (int w = 0; w < workers; ++w) {
          machine.charge_compute(
              w + 1, 0.5 * static_cast<double>(chunk.size()) * entries);
        }

        // The bottleneck: every worker sends its statistics to the host
        // "at roughly the same time", and the host receives them one after
        // another.
        const double words = static_cast<double>(chunk.size()) * entries;
        ctx.histogram_words += words;
        for (int w = 0; w < workers; ++w) {
          const mpsim::Time send = cm.t_s + cm.t_w * words;
          machine.charge_comm(w + 1, send, words, 0.0, 1, cm.t_s);
          machine.wait_for(host, w + 1);
          machine.charge_comm(host, send, 0.0, words, 1, cm.t_s);
        }
        // Host alone evaluates the splits, then notifies every worker,
        // again serialized at the host.
        machine.charge_compute(host,
                               static_cast<double>(chunk.size()) * entries);
        const double dec_words = static_cast<double>(chunk.size()) * 8.0;
        for (int w = 0; w < workers; ++w) {
          const mpsim::Time send = cm.t_s + cm.t_w * dec_words;
          machine.charge_comm(host, send, dec_words, 0.0, 1, cm.t_s);
          machine.wait_for(w + 1, host);
          machine.charge_comm(w + 1, 0.0, 0.0, dec_words);
        }
      },
      [&](const NodeWork& nw, const dtree::SplitTest&) {
        // Workers split their local rows.
        for (int w = 0; w < workers; ++w) {
          const std::int64_t rows = nw.member_records(w);
          if (rows > 0) machine.charge_compute(w + 1, static_cast<double>(rows));
        }
      });
  mpsim::Group::whole(machine).barrier();
  return collect_result(ctx);
}

}  // namespace pdt::core
