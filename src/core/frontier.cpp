#include "core/frontier.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

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
      for (const data::RowId row : work.rows) {
        vals.emplace_back(ds.cont(a, row), ds.label(row));
      }
      std::sort(vals.begin(), vals.end());
      std::fill(left.begin(), left.end(), 0);
      for (std::size_t i = 0; i + 1 < vals.size(); ++i) {
        ++left[static_cast<std::size_t>(vals[i].second)];
        if (vals[i].first == vals[i + 1].first) continue;
        tracker.offer_binary(left, a, [&] {
          dtree::SplitTest test;
          test.kind = dtree::SplitTest::Kind::Threshold;
          test.threshold = 0.5 * (vals[i].first + vals[i + 1].first);
          return test;
        });
      }
      continue;
    }
    tracker.offer_categorical(a, attr.ordered, table);
  }
  return tracker.take();
}

/// Scatter rows and their K cells (K = k_num when the template K is 0)
/// to the ends of their children's arrays, in parent order. A fixed K
/// lets the cell copy compile to a few moves instead of a memcpy call.
template <std::size_t K, class D>
void scatter_rows(const data::RowId* rows, const std::uint8_t* cells,
                  std::size_t n, std::size_t k_num, const D* dest,
                  data::RowId** row_out, std::uint8_t** cell_out) {
  const std::size_t k = K == 0 ? k_num : K;
  for (std::size_t i = 0; i < n; ++i, cells += k) {
    const D d = dest[i];
    *row_out[d]++ = rows[i];
    std::memcpy(cell_out[d], cells, k);
    cell_out[d] += k;
  }
}

template <class D, std::size_t... K>
constexpr auto scatter_kernels(std::index_sequence<K...>) {
  return std::array{&scatter_rows<K, D>...};
}

/// Host half of Section 3.1 step 5 for one split node, with no Machine,
/// ledger or observer call: route every row to its child, count, then
/// scatter rows and cells into exact-size child arrays. Parent rows are
/// member-major, so each child's come out member-major too, every member's
/// in its parent order. A child gets the parent's member count; one that
/// receives no row comes back empty. `D` holds a child index.
template <class D>
std::vector<NodeWork> partition_rows(const ParContext& ctx, NodeWork& parent,
                                     const dtree::SplitTest& test) {
  const dtree::AttrLayout& layout = ctx.layout();
  const dtree::SlotMapper& mapper = ctx.mapper();
  const data::Dataset& ds = ctx.dataset();
  const std::size_t n = parent.rows.size();
  const auto nc = static_cast<std::size_t>(test.num_children);
  const std::size_t k_num = layout.cell_attrs().size();
  const int c_num = layout.num_classes();
  const int members = parent.members();

  std::vector<D> dest(n);
  const int split_cell = layout.cell_of(test.attr);
  if (test.kind == dtree::SplitTest::Kind::Threshold &&
      test.slot_threshold < 0) {
    // An exact threshold (Section 3.4's parallel sorting) lies between two
    // raw values, not on a micro-bin boundary: compare the raw value.
    const double* col = ds.cont_column(test.attr).data();
    for (std::size_t i = 0; i < n; ++i) {
      dest[i] = col[parent.rows[i]] < test.threshold ? 0 : 1;
    }
  } else if (split_cell >= 0) {
    // Slot tests, and thresholds on the boundary after slot_threshold
    // (value < boundary exactly when slot <= slot_threshold, since a slot
    // counts the boundaries <= the value), route by the cell's slot.
    std::vector<D> child_of_cell(
        static_cast<std::size_t>(layout.slots(test.attr) * c_num));
    for (std::size_t c = 0; c < child_of_cell.size(); ++c) {
      child_of_cell[c] =
          static_cast<D>(test.child_of_slot(static_cast<int>(c) / c_num));
    }
    const std::uint8_t* cell =
        parent.cells.data() + static_cast<std::size_t>(split_cell);
    for (std::size_t i = 0; i < n; ++i, cell += k_num) {
      dest[i] = child_of_cell[*cell];
    }
  } else {
    std::size_t i = 0;
    mapper.for_each_slot(test.attr, parent.rows, [&](data::RowId, int s) {
      dest[i++] = static_cast<D>(test.child_of_slot(s));
    });
  }

  // Count rows per (child, member); the children's offsets follow.
  std::vector<NodeWork> children(nc);
  std::vector<std::uint32_t> counts(nc * static_cast<std::size_t>(members), 0);
  for (int m = 0; m < members; ++m) {
    const std::size_t b = parent.offsets[static_cast<std::size_t>(m)];
    const std::size_t e = parent.offsets[static_cast<std::size_t>(m) + 1];
    if (nc == 2) {
      // A binary split's count of right-hand rows is a plain sum.
      std::uint32_t right = 0;
      for (std::size_t i = b; i < e; ++i) right += dest[i];
      counts[static_cast<std::size_t>(m)] =
          static_cast<std::uint32_t>(e - b) - right;
      counts[static_cast<std::size_t>(members + m)] = right;
      continue;
    }
    for (std::size_t i = b; i < e; ++i) {
      ++counts[dest[i] * static_cast<std::size_t>(members) +
               static_cast<std::size_t>(m)];
    }
  }
  for (std::size_t c = 0; c < nc; ++c) {
    NodeWork& ch = children[c];
    ch.offsets.resize(static_cast<std::size_t>(members) + 1);
    ch.offsets[0] = 0;
    for (int m = 0; m < members; ++m) {
      ch.offsets[static_cast<std::size_t>(m) + 1] =
          ch.offsets[static_cast<std::size_t>(m)] +
          counts[c * static_cast<std::size_t>(members) +
                 static_cast<std::size_t>(m)];
    }
    ch.rows.resize(ch.offsets.back());
    ch.cells.resize(ch.rows.size() * k_num);
  }

  std::vector<data::RowId*> row_out(nc);
  std::vector<std::uint8_t*> cell_out(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    row_out[c] = children[c].rows.data();
    cell_out[c] = children[c].cells.data();
  }
  if (k_num == 0) {
    for (std::size_t i = 0; i < n; ++i) *row_out[dest[i]]++ = parent.rows[i];
  } else {
    static constexpr auto kernels =
        scatter_kernels<D>(std::make_index_sequence<17>{});
    kernels[k_num < kernels.size() ? k_num : 0](
        parent.rows.data(), parent.cells.data(), n, k_num, dest.data(),
        row_out.data(), cell_out.data());
  }
  parent.release();
  return children;
}

}  // namespace

void fill_tables(ParContext& ctx, std::span<NodeWork* const> nodes,
                 dtree::Hist& hist) {
  const dtree::AttrLayout& layout = ctx.layout();
  const auto entries = static_cast<std::size_t>(layout.total());
  hist.assign(nodes.size() * entries, 0);
  const auto table = [&](std::size_t i) {
    return std::span<std::int64_t>(hist).subspan(i * entries, entries);
  };
  std::vector<std::uint32_t> scratch;
  const auto accumulate_node = [&](std::size_t i) {
    const NodeWork& nw = *nodes[i];
    assert(nw.cells.size() == nw.rows.size() * layout.cell_attrs().size());
    dtree::accumulate_cells(table(i), layout, nw.cells, scratch);
    for (int a = 0; a < layout.num_attributes(); ++a) {
      if (layout.cell_of(a) >= 0) continue;
      dtree::accumulate_attr(
          table(i).subspan(static_cast<std::size_t>(layout.offset(a)),
                           static_cast<std::size_t>(layout.slots(a) *
                                                    layout.num_classes())),
          layout, ctx.mapper(), a, nw.rows);
    }
  };

  struct Cached {
    int parent;
    std::int64_t records;
    std::size_t i;
  };
  std::vector<Cached> cached;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const int parent = ctx.tree().node(nodes[i]->node_id).parent;
    if (ctx.parent_tables.pending(parent) > 0) {
      cached.push_back({parent, nodes[i]->total_records(), i});
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

void split_rows(ParContext& ctx, NodeWork& nw, const dtree::SplitTest& test,
                int first, std::span<const std::int64_t> table,
                std::vector<NodeWork>& next) {
  std::vector<NodeWork> children =
      test.num_children <= 256
          ? partition_rows<std::uint8_t>(ctx, nw, test)
          : partition_rows<std::uint32_t>(ctx, nw, test);
  int pending = 0;
  for (int k = 0; k < test.num_children; ++k) {
    NodeWork& ch = children[static_cast<std::size_t>(k)];
    if (ch.total_records() > 0) {
      ch.node_id = first + k;
      next.push_back(std::move(ch));
      ++pending;
    }
  }
  // Keep the reduced table for sibling subtraction, unless the children
  // sit at the depth limit and are never histogrammed.
  if (ctx.tree().node(first).depth < ctx.options().grow.max_depth) {
    ctx.parent_tables.keep(nw.node_id, table, pending);
  }
}

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

void NodeWork::release() {
  std::vector<data::RowId>().swap(rows);
  std::vector<std::uint8_t>().swap(cells);
  std::fill(offsets.begin(), offsets.end(), 0U);
}

NodeWork regroup(const NodeWork& nw, const MemberPieces& pieces) {
  const std::size_t k_num =
      nw.rows.empty() ? 0 : nw.cells.size() / nw.rows.size();
  NodeWork out;
  out.node_id = nw.node_id;
  out.offsets.reserve(pieces.size() + 1);
  out.offsets.push_back(0);
  std::size_t total = 0;
  for (const auto& member : pieces) {
    for (const RowRange& r : member) total += r.size();
    out.offsets.push_back(static_cast<std::uint32_t>(total));
  }
  out.rows.reserve(total);
  out.cells.reserve(total * k_num);
  for (const auto& member : pieces) {
    for (const RowRange& r : member) {
      out.rows.insert(out.rows.end(),
                      nw.rows.begin() + static_cast<std::ptrdiff_t>(r.begin),
                      nw.rows.begin() + static_cast<std::ptrdiff_t>(r.end));
      out.cells.insert(
          out.cells.end(),
          nw.cells.begin() + static_cast<std::ptrdiff_t>(r.begin * k_num),
          nw.cells.begin() + static_cast<std::ptrdiff_t>(r.end * k_num));
    }
  }
  return out;
}

NodeWork fold_halves(NodeWork& nw, int h) {
  assert(nw.members() == 2 * h);
  MemberPieces pieces(static_cast<std::size_t>(h));
  for (int m = 0; m < h; ++m) {
    pieces[static_cast<std::size_t>(m)] = {nw.member_range(m),
                                           nw.member_range(m + h)};
  }
  NodeWork out = regroup(nw, pieces);
  nw.release();
  return out;
}

NodeWork spread_over(NodeWork& nw, std::span<const int> members,
                     std::vector<std::int64_t>& moved) {
  const int p = nw.members();
  const auto q = static_cast<std::int64_t>(members.size());
  const std::int64_t total = nw.total_records();
  MemberPieces pieces(members.size());
  std::vector<std::int64_t> short_of(members.size());
  // Members of the part keep their own rows up to their fair share; the
  // rest of their rows, and all rows of the others, are surplus.
  struct Surplus {
    RowRange range;
    int from;
  };
  std::vector<Surplus> surplus;
  std::size_t j = 0;
  for (int gm = 0; gm < p; ++gm) {
    const RowRange seg = nw.member_range(gm);
    std::size_t keep = 0;
    if (j < members.size() && members[j] == gm) {
      const std::int64_t target =
          total / q + (static_cast<std::int64_t>(j) < total % q ? 1 : 0);
      keep = static_cast<std::size_t>(
          std::min<std::int64_t>(static_cast<std::int64_t>(seg.size()),
                                 target));
      if (keep > 0) pieces[j].push_back({seg.begin, seg.begin + keep});
      short_of[j] = target - static_cast<std::int64_t>(keep);
      ++j;
    }
    if (seg.begin + keep < seg.end) {
      surplus.push_back({{seg.begin + keep, seg.end}, gm});
    }
  }
  // The surplus, in member order, fills the shortfalls in member order.
  std::size_t s = 0;
  for (std::size_t lm = 0; lm < members.size(); ++lm) {
    while (short_of[lm] > 0) {
      assert(s < surplus.size());
      Surplus& from = surplus[s];
      const std::size_t take = static_cast<std::size_t>(std::min<std::int64_t>(
          short_of[lm], static_cast<std::int64_t>(from.range.size())));
      pieces[lm].push_back({from.range.begin, from.range.begin + take});
      if (from.from != members[lm]) {
        moved[static_cast<std::size_t>(from.from) * static_cast<std::size_t>(p) +
              static_cast<std::size_t>(members[lm])] +=
            static_cast<std::int64_t>(take);
      }
      from.range.begin += take;
      short_of[lm] -= static_cast<std::int64_t>(take);
      if (from.range.size() == 0) ++s;
    }
  }
  assert(s == surplus.size());
  NodeWork out = regroup(nw, pieces);
  nw.release();
  return out;
}

ParContext::ParContext(const data::Dataset& ds, const ParOptions& opt,
                       mpsim::Machine& machine)
    : ds_(&ds),
      opt_(&opt),
      machine_(&machine),
      mapper_(ds, opt.grow.cont_bins),
      layout_(ds.schema(), opt.grow.cont_bins),
      tree_([&] {
        std::vector<std::int64_t> counts(
            static_cast<std::size_t>(ds.schema().num_classes()), 0);
        for (const std::int32_t label : ds.labels()) {
          ++counts[static_cast<std::size_t>(label)];
        }
        return counts;
      }()) {
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
    opt.obs->attach(machine);
    profiler_ = &opt.obs->profiler();
    split_audit_ = opt.obs->split_audit();
    opt.obs->mem_ledger().set_predicted(mem_predicted_);
  }
  // The audit observes the replicated tree regardless of which wiring
  // requested it (the observability bundle wins over a GrowOptions hook).
  tree_.set_split_observer(split_audit_ != nullptr
                               ? static_cast<dtree::SplitObserver*>(split_audit_)
                               : opt.grow.split_observer);
}

std::vector<std::uint8_t> ParContext::cells_of(
    std::span<const data::RowId> rows) const {
  const std::vector<int>& attrs = layout_.cell_attrs();
  const std::int32_t* labels = ds_->labels().data();
  std::vector<std::uint8_t> cells(rows.size() * attrs.size());
  for (std::size_t k = 0; k < attrs.size(); ++k) {
    std::uint8_t* out = cells.data() + k;
    mapper_.for_each_slot(attrs[k], rows, [&](data::RowId row, int s) {
      *out = static_cast<std::uint8_t>(s * layout_.num_classes() + labels[row]);
      out += attrs.size();
    });
  }
  return cells;
}

NodeWork ParContext::root_node(int members) const {
  data::RowDeal deal =
      data::partition_random(ds_->num_rows(), members, opt_->seed);
  NodeWork root{tree_.root(), std::move(deal.rows), std::move(deal.offsets),
                {}};
  // The root holds every row, so its cells are first built in row-id
  // order, one streaming pass per attribute, then copied into the root's
  // random order: one random read per row instead of one per attribute.
  const std::size_t k_num = layout_.cell_attrs().size();
  if (k_num > 0) {
    std::vector<data::RowId> ids(root.rows.size());
    std::iota(ids.begin(), ids.end(), data::RowId{0});
    const std::vector<std::uint8_t> by_row = cells_of(ids);
    ids = {};
    root.cells.resize(by_row.size());
    for (std::size_t i = 0; i < root.rows.size(); ++i) {
      std::memcpy(&root.cells[i * k_num], &by_row[root.rows[i] * k_num],
                  k_num);
    }
  }
  return root;
}

NodeWork ParContext::initial_root(const mpsim::Group& g) {
  NodeWork root = root_node(g.size());
  // The initial N/P distribution enters the ranks' local stores.
  for (int m = 0; m < g.size(); ++m) {
    mem_records_alloc(g.rank(m), root.member_records(m));
  }
  return root;
}

mpsim::Time ParContext::write_records(mpsim::Rank r, std::int64_t n) {
  const std::int64_t staging = n * record_bytes_;
  machine_->alloc_bytes(r, mpsim::MemTag::Scratch, staging);
  const mpsim::Time t =
      machine_->cost().t_io * static_cast<double>(n) * record_words_;
  machine_->charge_io(r, t);
  machine_->free_bytes(r, mpsim::MemTag::Scratch, staging);
  return t;
}

mpsim::Time ParContext::read_records(mpsim::Rank r, std::int64_t n) {
  const mpsim::Time t =
      machine_->cost().t_io * static_cast<double>(n) * record_words_;
  machine_->charge_io(r, t);
  mem_records_alloc(r, n);
  return t;
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
  // Plan every move as ranges of the nodes' current rows, then rebuild
  // each touched node once. An untouched node has no pieces.
  std::vector<MemberPieces> pieces(frontier.size());
  const auto member_size = [&](std::size_t j, int m) {
    if (pieces[j].empty()) return frontier[j].member_records(m);
    std::int64_t n = 0;
    for (const RowRange& r : pieces[j][static_cast<std::size_t>(m)]) {
      n += static_cast<std::int64_t>(r.size());
    }
    return n;
  };
  for (const mpsim::Transfer& t : transfers) {
    std::int64_t remaining = t.count;
    for (std::size_t j = 0; j < frontier.size() && remaining > 0; ++j) {
      const std::int64_t take =
          std::min(remaining, member_size(j, t.from));
      remaining -= take;
      if (take == 0) continue;
      MemberPieces& mp = pieces[j];
      if (mp.empty()) {
        const NodeWork& nw = frontier[j];
        mp.resize(static_cast<std::size_t>(nw.members()));
        for (int m = 0; m < nw.members(); ++m) {
          if (nw.member_records(m) > 0) {
            mp[static_cast<std::size_t>(m)].push_back(nw.member_range(m));
          }
        }
      }
      // The tail of `from`'s rows moves, in order, to the end of `to`'s.
      auto& src = mp[static_cast<std::size_t>(t.from)];
      auto& dst = mp[static_cast<std::size_t>(t.to)];
      std::vector<RowRange> tail;
      for (auto left = static_cast<std::size_t>(take); left > 0;) {
        RowRange& last = src.back();
        const std::size_t n = std::min(left, last.size());
        tail.push_back({last.end - n, last.end});
        last.end -= n;
        if (last.size() == 0) src.pop_back();
        left -= n;
      }
      dst.insert(dst.end(), tail.rbegin(), tail.rend());
    }
    assert(remaining == 0);
    ctx.move_records(g.rank(t.from), g.rank(t.to), t.count);
  }
  for (std::size_t j = 0; j < frontier.size(); ++j) {
    if (!pieces[j].empty()) frontier[j] = regroup(frontier[j], pieces[j]);
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

  // A node that closes leaves the distributed store with its rows.
  const auto close = [&](NodeWork& nw) {
    for (int m = 0; m < p; ++m) {
      ctx.mem_records_free(g.rank(m), nw.member_records(m));
    }
    nw.release();
  };
  // Nodes at the depth limit close without even being histogrammed.
  std::vector<NodeWork*> work;
  work.reserve(frontier.size());
  for (NodeWork& nw : frontier) {
    if (tree.node(nw.node_id).depth < grow.max_depth) {
      work.push_back(&nw);
    } else {
      close(nw);
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
  // Tag the members with the level they are expanding, so the event log's
  // charges and fault events carry tree-depth context.
  for (int m = 0; m < p; ++m) {
    machine.set_rank_level(g.rank(m), frontier_level);
  }

  for (std::size_t c0 = 0; c0 < work.size(); c0 += static_cast<std::size_t>(buffer_nodes)) {
    const std::size_t c1 =
        std::min(work.size(), c0 + static_cast<std::size_t>(buffer_nodes));
    const std::size_t chunk_nodes = c1 - c0;
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
      fill_tables(ctx, std::span(work).subspan(c0, chunk_nodes), hist);
      // Local histogram construction: each member is charged for its own
      // share of the update work, derived table or not (this is where
      // load imbalance surfaces as idle time at the following collective).
      for (std::size_t i = c0; i < c1; ++i) {
        for (int m = 0; m < p; ++m) {
          const auto rows = static_cast<double>(work[i]->member_records(m));
          if (rows == 0.0) continue;
          machine.charge_compute(g.rank(m), rows * num_attrs);
          // Eq. 1's "I/O scan of the training set": the attribute lists are
          // disk-resident, so every level re-reads each local record once.
          machine.charge_io(g.rank(m), rows * ctx.record_words() * cm.t_io);
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
          member_rows[static_cast<std::size_t>(m)] +=
              static_cast<double>(work[i]->member_records(m));
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
        close(*work[i]);
        continue;
      }
      const int first = tree.expand(work[i]->node_id, d);
      if (dtree::SplitObserver* audit = tree.split_observer()) {
        // Feed counts by *global* rank, taken before the partition below
        // releases the node's rows.
        for (int m = 0; m < p; ++m) {
          const std::int64_t fed = work[i]->member_records(m);
          if (fed > 0) audit->on_feed(work[i]->node_id, g.rank(m), fed);
        }
      }

      for (int m = 0; m < p; ++m) {
        const std::int64_t rows = work[i]->member_records(m);
        if (rows > 0) {
          machine.charge_compute(g.rank(m), static_cast<double>(rows));
        }
      }
      split_rows(ctx, *work[i], d.test, first, node_hist, next);
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
