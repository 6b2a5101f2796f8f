#include "obs/phase.hpp"

#include <algorithm>
#include <cassert>

#include "mpsim/event_log.hpp"
#include "obs/host_profiler.hpp"

namespace pdt::obs {

namespace {

std::uint64_t hash64(std::uint64_t x) {
  // splitmix64 finalizer — cheap and well-distributed for packed keys.
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

PhaseProfiler::PhaseProfiler(ProfilerConfig cfg) : cfg_(cfg) {
  names_.emplace_back("(unattributed)");
}

PhaseId PhaseProfiler::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<PhaseId>(i);
  }
  names_.emplace_back(name);
  return static_cast<PhaseId>(names_.size() - 1);
}

void PhaseProfiler::open(std::string_view name) {
  if (host_ != nullptr) host_->on_transition(current_phase(), state_.level);
  state_.stack.push_back(intern(name));
  if (sink_ != nullptr) sink_->open_phase(name);
}

void PhaseProfiler::close() {
  if (host_ != nullptr) host_->on_transition(current_phase(), state_.level);
  if (!state_.stack.empty()) state_.stack.pop_back();
  if (sink_ != nullptr) sink_->close_phase();
}

int PhaseProfiler::set_level(int level) {
  if (host_ != nullptr) host_->on_transition(current_phase(), state_.level);
  const int prev = state_.level;
  state_.level = level;
  state_.max_level = std::max(state_.max_level, level);
  return prev;
}

void PhaseProfiler::grow_cells() {
  State& s = state_;
  std::vector<Cell> bigger(s.cells.size() * 2);
  for (const Cell& c : s.cells) {
    if (c.key == ~0ull) continue;
    std::size_t i = hash64(c.key) & (bigger.size() - 1);
    while (bigger[i].key != ~0ull) i = (i + 1) & (bigger.size() - 1);
    bigger[i] = c;
  }
  s.cells = std::move(bigger);
  s.last_hit = static_cast<std::size_t>(-1);
}

PhaseTotals& PhaseProfiler::cell(PhaseId p, int level, mpsim::Rank r) {
  State& s = state_;
  const std::uint64_t key = pack(p, level, r);
  if (s.last_hit != static_cast<std::size_t>(-1) &&
      s.cells[s.last_hit].key == key) {
    return s.cells[s.last_hit].totals;
  }
  if (s.cells_used * 2 >= s.cells.size()) grow_cells();
  std::size_t i = hash64(key) & (s.cells.size() - 1);
  while (s.cells[i].key != ~0ull && s.cells[i].key != key) {
    i = (i + 1) & (s.cells.size() - 1);
  }
  if (s.cells[i].key == ~0ull) {
    s.cells[i].key = key;
    ++s.cells_used;
  }
  s.last_hit = i;
  return s.cells[i].totals;
}

void PhaseProfiler::on_charge(mpsim::Rank r, mpsim::ChargeKind kind,
                              mpsim::Time start, mpsim::Time dt,
                              double words_sent, double words_received) {
  State& s = state_;
  s.num_ranks = std::max(s.num_ranks, r + 1);
  const PhaseId p = current_phase();
  PhaseTotals& t = cell(p, s.level, r);
  switch (kind) {
    case mpsim::ChargeKind::Compute: t.compute += dt; break;
    case mpsim::ChargeKind::Comm: t.comm += dt; break;
    case mpsim::ChargeKind::Io: t.io += dt; break;
    case mpsim::ChargeKind::Idle: t.idle += dt; break;
  }
  t.words_sent += words_sent;
  t.words_received += words_received;
  ++t.charges;

  if (!cfg_.timeline) return;
  if (static_cast<std::size_t>(r) >= last_slice_.size()) {
    last_slice_.resize(static_cast<std::size_t>(r) + 1, -1);
  }
  // Coalesce with the rank's previous slice when the timeline is gapless
  // and the attribution is unchanged.
  const std::ptrdiff_t li = last_slice_[static_cast<std::size_t>(r)];
  if (li >= 0) {
    Slice& last = slices_[static_cast<std::size_t>(li)];
    if (last.phase == p && last.level == s.level && last.kind == kind &&
        last.start + last.dur == start) {
      last.dur += dt;
      return;
    }
  }
  if (dt == 0.0) return;  // zero-width slice that cannot extend anything
  if (slices_.size() >= cfg_.max_slices) {
    truncated_ = true;
    return;
  }
  last_slice_[static_cast<std::size_t>(r)] =
      static_cast<std::ptrdiff_t>(slices_.size());
  slices_.push_back(Slice{r, start, dt, p, s.level, kind});
}

std::vector<PhaseProfiler::Row> PhaseProfiler::rows() const {
  std::vector<Row> out;
  for_each_cell([&](const Cell& c) {
    Row row;
    row.phase = static_cast<PhaseId>(c.key >> 40);
    row.level = static_cast<int>((c.key >> 20) & 0xFFFFFu) - 1;
    row.rank = static_cast<mpsim::Rank>(c.key & 0xFFFFFu);
    row.totals = c.totals;
    out.push_back(row);
  });
  // Keys are unique, so the (phase, level, rank) sort is a total order.
  std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
    if (a.phase != b.phase) return a.phase < b.phase;
    if (a.level != b.level) return a.level < b.level;
    return a.rank < b.rank;
  });
  return out;
}

PhaseTotals PhaseProfiler::phase_totals(PhaseId p, int level,
                                        bool any_level) const {
  PhaseTotals sum;
  for_each_cell([&](const Cell& c) {
    if (static_cast<PhaseId>(c.key >> 40) != p) return;
    const int l = static_cast<int>((c.key >> 20) & 0xFFFFFu) - 1;
    if (!any_level && l != level) return;
    sum += c.totals;
  });
  return sum;
}

std::vector<PhaseTotals> PhaseProfiler::level_rank_totals(
    int level, bool any_level) const {
  std::vector<PhaseTotals> out(static_cast<std::size_t>(num_ranks()));
  for_each_cell([&](const Cell& c) {
    const int l = static_cast<int>((c.key >> 20) & 0xFFFFFu) - 1;
    if (!any_level && l != level) return;
    out[c.key & 0xFFFFFu] += c.totals;
  });
  return out;
}

double PhaseProfiler::load_imbalance(int level) const {
  const std::vector<PhaseTotals> per_rank = level_rank_totals(level);
  mpsim::Time max = 0.0;
  mpsim::Time sum = 0.0;
  int active = 0;
  for (const PhaseTotals& t : per_rank) {
    const mpsim::Time busy = t.busy();
    if (busy <= 0.0 && t.idle <= 0.0) continue;
    max = std::max(max, busy);
    sum += busy;
    ++active;
  }
  if (active == 0 || sum <= 0.0) return 0.0;
  return max / (sum / active);
}

}  // namespace pdt::obs
