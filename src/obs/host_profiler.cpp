#include "obs/host_profiler.hpp"

#include <algorithm>

namespace pdt::obs {

namespace {

// splitmix64 finalizer, identical to the virtual profiler's cell hash.
std::uint64_t hash64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Key layout mirrors PhaseProfiler::pack so host rows sort and pair with
// virtual rows cell-for-cell.
std::uint64_t pack(PhaseId p, int level, mpsim::Rank r) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p)) << 40) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(level + 1))
          << 20) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(r));
}

}  // namespace

HostProfiler::HostProfiler(const PhaseProfiler* stamps, HostClock* clock,
                           HostProfilerConfig cfg)
    : cfg_(cfg),
      stamps_(stamps),
      clock_(clock != nullptr ? clock : &default_clock_) {
  if (cfg_.counters && counter_group_.open()) counter_group_.start();
}

void HostProfiler::grow_cells() {
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

HostTotals& HostProfiler::cell(PhaseId p, int level, mpsim::Rank r) {
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

void HostProfiler::on_charge(mpsim::Rank r, mpsim::ChargeKind kind) {
  State& s = state_;
  const std::int64_t now = clock_->now_ns();
  if (!s.started) {
    // The first charge only anchors the interval chain: host work before
    // it belongs to setup (dataset generation, machine construction),
    // not to any simulated segment.
    s.started = true;
    s.last_ns = now;
    return;
  }
  std::int64_t dt = now - s.last_ns;
  if (dt < 0) {
    // A monotonic clock should never step backwards; clamp to zero but
    // leave the evidence on the clamp counter rather than hiding it.
    dt = 0;
    ++s.clamped;
  }
  s.last_ns = now;

  s.num_ranks = std::max(s.num_ranks, r + 1);
  const PhaseId p = stamps_ != nullptr ? stamps_->current_phase() : 0;
  const int level = stamps_ != nullptr ? stamps_->current_level() : kNoLevel;
  s.max_level = std::max(s.max_level, level);

  HostTotals& t = cell(p, level, r);
  switch (kind) {
    case mpsim::ChargeKind::Compute: t.compute_ns += dt; break;
    case mpsim::ChargeKind::Comm: t.comm_ns += dt; break;
    case mpsim::ChargeKind::Io: t.io_ns += dt; break;
    case mpsim::ChargeKind::Idle: t.idle_ns += dt; break;
  }
  ++t.samples;
  s.total_ns += dt;
  ++s.samples;
}

std::vector<HostProfiler::Row> HostProfiler::rows() const {
  std::vector<Row> out;
  for_each_cell([&](const Cell& c) {
    Row row;
    row.phase = static_cast<PhaseId>(c.key >> 40);
    row.level = static_cast<int>((c.key >> 20) & 0xFFFFFu) - 1;
    row.rank = static_cast<mpsim::Rank>(c.key & 0xFFFFFu);
    row.totals = c.totals;
    out.push_back(row);
  });
  std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
    if (a.phase != b.phase) return a.phase < b.phase;
    if (a.level != b.level) return a.level < b.level;
    return a.rank < b.rank;
  });
  return out;
}

HostTotals HostProfiler::phase_totals(PhaseId p, int level,
                                      bool any_level) const {
  HostTotals sum;
  for_each_cell([&](const Cell& c) {
    if (static_cast<PhaseId>(c.key >> 40) != p) return;
    const int l = static_cast<int>((c.key >> 20) & 0xFFFFFu) - 1;
    if (!any_level && l != level) return;
    sum += c.totals;
  });
  return sum;
}

HostCounters HostProfiler::counters() const { return counter_group_.read(); }

}  // namespace pdt::obs
