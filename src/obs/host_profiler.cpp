#include "obs/host_profiler.hpp"

namespace pdt::obs {

HostProfiler::HostProfiler(const PhaseProfiler* stamps, HostClock* clock)
    : stamps_(stamps), clock_(clock != nullptr ? clock : &default_clock_) {}

void HostProfiler::on_transition(PhaseId p, int level) {
  const std::int64_t now = clock_->now_ns();
  if (!started_) {
    started_ = true;
    last_ns_ = now;
    return;
  }
  std::int64_t dt = now - last_ns_;
  if (dt < 0) {
    // A monotonic clock should never step backwards; clamp to zero but
    // leave the evidence on the clamp counter rather than hiding it.
    dt = 0;
    ++clamped_;
  }
  last_ns_ = now;

  const auto pi = static_cast<std::size_t>(p);
  const auto li = static_cast<std::size_t>(level + 1);
  if (pi >= cells_.size()) cells_.resize(pi + 1);
  std::vector<HostTotals>& levels = cells_[pi];
  if (li >= levels.size()) levels.resize(li + 1);
  levels[li].ns += dt;
  ++levels[li].samples;
  total_ns_ += dt;
  ++samples_;
}

std::vector<HostProfiler::Row> HostProfiler::rows() const {
  std::vector<Row> out;
  for (std::size_t p = 0; p < cells_.size(); ++p) {
    for (std::size_t l = 0; l < cells_[p].size(); ++l) {
      if (cells_[p][l].samples == 0) continue;
      out.push_back({static_cast<PhaseId>(p), static_cast<int>(l) - 1,
                     cells_[p][l]});
    }
  }
  return out;
}

HostTotals HostProfiler::phase_totals(PhaseId p, int level,
                                      bool any_level) const {
  HostTotals sum;
  if (static_cast<std::size_t>(p) >= cells_.size()) return sum;
  const std::vector<HostTotals>& levels = cells_[static_cast<std::size_t>(p)];
  for (std::size_t l = 0; l < levels.size(); ++l) {
    if (!any_level && static_cast<int>(l) - 1 != level) continue;
    sum.ns += levels[l].ns;
    sum.samples += levels[l].samples;
  }
  return sum;
}

}  // namespace pdt::obs
