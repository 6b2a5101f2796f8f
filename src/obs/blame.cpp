#include "obs/blame.hpp"

#include <algorithm>
#include <array>
#include <map>

namespace pdt::obs {

std::vector<BlameEdge> blame_edges(const mpsim::EventRecorder& rec) {
  const int p = rec.nprocs();
  std::vector<mpsim::Time> clocks(static_cast<std::size_t>(p), 0.0);
  std::vector<int> last_phase(static_cast<std::size_t>(p), 0);
  std::vector<int> last_level(static_cast<std::size_t>(p), -1);
  const auto at = [](std::vector<mpsim::Time>& v, mpsim::Rank r) -> mpsim::Time& {
    return v[static_cast<std::size_t>(r)];
  };

  // (idler, idler_level, holder, holder_phase) -> accumulated idle.
  std::map<std::array<int, 4>, mpsim::Time> acc;
  const auto blame = [&](mpsim::Rank idler, mpsim::Rank holder,
                         int holder_phase, mpsim::Time idle) {
    if (idle <= 0.0) return;
    acc[{idler, last_level[static_cast<std::size_t>(idler)], holder,
         holder_phase}] += idle;
  };

  using Type = mpsim::ExecEvent::Type;
  for (const mpsim::ExecEvent& e : rec.events()) {
    switch (e.type) {
      case Type::Charge: {
        at(clocks, e.rank) += e.dt_us;
        last_phase[static_cast<std::size_t>(e.rank)] = e.phase;
        last_level[static_cast<std::size_t>(e.rank)] = e.level;
        break;
      }
      case Type::Barrier: {
        mpsim::Time horizon = 0.0;
        for (const mpsim::Rank r : e.members) {
          horizon = std::max(horizon, at(clocks, r));
        }
        // Machine's tie rule: the first member at the horizon holds it.
        mpsim::Rank holder = e.members.empty() ? 0 : e.members.front();
        for (const mpsim::Rank r : e.members) {
          if (at(clocks, r) == horizon) {
            holder = r;
            break;
          }
        }
        for (const mpsim::Rank r : e.members) {
          if (r != holder) {
            blame(r, holder, last_phase[static_cast<std::size_t>(holder)],
                  horizon - at(clocks, r));
          }
          at(clocks, r) = horizon;
        }
        break;
      }
      case Type::Timeout: {
        mpsim::Time horizon = 0.0;
        for (const mpsim::Rank r : e.members) {
          horizon = std::max(horizon, at(clocks, r));
        }
        const mpsim::Time deadline = horizon + rec.cost().t_timeout;
        for (const mpsim::Rank r : e.members) {
          blame(r, e.rank, kRankFailurePhase, deadline - at(clocks, r));
          at(clocks, r) = deadline;
        }
        break;
      }
      case Type::Retry: {
        // A failed collective attempt: every member waits out the
        // backed-off detection window, blamed on the faulty rank (the
        // arithmetic of Machine::admit_collective and pdt-replay).
        mpsim::Time horizon = 0.0;
        for (const mpsim::Rank r : e.members) {
          horizon = std::max(horizon, at(clocks, r));
        }
        const mpsim::Time deadline = horizon + rec.cost().t_timeout * e.mult;
        for (const mpsim::Rank r : e.members) {
          blame(r, e.rank, kRankFailurePhase, deadline - at(clocks, r));
          at(clocks, r) = deadline;
        }
        break;
      }
      case Type::Wait: {
        // Absolute-time wait: no holder identity to blame.
        if (e.until_us > at(clocks, e.rank)) at(clocks, e.rank) = e.until_us;
        break;
      }
      case Type::WaitFor: {
        const mpsim::Time target = at(clocks, e.peer);
        blame(e.rank, e.peer, last_phase[static_cast<std::size_t>(e.peer)],
              target - at(clocks, e.rank));
        if (target > at(clocks, e.rank)) at(clocks, e.rank) = target;
        break;
      }
      case Type::Collective:
        break;  // annotation only — no clock effect
    }
  }

  std::vector<BlameEdge> out;
  out.reserve(acc.size());
  for (const auto& [key, idle] : acc) {
    BlameEdge edge;
    edge.idler = key[0];
    edge.idler_level = key[1];
    edge.holder = key[2];
    edge.holder_phase = key[3];
    edge.idle_us = idle;
    const mpsim::Time total = at(clocks, edge.idler);
    edge.idle_pct = total > 0.0 ? 100.0 * idle / total : 0.0;
    out.push_back(edge);
  }
  std::sort(out.begin(), out.end(), [](const BlameEdge& a, const BlameEdge& b) {
    if (a.idle_us != b.idle_us) return a.idle_us > b.idle_us;
    if (a.idler != b.idler) return a.idler < b.idler;
    if (a.holder != b.holder) return a.holder < b.holder;
    if (a.idler_level != b.idler_level) return a.idler_level < b.idler_level;
    return a.holder_phase < b.holder_phase;
  });
  return out;
}

}  // namespace pdt::obs
