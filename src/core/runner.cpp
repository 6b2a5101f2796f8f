#include "core/runner.hpp"

namespace pdt::core {

const char* to_string(Formulation f) {
  switch (f) {
    case Formulation::Sync: return "synchronous";
    case Formulation::Partitioned: return "partitioned";
    case Formulation::Hybrid: return "hybrid";
  }
  return "?";
}

ParResult build(Formulation f, const data::Dataset& ds,
                const ParOptions& opt) {
  switch (f) {
    case Formulation::Sync: return build_sync(ds, opt);
    case Formulation::Partitioned: return build_partitioned(ds, opt);
    case Formulation::Hybrid: return build_hybrid(ds, opt);
  }
  return build_sync(ds, opt);
}

ParResult build_serial(const data::Dataset& ds, ParOptions opt) {
  opt.num_procs = 1;
  return build_sync(ds, opt);
}

std::vector<SpeedupPoint> speedup_series(Formulation f,
                                         const data::Dataset& ds,
                                         const ParOptions& base,
                                         const std::vector<int>& procs) {
  const ParResult serial = build_serial(ds, base);
  std::vector<SpeedupPoint> out;
  out.reserve(procs.size());
  for (const int p : procs) {
    SpeedupPoint pt;
    pt.procs = p;
    if (p == 1) {
      pt.time_us = serial.parallel_time;
      pt.result = serial;  // copy; serial reused as baseline
    } else {
      ParOptions opt = base;
      opt.num_procs = p;
      pt.result = build(f, ds, opt);
      pt.time_us = pt.result.parallel_time;
    }
    pt.speedup = serial.parallel_time / pt.time_us;
    pt.efficiency = pt.speedup / p;
    out.push_back(std::move(pt));
  }
  return out;
}

}  // namespace pdt::core
