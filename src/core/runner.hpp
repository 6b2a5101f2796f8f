// Experiment runner: build with any formulation and compute speedups
// against the one-processor baseline.
#pragma once

#include <vector>

#include "core/hybrid_tree.hpp"
#include "core/partitioned_tree.hpp"
#include "core/sync_tree.hpp"

namespace pdt::core {

enum class Formulation { Sync, Partitioned, Hybrid };

[[nodiscard]] const char* to_string(Formulation f);

/// Dispatch to the requested formulation.
[[nodiscard]] ParResult build(Formulation f, const data::Dataset& ds,
                              const ParOptions& opt);

/// The serial baseline: the same code path on a 1-processor machine
/// (communication-free by construction), as the paper's speedup
/// denominators are the parallel code run serially.
[[nodiscard]] ParResult build_serial(const data::Dataset& ds,
                                     ParOptions opt);

struct SpeedupPoint {
  int procs = 1;
  double time_us = 0.0;   ///< simulated virtual runtime
  double speedup = 1.0;   ///< serial_time / time
  double efficiency = 1.0;
  ParResult result;
};

/// Run `f` over each processor count, with the 1-processor run as the
/// baseline. Results come back in the order of `procs`.
[[nodiscard]] std::vector<SpeedupPoint> speedup_series(
    Formulation f, const data::Dataset& ds, const ParOptions& base,
    const std::vector<int>& procs);

}  // namespace pdt::core
