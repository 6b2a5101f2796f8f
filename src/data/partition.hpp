// Distribution of training records over the P simulated processors.
//
// All parallel formulations assume "N training cases are randomly
// distributed to P processors initially such that each processor has N/P
// cases" (Section 3). The deal comes back in the layout the formulations
// store a tree node's rows in: one row array plus P + 1 offsets (CSR).
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"

namespace pdt::data {

using RowId = std::uint32_t;

/// Rows dealt over processors: processor p owns rows[offsets[p],
/// offsets[p + 1]).
struct RowDeal {
  std::vector<RowId> rows;
  std::vector<std::uint32_t> offsets;
};

/// Random (seeded) permutation dealt round-robin -- the paper's random
/// initial distribution. Processor p gets permutation entries p, p + P,
/// p + 2P, ... in that order, floor/ceil(N/P) rows in all.
[[nodiscard]] RowDeal partition_random(std::size_t num_rows, int nprocs,
                                       std::uint64_t seed);

}  // namespace pdt::data
