#include "data/partition.hpp"

#include <cassert>
#include <numeric>

#include "data/rng.hpp"

namespace pdt::data {

RowDeal partition_random(std::size_t num_rows, int nprocs,
                         std::uint64_t seed) {
  assert(nprocs >= 1);
  std::vector<RowId> perm(num_rows);
  std::iota(perm.begin(), perm.end(), RowId{0});
  Rng rng(seed);
  // Fisher-Yates with our deterministic generator.
  for (std::size_t i = num_rows; i > 1; --i) {
    const std::size_t j =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(perm[i - 1], perm[j]);
  }
  const auto p = static_cast<std::size_t>(nprocs);
  RowDeal deal{{}, {0}};
  deal.rows.reserve(num_rows);
  for (std::size_t m = 0; m < p; ++m) {
    for (std::size_t i = m; i < num_rows; i += p) deal.rows.push_back(perm[i]);
    deal.offsets.push_back(static_cast<std::uint32_t>(deal.rows.size()));
  }
  return deal;
}

}  // namespace pdt::data
