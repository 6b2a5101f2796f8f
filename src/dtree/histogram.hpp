// Class-distribution histograms.
//
// The flat per-node histogram (AttrLayout) is what Hunt's method evaluates
// split tests from and what the parallel formulations globally reduce
// (Section 3.1 step 2-3). Also provides the human-readable distribution
// tables of the paper's Tables 2 and 3.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/partition.hpp"
#include "dtree/slots.hpp"

namespace pdt::dtree {

using Hist = std::vector<std::int64_t>;

/// Add `rows` of the mapper's dataset into the flat histogram `h`
/// (length layout.total()).
void accumulate(std::span<std::int64_t> h, const AttrLayout& layout,
                const SlotMapper& mapper, std::span<const data::RowId> rows);

/// Add attribute `attr` of `rows` into its own table `table` (length
/// layout.slots(attr) * C), gathering slot and label through each RowId.
void accumulate_attr(std::span<std::int64_t> table, const AttrLayout& layout,
                     const SlotMapper& mapper, int attr,
                     std::span<const data::RowId> rows);

/// Add row-major byte cells into the flat histogram `h` (length
/// layout.total()): `cells` holds K = layout.cell_attrs().size() bytes per
/// row, byte k being slot * C + label of attribute cell_attrs()[k]. The
/// stream is counted into two sets of uint32 sub-tables (even and odd
/// rows, so equal neighbours do not serialize on one counter) kept in
/// `scratch`, then folded into `h`; the counts are exact. Tables of
/// attributes without cells are left alone.
void accumulate_cells(std::span<std::int64_t> h, const AttrLayout& layout,
                      std::span<const std::uint8_t> cells,
                      std::vector<std::uint32_t>& scratch);

/// Per-class totals recovered from a flat histogram (sums attribute 0's
/// table; every attribute's table has the same class marginals).
[[nodiscard]] std::vector<std::int64_t> class_counts(
    std::span<const std::int64_t> h, const AttrLayout& layout);

/// Class counts computed directly from rows.
[[nodiscard]] std::vector<std::int64_t> class_counts_of_rows(
    const data::Dataset& ds, std::span<const data::RowId> rows);

/// Table-2 style: per-value class counts of a categorical attribute over
/// `rows`. Result is cardinality x num_classes, row-major.
[[nodiscard]] std::vector<std::int64_t> categorical_distribution(
    const data::Dataset& ds, std::span<const data::RowId> rows, int attr);

/// Table-3 style: for each distinct value v of a continuous attribute, the
/// class counts of the binary tests (<= v) and (> v).
struct BinaryTestRow {
  double value = 0.0;
  std::vector<std::int64_t> le;  ///< class counts with attr <= value
  std::vector<std::int64_t> gt;  ///< class counts with attr >  value
};
[[nodiscard]] std::vector<BinaryTestRow> continuous_binary_distribution(
    const data::Dataset& ds, std::span<const data::RowId> rows, int attr);

/// Render a Table-2 style distribution as text (for the quickstart).
[[nodiscard]] std::string format_categorical_distribution(
    const data::Dataset& ds, std::span<const std::int64_t> table, int attr);
[[nodiscard]] std::string format_binary_distribution(
    const data::Dataset& ds, const std::vector<BinaryTestRow>& rows, int attr);

}  // namespace pdt::dtree
