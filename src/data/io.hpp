// CSV import/export for datasets.
//
// Format: a first header line `name:type[:cardinality[:o]]` per attribute
// plus a final `class:cat:<k>` column; then one row per record. Categorical
// values are stored as integer ids. The loader reconstructs the schema from
// the header, so save -> load round-trips exactly (tests enforce this).
#pragma once

#include <iosfwd>
#include <string>

#include "data/dataset.hpp"

namespace pdt::data {

void save_csv(const Dataset& ds, std::ostream& out);
void save_csv_file(const Dataset& ds, const std::string& path);

/// Throws std::runtime_error on malformed input, and std::invalid_argument
/// naming the file line when a value fails Dataset's checks (a label or
/// category out of range, a NaN or infinite continuous value).
[[nodiscard]] Dataset load_csv(std::istream& in);
[[nodiscard]] Dataset load_csv_file(const std::string& path);

}  // namespace pdt::data
