// Slot mapping: a uniform finite-domain view of every attribute.
//
// Histogram-based tree construction (SLIQ/SPRINT/ScalParC and this paper)
// reduces each attribute to a finite set of "slots" whose class
// distribution is what processors exchange:
//   * a categorical attribute's slots are its values (the paper's M
//     distinct values per discrete attribute);
//   * a continuous attribute's slots are micro-bins over its global range
//     (the histogram the per-node discretizers of Section 3.4 consume).
//
// A categorical slot is the stored value. A continuous slot is computed
// once, when the SlotMapper is built, by data::UniformBins::bin (an exact
// O(1) equal-width guess corrected over the same cut points a binary
// search would use) and kept in a uint8 column per continuous attribute,
// so every slot is the one the lookup would return and every tree stays
// the same. SlotMapper::for_each_slot resolves one attribute's column
// once and then runs a plain gather over the rows, for both kinds.
//
// Byte cells. Where slots x classes <= 256, slot * C + label fits in one
// byte: the attribute's *cell*. AttrLayout::cell_attrs() lists those
// attributes; in the paper's configurations that is every attribute
// (bins <= 20, `car` has 20 values, cont_bins 32, C = 2). The parallel
// formulations and baselines store one cell per row and cell attribute
// next to every frontier node's rows, in node order, and split them with
// the rows as the node is partitioned -- SPRINT's per-node split of the
// attribute lists (Section 3) applied to histogram cells. Accumulation
// then streams a node's own cells (dtree::accumulate_cells) instead of
// gathering two columns per update through a RowId. The gather over the
// slot columns builds the cells of the root and of a frontier loaded from
// a checkpoint, and serves every attribute whose slots x C pass 256.
//
// The columns cost 1 byte x rows x continuous attributes for as long as a
// build holds its mapper: 4.8 MB at 0.8M Quest rows. Binned data, where
// every attribute is categorical, has no column. The cells cost 1 byte
// per row and cell attribute while the row is in the frontier (9 bytes
// per Quest row, next to its 4-byte row id). A byte caps cont_bins at
// 256; the constructor rejects anything outside [2, 256].
//
// AttrLayout packs all per-attribute class-distribution tables for one
// tree node into a single flat buffer of int64 counts — this buffer is the
// unit of communication in all three parallel formulations (size
// C * A_d * M in the paper's notation).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "data/discretize.hpp"
#include "data/partition.hpp"

namespace pdt::dtree {

/// Where each attribute's (slots x classes) table lives inside the flat
/// per-node histogram buffer.
class AttrLayout {
 public:
  AttrLayout() = default;
  /// `cont_bins` micro-bins per continuous attribute. Throws
  /// std::invalid_argument, naming the attribute, once the buffer would
  /// pass INT_MAX entries.
  AttrLayout(const data::Schema& schema, int cont_bins);

  [[nodiscard]] int num_attributes() const {
    return static_cast<int>(slots_.size());
  }
  [[nodiscard]] int num_classes() const { return num_classes_; }
  [[nodiscard]] int slots(int attr) const {
    return slots_[static_cast<std::size_t>(attr)];
  }
  [[nodiscard]] int offset(int attr) const {
    return offsets_[static_cast<std::size_t>(attr)];
  }
  /// Total buffer length in int64 entries ("words" of the cost analysis
  /// are 4-byte; one entry = 2 words).
  [[nodiscard]] int total() const { return total_; }

  /// Resident bytes of the flat count buffer for `nodes` tree nodes —
  /// the O(attrs * bins * classes) histogram term of the Section-4
  /// memory analysis (counts are held as int64 entries).
  [[nodiscard]] std::int64_t table_bytes(std::int64_t nodes = 1) const {
    return nodes * static_cast<std::int64_t>(total_) *
           static_cast<std::int64_t>(sizeof(std::int64_t));
  }

  [[nodiscard]] int index(int attr, int slot, int cls) const {
    return offset(attr) + slot * num_classes_ + cls;
  }

  /// Attributes whose slot * C + label fits a byte cell (slots x classes
  /// <= 256), ascending.
  [[nodiscard]] const std::vector<int>& cell_attrs() const {
    return cell_attrs_;
  }
  /// Position of `attr` in cell_attrs(), or -1 when it has no cell.
  [[nodiscard]] int cell_of(int attr) const {
    return cell_of_[static_cast<std::size_t>(attr)];
  }

 private:
  std::vector<int> slots_;
  std::vector<int> offsets_;
  std::vector<int> cell_attrs_;
  std::vector<int> cell_of_;
  int num_classes_ = 0;
  int total_ = 0;
};

/// Maps (attribute, row) -> slot id. For continuous attributes the slots
/// are `cont_bins` equal-width micro-bins over the attribute's global
/// [min, max]; boundaries are fixed once per training run so that every
/// processor maps rows identically.
class SlotMapper {
 public:
  SlotMapper() = default;
  /// Bins every continuous column into its slot column. Throws
  /// std::invalid_argument on an empty dataset, or unless
  /// 2 <= cont_bins <= 256.
  SlotMapper(const data::Dataset& ds, int cont_bins);

  [[nodiscard]] int cont_bins() const { return cont_bins_; }

  /// Call f(row, slot) for each row of `rows`, in order. The attribute's
  /// column is looked up once, not per row.
  template <class F>
  void for_each_slot(int attr, std::span<const data::RowId> rows,
                     F&& f) const {
    if (ds_->schema().attr(attr).is_categorical()) {
      gather(ds_->cat_column(attr).data(), rows, f);
    } else {
      gather(slot_cols_[static_cast<std::size_t>(attr)].data(), rows, f);
    }
  }

  /// Slot of a raw continuous value.
  [[nodiscard]] int slot_of_value(int attr, double v) const {
    return bins_[static_cast<std::size_t>(attr)].bin(v);
  }

  /// The real-valued boundary between slot `s` and slot `s+1` of a
  /// continuous attribute (used to record thresholds in the tree).
  [[nodiscard]] double boundary(int attr, int s) const {
    return boundaries(attr)[static_cast<std::size_t>(s)];
  }

  /// All interior boundaries of a continuous attribute.
  [[nodiscard]] const std::vector<double>& boundaries(int attr) const {
    return bins_[static_cast<std::size_t>(attr)].cuts();
  }

  /// Center value of a micro-bin (used by the per-node discretizers).
  [[nodiscard]] double bin_center(int attr, int s) const;

  [[nodiscard]] const data::Dataset& dataset() const { return *ds_; }

 private:
  const data::Dataset* ds_ = nullptr;
  int cont_bins_ = 0;
  std::vector<data::UniformBins> bins_;  // no cuts for categorical attrs
  std::vector<std::vector<std::uint8_t>> slot_cols_;  // empty if categorical

  template <class T, class F>
  static void gather(const T* col, std::span<const data::RowId> rows, F& f) {
    for (const data::RowId row : rows) f(row, static_cast<int>(col[row]));
  }
};

}  // namespace pdt::dtree
