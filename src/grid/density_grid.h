#ifndef NWC_GRID_DENSITY_GRID_H_
#define NWC_GRID_DENSITY_GRID_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/point.h"
#include "geometry/rect.h"

namespace nwc {

/// Mutable per-cell object counts over a fixed cell geometry: the writer
/// side of a dynamic density grid (paper extension — the evaluation
/// assumes static data). OnInsert()/OnRemove() are O(1); a DensityGrid is
/// published from the counts in one pass.
///
/// The data space is divided into square cells of side `cell_size`, with
/// max(length, width) / cell_size cells per axis (rounded up). Cell
/// membership is half-open ([min, min+cell) per axis, with the last
/// row/column closed) so each object is counted exactly once. Objects
/// outside the space clamp to the boundary cells.
///
/// ThreadSafety: not thread-safe; one writer at a time.
class DensityCounts {
 public:
  DensityCounts(const Rect& space, double cell_size, const std::vector<DataObject>& objects);

  /// Records an object inserted at `p`.
  void OnInsert(const Point& p);

  /// Records the removal of an object at `p`. Removing from an empty cell
  /// is a caller bug and asserts in debug builds.
  void OnRemove(const Point& p);

  /// Total objects counted.
  uint64_t total_count() const { return total_count_; }

 private:
  friend class DensityGrid;

  size_t CellOf(const Point& p) const;

  Rect space_;
  double cell_size_;
  size_t cells_per_axis_;
  uint64_t total_count_ = 0;
  // Row-major counts; kept 32-bit in memory (the 2-byte figure is the
  // paper's on-disk accounting, reported by DensityGrid::StorageBytes()).
  std::vector<uint32_t> counts_;
};

/// The density grid backing the DEP optimization (paper Sec. 3.3.3).
///
/// The data space is divided into square cells of a configurable side
/// length (the paper's "grid size"; default 25 over the 10,000-unit space,
/// giving 400 x 400 = 160,000 cells); each cell stores the number of
/// objects inside it (see DensityCounts for the cell geometry).
/// CountUpperBound() implements Algorithm 2's bound: the sum of the counts
/// of every cell intersecting a rectangle, which upper-bounds the number
/// of objects the rectangle can contain. DEP prunes an index node /
/// cancels a window query when the bound for its (extended) rectangle is
/// below the query's n. The intersection test in CountUpperBound is
/// closed, preserving the bound's soundness for objects on cell
/// boundaries.
///
/// A grid is immutable: it stores only the 2-D prefix sums of the counts
/// it was built from. A dynamic deployment keeps a DensityCounts and
/// publishes a fresh grid from it (SnapshotStore does this per epoch).
///
/// ThreadSafety: every member is const and touches no mutable state, so
/// any number of threads may query one grid concurrently.
class DensityGrid {
 public:
  /// Builds a grid over `space` (typically the dataset bounds or the
  /// normalized 10,000-unit square) with cells of side `cell_size`,
  /// counting `objects`. Objects outside `space` are clamped to the
  /// boundary cells so the bound stays sound for them too.
  DensityGrid(const Rect& space, double cell_size, const std::vector<DataObject>& objects);

  /// Publishes `counts`: writes their prefix sums in one pass over the
  /// cells. At most 2^32 - 1 objects may be counted.
  explicit DensityGrid(const DensityCounts& counts);

  /// Upper bound on the number of objects within `rect`: the count-sum of
  /// all cells intersecting it (Algorithm 2). Rectangles outside the grid
  /// clamp to the boundary cells (every object is in some cell).
  uint64_t CountUpperBound(const Rect& rect) const;

  /// Exact count of objects assigned to the cell holding `p` (for tests).
  uint32_t CellCount(const Point& p) const;

  /// Number of cells per axis.
  size_t cells_per_axis() const { return cells_per_axis_; }

  /// Configured cell side length.
  double cell_size() const { return cell_size_; }

  /// Total objects counted.
  uint64_t total_count() const { return total_count_; }

  /// Storage overhead under the paper's accounting (Sec. 5.2: one short
  /// integer, i.e. 2 bytes, per cell).
  size_t StorageBytes() const { return cells_per_axis_ * cells_per_axis_ * 2; }

 private:
  /// Sum of the counts of cells [x0, x1] x [y0, y1] (inclusive).
  uint32_t SumCells(size_t x0, size_t y0, size_t x1, size_t y1) const;

  Rect space_;
  double cell_size_;
  size_t cells_per_axis_;
  uint64_t total_count_ = 0;
  // 2-D prefix sums with a zero row/column of padding:
  // prefix_[(y+1)*(n+1) + (x+1)] = sum of counts[0..y][0..x]. They make
  // CountUpperBound O(1) instead of O(cells in rect); an implementation
  // refinement that does not change the bound. 32 bits suffice because no
  // sum exceeds the total count.
  std::vector<uint32_t> prefix_;
};

}  // namespace nwc

#endif  // NWC_GRID_DENSITY_GRID_H_
