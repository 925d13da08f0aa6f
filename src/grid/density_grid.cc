#include "grid/density_grid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace nwc {

namespace {

// Cell index along one axis under half-open membership, clamped to the
// boundary cells.
size_t CellIndexFor(double coord, double space_min, double cell_size, size_t cells) {
  const double offset = (coord - space_min) / cell_size;
  if (offset <= 0.0) return 0;
  size_t index = static_cast<size_t>(offset);
  if (index >= cells) index = cells - 1;
  return index;
}

// One prefix row: out[x] = above[x] + row[0] + ... + row[x]. The three
// rows never overlap; saying so lets the compiler keep the running sum in
// a register instead of reloading around every store.
void PrefixRow(const uint32_t* __restrict row, const uint32_t* __restrict above,
               uint32_t* __restrict out, size_t n) {
  uint32_t running = 0;
  for (size_t x = 0; x < n; ++x) {
    running += row[x];
    out[x] = above[x] + running;
  }
}

}  // namespace

DensityCounts::DensityCounts(const Rect& space, double cell_size,
                             const std::vector<DataObject>& objects)
    : space_(space), cell_size_(cell_size) {
  assert(cell_size > 0.0 && !space.IsEmpty());
  const double extent = std::max(space.length(), space.width());
  cells_per_axis_ = std::max<size_t>(1, static_cast<size_t>(std::ceil(extent / cell_size)));
  counts_.assign(cells_per_axis_ * cells_per_axis_, 0);
  for (const DataObject& obj : objects) OnInsert(obj.pos);
}

size_t DensityCounts::CellOf(const Point& p) const {
  const size_t cx = CellIndexFor(p.x, space_.min_x, cell_size_, cells_per_axis_);
  const size_t cy = CellIndexFor(p.y, space_.min_y, cell_size_, cells_per_axis_);
  return cy * cells_per_axis_ + cx;
}

void DensityCounts::OnInsert(const Point& p) {
  ++counts_[CellOf(p)];
  ++total_count_;
}

void DensityCounts::OnRemove(const Point& p) {
  uint32_t& cell = counts_[CellOf(p)];
  assert(cell > 0 && "removing an object from an empty cell");
  if (cell > 0) {
    --cell;
    --total_count_;
  }
}

DensityGrid::DensityGrid(const Rect& space, double cell_size,
                         const std::vector<DataObject>& objects)
    : DensityGrid(DensityCounts(space, cell_size, objects)) {}

DensityGrid::DensityGrid(const DensityCounts& counts)
    : space_(counts.space_),
      cell_size_(counts.cell_size_),
      cells_per_axis_(counts.cells_per_axis_),
      total_count_(counts.total_count_) {
  assert(total_count_ <= std::numeric_limits<uint32_t>::max());
  const size_t n = cells_per_axis_;
  const size_t stride = n + 1;
  prefix_.resize(stride * stride);
  for (size_t y = 0; y < n; ++y) {
    PrefixRow(counts.counts_.data() + y * n, prefix_.data() + y * stride + 1,
              prefix_.data() + (y + 1) * stride + 1, n);
  }
}

uint32_t DensityGrid::SumCells(size_t x0, size_t y0, size_t x1, size_t y1) const {
  // Unsigned wrap-around cancels: the true sum fits in 32 bits.
  const size_t stride = cells_per_axis_ + 1;
  return prefix_[(y1 + 1) * stride + (x1 + 1)] - prefix_[y0 * stride + (x1 + 1)] -
         prefix_[(y1 + 1) * stride + x0] + prefix_[y0 * stride + x0];
}

uint64_t DensityGrid::CountUpperBound(const Rect& rect) const {
  if (rect.IsEmpty()) return 0;
  // Cells intersecting [rect.min, rect.max] under closed intersection:
  // every cell whose closed extent touches the rect. A cell c spans
  // [min + c*s, min + (c+1)*s]; it intersects when c*s <= rect.max-min and
  // (c+1)*s >= rect.min-min.
  const size_t n = cells_per_axis_;
  const auto first_cell = [&](double lo, double space_min) -> size_t {
    const double offset = (lo - space_min) / cell_size_;
    if (offset <= 0.0) return 0;
    // Largest c with (c+1)*s >= lo-min, i.e. c >= offset-1; boundary-
    // touching cells count (closed intersection).
    double c = std::ceil(offset - 1.0);
    if (c < 0.0) c = 0.0;
    const size_t idx = static_cast<size_t>(c);
    return std::min(idx, n - 1);
  };
  const auto last_cell = [&](double hi, double space_min) -> size_t {
    const double offset = (hi - space_min) / cell_size_;
    if (offset < 0.0) return 0;
    const size_t idx = static_cast<size_t>(std::floor(offset));
    return std::min(idx, n - 1);
  };

  const size_t x0 = first_cell(rect.min_x, space_.min_x);
  const size_t x1 = last_cell(rect.max_x, space_.min_x);
  const size_t y0 = first_cell(rect.min_y, space_.min_y);
  const size_t y1 = last_cell(rect.max_y, space_.min_y);
  if (x1 < x0 || y1 < y0) return 0;
  return SumCells(x0, y0, x1, y1);
}

uint32_t DensityGrid::CellCount(const Point& p) const {
  const size_t cx = CellIndexFor(p.x, space_.min_x, cell_size_, cells_per_axis_);
  const size_t cy = CellIndexFor(p.y, space_.min_y, cell_size_, cells_per_axis_);
  return SumCells(cx, cy, cx, cy);
}

}  // namespace nwc
