// Decomposition of an activation's blocked dimensions (batch + spatial,
// never channels — §3.2) into a grid of fixed-size bricks. Partial bricks at
// the boundary are masked with zeros (§3.3.4).
#pragma once

#include <algorithm>

#include "tensor/shape.hpp"

namespace brickdl {

struct BrickGrid {
  Dims blocked;  ///< extents of the blocked dims: [N, spatial...]
  Dims brick;    ///< brick extent along each blocked dim
  Dims grid;     ///< number of bricks along each blocked dim (ceil division)

  BrickGrid() = default;
  BrickGrid(const Dims& blocked_dims, const Dims& brick_extents);

  int rank() const { return blocked.rank(); }
  i64 num_bricks() const { return grid.product(); }
  i64 brick_elements() const { return brick.product(); }

  /// Grid coordinate of the brick containing a blocked-space point.
  Dims brick_of(const Dims& blocked_index) const;
  /// First blocked-space point covered by grid coordinate `g`.
  Dims brick_origin(const Dims& g) const;
  /// Extent of the valid (unmasked) region of brick `g`; equals `brick`
  /// except for boundary bricks of a non-multiple layer size.
  Dims valid_extent(const Dims& g) const;
  /// Origin and valid extent of the brick with row-major index `brick`.
  void brick_window(i64 brick, Dims* lo, Dims* extent) const;
  /// Whether the window [lo, lo+extent) lies wholly inside [0, blocked).
  bool contains(const Dims& lo, const Dims& extent) const;

  bool operator==(const BrickGrid& other) const {
    return blocked == other.blocked && brick == other.brick;
  }
};

/// Visit the in-bounds part of the blocked-space window [lo, lo+extent) as
/// row runs: pieces of one innermost-dim row that stay inside one brick. The
/// outer dims are walked once; each row is clipped to [0, blocked) and split
/// at brick edges, so positions outside the layer (including the masked tail
/// of a boundary brick) are never visited. Consecutive runs that continue
/// each other in both the window and the brick (whole brick-wide rows) are
/// merged into one. For each run, fn(window_offset, brick, brick_offset,
/// length) gets the run's row-major offset within the window, the logical
/// (row-major grid) index of its brick, its row-major offset within that
/// brick, and its length.
template <typename Fn>
void for_each_row_run(const BrickGrid& layout, const Dims& lo,
                      const Dims& extent, Fn&& fn) {
  const int rank = layout.rank();
  BDL_CHECK(lo.rank() == rank && extent.rank() == rank);
  const int last = rank - 1;
  i64 wlo[Dims::kMaxRank] = {}, clo[Dims::kMaxRank] = {};
  i64 chi[Dims::kMaxRank] = {}, bext[Dims::kMaxRank] = {};
  i64 wstride[Dims::kMaxRank] = {}, bstride[Dims::kMaxRank] = {};
  i64 gstride[Dims::kMaxRank] = {};
  for (int d = last; d >= 0; --d) {
    wlo[d] = lo[d];
    clo[d] = std::max<i64>(lo[d], 0);
    chi[d] = std::min(lo[d] + extent[d], layout.blocked[d]);
    if (chi[d] <= clo[d]) return;
    bext[d] = layout.brick[d];
    wstride[d] = d == last ? 1 : wstride[d + 1] * extent[d + 1];
    bstride[d] = d == last ? 1 : bstride[d + 1] * bext[d + 1];
    gstride[d] = d == last ? 1 : gstride[d + 1] * layout.grid[d + 1];
  }
  const i64 x_lo = clo[last];
  const i64 x_hi = chi[last];
  const i64 bx = bext[last];
  i64 run_window = 0, run_brick = -1, run_offset = 0, run_len = 0;
  auto emit = [&](i64 window_offset, i64 brick, i64 brick_offset, i64 len) {
    if (brick == run_brick && window_offset == run_window + run_len &&
        brick_offset == run_offset + run_len) {
      run_len += len;
      return;
    }
    if (run_len > 0) fn(run_window, run_brick, run_offset, run_len);
    run_window = window_offset;
    run_brick = brick;
    run_offset = brick_offset;
    run_len = len;
  };
  i64 idx[Dims::kMaxRank] = {};
  for (int d = 0; d < last; ++d) idx[d] = clo[d];
  while (true) {
    i64 window_offset = x_lo - wlo[last];
    i64 brick = 0;
    i64 brick_offset = 0;
    for (int d = 0; d < last; ++d) {
      window_offset += (idx[d] - wlo[d]) * wstride[d];
      brick += idx[d] / bext[d] * gstride[d];
      brick_offset += idx[d] % bext[d] * bstride[d];
    }
    for (i64 x = x_lo; x < x_hi;) {
      const i64 in_brick = x % bx;
      const i64 len = std::min(x_hi - x, bx - in_brick);
      emit(window_offset + (x - x_lo), brick + x / bx,
           brick_offset + in_brick, len);
      x += len;
    }
    int d = last - 1;
    for (; d >= 0; --d) {
      if (++idx[d] < chi[d]) break;
      idx[d] = clo[d];
    }
    if (d < 0) break;
  }
  if (run_len > 0) fn(run_window, run_brick, run_offset, run_len);
}

}  // namespace brickdl
