#include "brick/brick_grid.hpp"

#include <algorithm>

namespace brickdl {

BrickGrid::BrickGrid(const Dims& blocked_dims, const Dims& brick_extents)
    : blocked(blocked_dims), brick(brick_extents) {
  BDL_CHECK_MSG(blocked.rank() == brick.rank(),
                "blocked dims " << blocked.str() << " vs brick extents "
                                << brick.str());
  BDL_CHECK(blocked.rank() > 0);
  grid = Dims::filled(blocked.rank(), 0);
  for (int i = 0; i < blocked.rank(); ++i) {
    BDL_CHECK_MSG(brick[i] > 0, "brick extent must be positive");
    BDL_CHECK_MSG(blocked[i] > 0, "layer extent must be positive");
    grid[i] = ceil_div(blocked[i], brick[i]);
  }
}

Dims BrickGrid::brick_of(const Dims& blocked_index) const {
  BDL_CHECK(blocked_index.rank() == rank());
  Dims g = Dims::filled(rank(), 0);
  for (int i = 0; i < rank(); ++i) g[i] = blocked_index[i] / brick[i];
  return g;
}

Dims BrickGrid::brick_origin(const Dims& g) const {
  BDL_CHECK(g.rank() == rank());
  Dims origin = Dims::filled(rank(), 0);
  for (int i = 0; i < rank(); ++i) origin[i] = g[i] * brick[i];
  return origin;
}

Dims BrickGrid::valid_extent(const Dims& g) const {
  const Dims origin = brick_origin(g);
  Dims extent = Dims::filled(rank(), 0);
  for (int i = 0; i < rank(); ++i) {
    extent[i] = std::min(brick[i], blocked[i] - origin[i]);
  }
  return extent;
}

void BrickGrid::brick_window(i64 brick, Dims* lo, Dims* extent) const {
  const Dims g = grid.unlinear(brick);
  *lo = brick_origin(g);
  *extent = valid_extent(g);
}

bool BrickGrid::contains(const Dims& lo, const Dims& extent) const {
  BDL_CHECK(lo.rank() == rank() && extent.rank() == rank());
  for (int i = 0; i < rank(); ++i) {
    if (lo[i] < 0 || lo[i] + extent[i] > blocked[i]) return false;
  }
  return true;
}

}  // namespace brickdl
