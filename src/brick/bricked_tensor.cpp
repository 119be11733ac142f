#include "brick/bricked_tensor.hpp"

#include <algorithm>

namespace brickdl {

BrickedTensor::BrickedTensor(Shape shape, const Dims& brick_extents)
    : BrickedTensor(shape, brick_extents,
                    BrickMap(BrickGrid(shape.blocked_dims(), brick_extents).grid)) {}

BrickedTensor::BrickedTensor(Shape shape, const Dims& brick_extents, BrickMap map)
    : shape_(shape),
      grid_(shape.blocked_dims(), brick_extents),
      map_(std::move(map)),
      info_(grid_, map_) {
  BDL_CHECK_MSG(map_.grid() == grid_.grid,
                "brick map grid " << map_.grid().str()
                                  << " does not match decomposition grid "
                                  << grid_.grid.str());
  storage_.assign(static_cast<size_t>(num_bricks() * brick_storage_elements()),
                  0.0f);
}

Brick BrickedTensor::brick(i64 physical) {
  return Brick(brick_data(physical), channels(), grid_.brick);
}

const float* BrickedTensor::brick_data(i64 physical) const {
  BDL_CHECK(physical >= 0 && physical < num_bricks());
  return storage_.data() + physical * brick_storage_elements();
}

float* BrickedTensor::brick_data(i64 physical) {
  BDL_CHECK(physical >= 0 && physical < num_bricks());
  return storage_.data() + physical * brick_storage_elements();
}

std::pair<i64, i64> BrickedTensor::locate(const Dims& index) const {
  BDL_CHECK(index.rank() == shape_.rank());
  const i64 channel = index[1];
  BDL_CHECK(channel >= 0 && channel < channels());
  Dims blocked = Dims::filled(grid_.rank(), 0);
  blocked[0] = index[0];
  for (int i = 0; i < shape_.spatial_rank(); ++i) blocked[i + 1] = index[2 + i];

  const Dims g = grid_.brick_of(blocked);
  const Dims origin = grid_.brick_origin(g);
  Dims in_brick = blocked;
  for (int i = 0; i < grid_.rank(); ++i) in_brick[i] -= origin[i];

  const i64 physical = map_.physical_at(g);
  const i64 offset =
      channel * grid_.brick_elements() + grid_.brick.linear(in_brick);
  return {physical, offset};
}

float& BrickedTensor::at(const Dims& index) {
  const auto [physical, offset] = locate(index);
  return storage_[static_cast<size_t>(physical * brick_storage_elements() + offset)];
}

float BrickedTensor::at(const Dims& index) const {
  const auto [physical, offset] = locate(index);
  return storage_[static_cast<size_t>(physical * brick_storage_elements() + offset)];
}

void BrickedTensor::fill(float value) {
  std::fill(storage_.begin(), storage_.end(), value);
}

BrickedTensor BrickedTensor::from_canonical(const Tensor& src,
                                            const Dims& brick_extents) {
  const Shape shape(src.dims());
  return from_canonical(src, brick_extents,
                        BrickMap(BrickGrid(shape.blocked_dims(), brick_extents).grid));
}

BrickedTensor BrickedTensor::from_canonical(const Tensor& src,
                                            const Dims& brick_extents,
                                            BrickMap map) {
  const Shape shape(src.dims());
  BrickedTensor dst(shape, brick_extents, std::move(map));
  // A canonical batch slice [C, spatial...] is exactly a window of extent
  // [1, spatial...] in scratch layout.
  const i64 slice = shape.channels() * shape.spatial_dims().product();
  Dims lo = Dims::filled(dst.grid_.rank(), 0);
  Dims extent = dst.grid_.blocked;
  extent[0] = 1;
  for (i64 n = 0; n < shape.batch(); ++n) {
    lo[0] = n;
    dst.write_window(lo, extent, src.span().subspan(
                                     static_cast<size_t>(n * slice),
                                     static_cast<size_t>(slice)));
  }
  return dst;
}

Tensor BrickedTensor::to_canonical() const {
  Tensor dst(shape_);
  const i64 slice = channels() * shape_.spatial_dims().product();
  Dims lo = Dims::filled(grid_.rank(), 0);
  Dims extent = grid_.blocked;
  extent[0] = 1;
  for (i64 n = 0; n < shape_.batch(); ++n) {
    lo[0] = n;
    read_window(lo, extent, dst.span().subspan(static_cast<size_t>(n * slice),
                                               static_cast<size_t>(slice)));
  }
  return dst;
}

void BrickedTensor::read_window(const Dims& lo, const Dims& extent,
                                std::span<float> scratch) const {
  BDL_CHECK(lo.rank() == grid_.rank() && extent.rank() == grid_.rank());
  const i64 needed = channels() * extent.product();
  BDL_CHECK_MSG(static_cast<i64>(scratch.size()) >= needed,
                "scratch too small: " << scratch.size() << " < " << needed);
  gather_window(
      grid_, [&](i64 logical) { return brick_data(map_.physical(logical)); },
      channels(), lo, extent, scratch.data());
}

void BrickedTensor::write_window(const Dims& lo, const Dims& extent,
                                 std::span<const float> scratch) {
  BDL_CHECK(lo.rank() == grid_.rank() && extent.rank() == grid_.rank());
  const i64 needed = channels() * extent.product();
  BDL_CHECK_MSG(static_cast<i64>(scratch.size()) >= needed,
                "scratch too small: " << scratch.size() << " < " << needed);
  scatter_window(
      grid_, [&](i64 logical) { return brick_data(map_.physical(logical)); },
      channels(), lo, extent, scratch.data());
}

}  // namespace brickdl
