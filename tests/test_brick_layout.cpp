#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "brick/bricked_tensor.hpp"
#include "core/backend.hpp"
#include "util/odometer.hpp"

namespace brickdl {
namespace {

TEST(BrickGrid, CeilDivision) {
  const BrickGrid grid(Dims{1, 16, 20}, Dims{1, 4, 8});
  EXPECT_EQ(grid.grid, (Dims{1, 4, 3}));
  EXPECT_EQ(grid.num_bricks(), 12);
  EXPECT_EQ(grid.brick_elements(), 32);
}

TEST(BrickGrid, BrickOfAndOrigin) {
  const BrickGrid grid(Dims{1, 16, 16}, Dims{1, 4, 4});
  EXPECT_EQ(grid.brick_of(Dims{0, 5, 11}), (Dims{0, 1, 2}));
  EXPECT_EQ(grid.brick_origin(Dims{0, 1, 2}), (Dims{0, 4, 8}));
}

TEST(BrickGrid, ValidExtentClipsBoundary) {
  const BrickGrid grid(Dims{1, 10, 10}, Dims{1, 4, 4});
  EXPECT_EQ(grid.valid_extent(Dims{0, 0, 0}), (Dims{1, 4, 4}));
  EXPECT_EQ(grid.valid_extent(Dims{0, 2, 2}), (Dims{1, 2, 2}));
}

TEST(BrickMap, IdentityByDefault) {
  const BrickMap map(Dims{2, 3});
  for (i64 i = 0; i < 6; ++i) {
    EXPECT_EQ(map.physical(i), i);
    EXPECT_EQ(map.logical(i), i);
  }
}

TEST(BrickMap, ShuffledIsPermutation) {
  Rng rng(5);
  const BrickMap map = BrickMap::shuffled(Dims{4, 4}, rng);
  std::vector<bool> seen(16, false);
  for (i64 l = 0; l < 16; ++l) {
    const i64 p = map.physical(l);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 16);
    EXPECT_FALSE(seen[static_cast<size_t>(p)]);
    seen[static_cast<size_t>(p)] = true;
    EXPECT_EQ(map.logical(p), l);  // inverse consistency
  }
}

TEST(BrickInfo, SelfAndNeighbors) {
  const BrickGrid grid(Dims{1, 4, 4}, Dims{1, 2, 2});  // 1x2x2 brick grid? no: 2x2
  const BrickMap map(grid.grid);
  const BrickInfo info(grid, map);
  EXPECT_EQ(info.num_directions(), 27);  // 3^3 including batch dim

  const Dims zero = Dims::filled(3, 0);
  const i64 center = grid.grid.linear(Dims{0, 0, 0});
  EXPECT_EQ(info.neighbor(center, zero), center);

  // Right neighbor of (0,0,0) is (0,0,1).
  EXPECT_EQ(info.neighbor(center, Dims{0, 0, 1}),
            grid.grid.linear(Dims{0, 0, 1}));
  // Out-of-grid neighbors are -1.
  EXPECT_EQ(info.neighbor(center, Dims{0, -1, 0}), -1);
  EXPECT_EQ(info.neighbor(center, Dims{-1, 0, 0}), -1);
}

TEST(BrickInfo, AdjacencyFollowsShuffledMap) {
  const BrickGrid grid(Dims{1, 8, 8}, Dims{1, 4, 4});
  Rng rng(11);
  const BrickMap map = BrickMap::shuffled(grid.grid, rng);
  const BrickInfo info(grid, map);
  // For every logical brick, its physical slot's neighbor in +w direction
  // must be the physical slot of the logically adjacent brick.
  for (i64 l = 0; l < grid.num_bricks(); ++l) {
    const Dims g = grid.grid.unlinear(l);
    if (g[2] + 1 >= grid.grid[2]) continue;
    Dims right = g;
    right[2] += 1;
    EXPECT_EQ(info.neighbor(map.physical(l), Dims{0, 0, 1}),
              map.physical(grid.grid.linear(right)));
  }
}

TEST(BrickInfo, DirectionRoundTrip) {
  const BrickGrid grid(Dims{1, 4, 4}, Dims{1, 2, 2});
  const BrickMap map(grid.grid);
  const BrickInfo info(grid, map);
  for (int dir = 0; dir < info.num_directions(); ++dir) {
    EXPECT_EQ(info.direction_of(info.delta_of(dir)), dir);
  }
}

TEST(BrickedTensor, RoundTripIdentityMap) {
  Tensor src(Shape{2, 3, 8, 8});
  Rng rng(1);
  src.fill_random(rng);
  const BrickedTensor bricked =
      BrickedTensor::from_canonical(src, Dims{1, 4, 4});
  EXPECT_EQ(bricked.num_bricks(), 2 * 2 * 2);
  EXPECT_TRUE(allclose(src, bricked.to_canonical(), 0.0));
}

TEST(BrickedTensor, RoundTripNonMultipleSizesMasked) {
  Tensor src(Shape{1, 2, 10, 6});
  Rng rng(2);
  src.fill_random(rng);
  const BrickedTensor bricked =
      BrickedTensor::from_canonical(src, Dims{1, 4, 4});
  EXPECT_TRUE(allclose(src, bricked.to_canonical(), 0.0));
  // Masked padding inside boundary bricks must be zero.
  const BrickGrid& grid = bricked.grid();
  EXPECT_EQ(grid.grid, (Dims{1, 3, 2}));
}

TEST(BrickedTensor, RoundTripShuffledMap) {
  Tensor src(Shape{1, 4, 12, 12});
  Rng rng(3);
  src.fill_random(rng);
  Rng map_rng(17);
  const BrickGrid grid(Shape(src.dims()).blocked_dims(), Dims{1, 4, 4});
  const BrickedTensor bricked = BrickedTensor::from_canonical(
      src, Dims{1, 4, 4}, BrickMap::shuffled(grid.grid, map_rng));
  EXPECT_TRUE(allclose(src, bricked.to_canonical(), 0.0));
}

TEST(BrickedTensor, ElementAccessMatchesCanonical) {
  Tensor src(Shape{1, 3, 9, 7});
  Rng rng(4);
  src.fill_random(rng);
  BrickedTensor bricked = BrickedTensor::from_canonical(src, Dims{1, 4, 4});
  for (i64 c = 0; c < 3; ++c) {
    for (i64 h = 0; h < 9; ++h) {
      for (i64 w = 0; w < 7; ++w) {
        EXPECT_EQ(bricked.at(Dims{0, c, h, w}), src.at(Dims{0, c, h, w}));
      }
    }
  }
}

TEST(BrickedTensor, BrickViewAccess) {
  Tensor src(Shape{1, 2, 8, 8});
  Rng rng(5);
  src.fill_random(rng);
  BrickedTensor bricked = BrickedTensor::from_canonical(src, Dims{1, 4, 4});
  // Brick at grid (0,1,1) covers blocked [0, 4..8, 4..8].
  const i64 physical = bricked.map().physical_at(Dims{0, 1, 1});
  Brick brick = bricked.brick(physical);
  EXPECT_EQ(brick.channels(), 2);
  EXPECT_EQ(brick(1, Dims{0, 2, 3}), src.at(Dims{0, 1, 6, 7}));
}

TEST(BrickedTensor, ReadWindowGathersHaloAcrossBricks) {
  Tensor src(Shape{1, 1, 8, 8});
  for (i64 h = 0; h < 8; ++h) {
    for (i64 w = 0; w < 8; ++w) src.at(Dims{0, 0, h, w}) = h * 8.0f + w;
  }
  BrickedTensor bricked = BrickedTensor::from_canonical(src, Dims{1, 4, 4});
  // A 4x4 window centered on the brick corner spans 4 bricks.
  std::vector<float> scratch(16);
  bricked.read_window(Dims{0, 2, 2}, Dims{1, 4, 4}, scratch);
  for (i64 h = 0; h < 4; ++h) {
    for (i64 w = 0; w < 4; ++w) {
      EXPECT_EQ(scratch[static_cast<size_t>(h * 4 + w)],
                (h + 2) * 8.0f + (w + 2));
    }
  }
}

TEST(BrickedTensor, ReadWindowZeroFillsOutOfBounds) {
  Tensor src(Shape{1, 1, 4, 4});
  src.fill(5.0f);
  BrickedTensor bricked = BrickedTensor::from_canonical(src, Dims{1, 4, 4});
  std::vector<float> scratch(16);
  bricked.read_window(Dims{0, -2, -2}, Dims{1, 4, 4}, scratch);
  // Top-left 2x2 of the window is outside: zeros; rest is 5.
  for (i64 h = 0; h < 4; ++h) {
    for (i64 w = 0; w < 4; ++w) {
      const float expected = (h < 2 || w < 2) ? 0.0f : 5.0f;
      EXPECT_EQ(scratch[static_cast<size_t>(h * 4 + w)], expected);
    }
  }
}

TEST(BrickedTensor, WriteWindowRoundTrip) {
  BrickedTensor bricked(Shape{1, 2, 8, 8}, Dims{1, 4, 4});
  std::vector<float> scratch(2 * 9);
  for (size_t i = 0; i < scratch.size(); ++i) scratch[i] = static_cast<float>(i);
  bricked.write_window(Dims{0, 3, 3}, Dims{1, 3, 3}, scratch);
  std::vector<float> back(2 * 9, -1.0f);
  bricked.read_window(Dims{0, 3, 3}, Dims{1, 3, 3}, back);
  for (size_t i = 0; i < scratch.size(); ++i) EXPECT_EQ(back[i], scratch[i]);
}

TEST(BrickedTensor, WriteWindowIgnoresOutOfBounds) {
  BrickedTensor bricked(Shape{1, 1, 4, 4}, Dims{1, 4, 4});
  std::vector<float> scratch(16, 9.0f);
  bricked.write_window(Dims{0, 2, 2}, Dims{1, 4, 4}, scratch);  // spills past edge
  Tensor out = bricked.to_canonical();
  EXPECT_EQ(out.at(Dims{0, 0, 3, 3}), 9.0f);
  EXPECT_EQ(out.at(Dims{0, 0, 0, 0}), 0.0f);
}

// ---------------------------------------------------------------------------
// Window-transfer properties. Every transfer (bricked and canonical window
// reads and writes, the backend's sub-window extraction, and the layout
// conversions) is checked element by element against a brute-force reference
// built from Tensor::at / BrickedTensor::at and the raw brick storage, over
// blocked ranks 2-4, brick extents that do not divide the layer, identity and
// shuffled brick maps, and windows that start below zero, cross every edge,
// lie fully outside, or are a single point.

struct TransferCase {
  Shape shape;
  Dims brick;
  bool shuffled = false;
};

TransferCase random_case(Rng& rng, int blocked_rank) {
  TransferCase c;
  Dims dims;
  dims.push_back(1 + static_cast<i64>(rng.next_below(3)));  // batch
  dims.push_back(1 + static_cast<i64>(rng.next_below(3)));  // channels
  for (int d = 1; d < blocked_rank; ++d) {
    dims.push_back(1 + static_cast<i64>(rng.next_below(9)));
  }
  c.shape = Shape(dims);
  const Dims blocked = c.shape.blocked_dims();
  for (int d = 0; d < blocked_rank; ++d) {
    // Up to two past the layer extent: non-dividing and oversized bricks.
    c.brick.push_back(1 + static_cast<i64>(rng.next_below(
                              static_cast<u64>(blocked[d] + 2))));
  }
  c.shuffled = rng.next_below(2) == 1;
  return c;
}

/// Canonical index [n, c, spatial...] of blocked point `b` in channel `c`.
Dims canonical_index(const Dims& b, i64 c) {
  Dims index;
  index.push_back(b[0]);
  index.push_back(c);
  for (int d = 1; d < b.rank(); ++d) index.push_back(b[d]);
  return index;
}

bool in_layer(const Dims& b, const Dims& blocked) {
  for (int d = 0; d < b.rank(); ++d) {
    if (b[d] < 0 || b[d] >= blocked[d]) return false;
  }
  return true;
}

/// Windows of every kind named above, in a fixed seeded mix.
std::vector<std::pair<Dims, Dims>> transfer_windows(Rng& rng,
                                                    const Dims& blocked) {
  const int rank = blocked.rank();
  std::vector<std::pair<Dims, Dims>> windows;
  Dims lo = Dims::filled(rank, 0), extent = Dims::filled(rank, 1);
  // Crosses every edge of every dim.
  for (int d = 0; d < rank; ++d) {
    lo[d] = -1 - static_cast<i64>(rng.next_below(2));
    extent[d] = blocked[d] - 2 * lo[d] + static_cast<i64>(rng.next_below(2));
  }
  windows.emplace_back(lo, extent);
  // Single points, one inside and one just outside the layer.
  for (int d = 0; d < rank; ++d) {
    lo[d] = static_cast<i64>(rng.next_below(static_cast<u64>(blocked[d])));
    extent[d] = 1;
  }
  windows.emplace_back(lo, extent);
  lo[rank - 1] = blocked[rank - 1];
  windows.emplace_back(lo, extent);
  // Fully outside along one dim (below or above), spanning the others.
  for (int out = 0; out < rank; ++out) {
    for (int d = 0; d < rank; ++d) {
      lo[d] = -1;
      extent[d] = blocked[d] + 2;
    }
    extent[out] = 1 + static_cast<i64>(rng.next_below(3));
    lo[out] = rng.next_below(2)
                  ? blocked[out]
                  : -extent[out] - static_cast<i64>(rng.next_below(2));
    windows.emplace_back(lo, extent);
  }
  // Random windows, often starting below zero.
  for (int trial = 0; trial < 6; ++trial) {
    for (int d = 0; d < rank; ++d) {
      lo[d] = static_cast<i64>(
                  rng.next_below(static_cast<u64>(blocked[d] + 3))) - 3;
      extent[d] = 1 + static_cast<i64>(rng.next_below(
                          static_cast<u64>(blocked[d] + 3)));
    }
    windows.emplace_back(lo, extent);
  }
  return windows;
}

/// Bricked tensor filled element by element through at() (not through the
/// run-based conversions under test).
BrickedTensor bricked_by_elements(const TransferCase& c, const Tensor& src,
                                  u64 map_seed) {
  const BrickGrid grid(c.shape.blocked_dims(), c.brick);
  Rng map_rng(map_seed);
  BrickedTensor t(c.shape, c.brick,
                  c.shuffled ? BrickMap::shuffled(grid.grid, map_rng)
                             : BrickMap(grid.grid));
  for_each_index(c.shape.dims, [&](const Dims& index) {
    t.at(index) = src.at(index);
  });
  return t;
}

/// Visit every storage element of `t` as (channel, blocked point, value):
/// masked-tail positions of boundary bricks come out with points outside the
/// layer.
template <typename Fn>
void for_each_stored(const BrickedTensor& t, Fn&& fn) {
  const BrickGrid& grid = t.grid();
  for (i64 p = 0; p < t.num_bricks(); ++p) {
    const Dims origin =
        grid.brick_origin(grid.grid.unlinear(t.map().logical(p)));
    const float* data = t.brick_data(p);
    for (i64 i = 0; i < t.brick_storage_elements(); ++i) {
      Dims point = grid.brick.unlinear(i % grid.brick_elements());
      for (int d = 0; d < point.rank(); ++d) point[d] += origin[d];
      fn(i / grid.brick_elements(), point, data[i]);
    }
  }
}

std::string case_label(const TransferCase& c, const Dims& lo,
                       const Dims& extent) {
  return "shape " + c.shape.str() + " brick " + c.brick.str() +
         (c.shuffled ? " shuffled" : " identity") + " window " + lo.str() +
         "+" + extent.str();
}

/// Expected [C, extent...] gather of `src` over the window, zero outside the
/// layer.
std::vector<float> reference_gather(const Tensor& src, const Dims& lo,
                                    const Dims& extent) {
  const Shape shape(src.dims());
  const i64 points = extent.product();
  std::vector<float> expect(static_cast<size_t>(shape.channels() * points));
  for_each_index(extent, [&](const Dims& rel) {
    Dims b = rel;
    for (int d = 0; d < b.rank(); ++d) b[d] += lo[d];
    const bool inside = in_layer(b, shape.blocked_dims());
    for (i64 c = 0; c < shape.channels(); ++c) {
      expect[static_cast<size_t>(c * points + extent.linear(rel))] =
          inside ? src.at(canonical_index(b, c)) : 0.0f;
    }
  });
  return expect;
}

bool window_contains(const Dims& lo, const Dims& extent, const Dims& b) {
  for (int d = 0; d < b.rank(); ++d) {
    if (b[d] < lo[d] || b[d] >= lo[d] + extent[d]) return false;
  }
  return true;
}

class WindowTransfer : public testing::TestWithParam<int> {};

TEST_P(WindowTransfer, BrickedReadWriteMatchElementwise) {
  const int blocked_rank = GetParam();
  Rng rng(0x7a11 + static_cast<u64>(blocked_rank));
  for (int it = 0; it < 12; ++it) {
    const TransferCase c = random_case(rng, blocked_rank);
    Tensor src(c.shape);
    src.fill_random(rng);
    BrickedTensor bricked = bricked_by_elements(c, src, 100 + it);
    const Dims blocked = c.shape.blocked_dims();
    for (const auto& [lo, extent] : transfer_windows(rng, blocked)) {
      const std::string label = case_label(c, lo, extent);
      const i64 points = extent.product();
      const size_t n = static_cast<size_t>(c.shape.channels() * points);

      std::vector<float> got(n, -7.0f);
      bricked.read_window(lo, extent, got);
      ASSERT_EQ(got, reference_gather(src, lo, extent)) << label;

      // Scatter distinct values over storage pre-marked with sentinels:
      // exactly the in-layer part of the window changes, and every other
      // stored float (including masked brick tails) is left untouched.
      BrickedTensor dst = bricked;
      std::vector<float> sentinel;
      for (i64 p = 0; p < dst.num_bricks(); ++p) {
        float* data = dst.brick_data(p);
        for (i64 i = 0; i < dst.brick_storage_elements(); ++i) {
          data[i] = 1000.0f + static_cast<float>(sentinel.size());
          sentinel.push_back(data[i]);
        }
      }
      std::vector<float> scratch(n);
      for (float& v : scratch) v = rng.next_float(-1.0f, 1.0f);
      dst.write_window(lo, extent, scratch);
      size_t k = 0;
      for_each_stored(dst, [&](i64 ch, const Dims& b, float value) {
        float expect = sentinel[k++];
        if (in_layer(b, blocked) && window_contains(lo, extent, b)) {
          Dims rel = b;
          for (int d = 0; d < rel.rank(); ++d) rel[d] -= lo[d];
          expect = scratch[static_cast<size_t>(ch * points +
                                               extent.linear(rel))];
        }
        ASSERT_EQ(value, expect) << label << " channel " << ch << " point "
                                 << b.str();
      });
    }
  }
}

TEST_P(WindowTransfer, CanonicalConversionsMatchElementwise) {
  const int blocked_rank = GetParam();
  Rng rng(0xc0de + static_cast<u64>(blocked_rank));
  for (int it = 0; it < 12; ++it) {
    const TransferCase c = random_case(rng, blocked_rank);
    Tensor src(c.shape);
    src.fill_random(rng);
    const BrickedTensor expect = bricked_by_elements(c, src, 200 + it);
    const BrickedTensor got =
        BrickedTensor::from_canonical(src, c.brick, expect.map());
    const std::string label = case_label(c, Dims{}, Dims{});
    // Same storage bits, so masked brick tails stay zero.
    ASSERT_EQ(std::memcmp(got.brick_data(0), expect.brick_data(0),
                          static_cast<size_t>(got.storage_bytes())),
              0)
        << label;
    const Tensor back = got.to_canonical();
    ASSERT_EQ(std::memcmp(back.data(), src.data(),
                          static_cast<size_t>(src.bytes())),
              0)
        << label;
  }
}

TEST_P(WindowTransfer, BackendLoadStoreExtractMatchElementwise) {
  const int blocked_rank = GetParam();
  Rng rng(0xbac0 + static_cast<u64>(blocked_rank));
  for (int it = 0; it < 12; ++it) {
    const TransferCase c = random_case(rng, blocked_rank);
    Graph g("transfer");
    const int relu = g.add_relu(g.add_input("x", c.shape), "r");
    WeightStore ws(1);
    NumericBackend backend(g, ws, 1);
    const Layout layout = it % 2 ? Layout::kBricked : Layout::kCanonical;
    const TensorId src_id =
        backend.register_tensor(c.shape, layout, c.brick, "src");
    const TensorId dst_id =
        backend.register_tensor(c.shape, layout, c.brick, "dst");
    const TensorId nan_id = backend.register_tensor(
        c.shape, Layout::kCanonical, {}, "nan");
    Tensor src(c.shape);
    src.fill_random(rng);
    backend.bind(src_id, src);
    Tensor nan(c.shape);
    nan.fill(std::numeric_limits<float>::quiet_NaN());
    backend.bind(nan_id, nan);
    Tensor marked(c.shape);
    for (i64 i = 0; i < marked.elements(); ++i) {
      marked.flat(i) = 1000.0f + static_cast<float>(i);
    }
    const Dims blocked = c.shape.blocked_dims();
    for (const auto& [lo, extent] : transfer_windows(rng, blocked)) {
      const std::string label =
          case_label(c, lo, extent) +
          (layout == Layout::kBricked ? " bricked" : " canonical");
      // Dirty the arena first: the load must zero out-of-layer positions
      // itself rather than rely on fresh memory.
      backend.invocation_begin(0);
      Dims whole_lo = lo;
      for (int d = 0; d < whole_lo.rank(); ++d) whole_lo[d] -= 1;
      Dims whole_extent = extent;
      for (int d = 0; d < whole_extent.rank(); ++d) whole_extent[d] += 2;
      backend.free_slot(
          0, backend.load_window(0, nan_id, whole_lo, whole_extent));
      backend.invocation_begin(0);
      const SlotId slot = backend.load_window(0, src_id, lo, extent);
      const std::span<const float> data = backend.slot_data(0, slot);
      const std::vector<float> expect = reference_gather(src, lo, extent);
      ASSERT_TRUE(std::equal(expect.begin(), expect.end(), data.begin()))
          << label;

      // A pointwise op over a strict sub-window extracts a congruent copy.
      Dims sub_lo = lo, sub_extent = extent;
      for (int d = 0; d < sub_lo.rank(); ++d) {
        sub_lo[d] +=
            static_cast<i64>(rng.next_below(static_cast<u64>(extent[d])));
        sub_extent[d] = 1 + static_cast<i64>(rng.next_below(static_cast<u64>(
                                lo[d] + extent[d] - sub_lo[d])));
      }
      const SlotId out = backend.compute(0, relu, {slot}, sub_lo, sub_extent,
                                         /*mask_to_bounds=*/false);
      std::vector<float> sub = reference_gather(src, sub_lo, sub_extent);
      for (float& v : sub) v = v < 0.0f ? 0.0f : v;
      const std::span<const float> out_data = backend.slot_data(0, out);
      ASSERT_TRUE(std::equal(sub.begin(), sub.end(), out_data.begin()))
          << label;
      backend.free_slot(0, out);

      // Storing the loaded slot changes exactly the in-layer window.
      backend.bind(dst_id, marked);
      backend.store_window(0, slot, dst_id, lo, extent);
      const Tensor stored = backend.read(dst_id);
      for_each_index(c.shape.dims, [&](const Dims& index) {
        Dims b = Dims::filled(blocked.rank(), 0);
        b[0] = index[0];
        for (int d = 1; d < b.rank(); ++d) b[d] = index[d + 1];
        const float want =
            window_contains(lo, extent, b) ? src.at(index) : marked.at(index);
        ASSERT_EQ(stored.at(index), want) << label << " at " << index.str();
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BlockedRanks, WindowTransfer, testing::Values(2, 3, 4),
                         [](const testing::TestParamInfo<int>& info) {
                           return "rank" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace brickdl
