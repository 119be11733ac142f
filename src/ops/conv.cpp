#include <algorithm>
#include <vector>

#include "ops/region.hpp"
#include "ops/region_interior.hpp"
#include "util/odometer.hpp"

namespace brickdl {
namespace {

/// Read input window at relative blocked position, zero outside the window.
inline float window_at(const RegionInput& in, i64 channel, const Dims& abs) {
  i64 offset = 0;
  for (int d = 0; d < abs.rank(); ++d) {
    const i64 rel = abs[d] - in.lo[d];
    if (rel < 0 || rel >= in.extent[d]) return 0.0f;
    offset = offset * in.extent[d] + rel;
  }
  return in.data[static_cast<size_t>(channel * in.extent.product() + offset)];
}

/// Generic (per-tap clamping) convolution over the box
/// [box_lo, box_lo+box_extent), writing at offsets relative to the full
/// output region [out_lo, out_lo+out_extent). Serves both the whole-region
/// generic path and the boundary slabs around an interior fast-path box.
void conv_box(const Node& node, const RegionInput& input,
              std::span<const float> weights, const Dims& box_lo,
              const Dims& box_extent, const Dims& out_lo,
              const Dims& out_extent, std::span<float> out) {
  const OpAttrs& a = node.attrs;
  const int spatial_rank = a.kernel.rank();
  const i64 m_total = a.out_channels;
  const i64 c_group = input.channels / a.groups;
  const i64 m_group = m_total / a.groups;
  const i64 taps = a.kernel.product();
  const i64 out_points = out_extent.product();

  const bool relu = a.fused_relu;
  for_each_index(box_extent, [&](const Dims& rel) {
    Dims abs = rel;
    Dims out_rel = rel;
    for (int d = 0; d <= spatial_rank; ++d) {
      abs[d] += box_lo[d];
      out_rel[d] = abs[d] - out_lo[d];
    }
    const i64 point = out_extent.linear(out_rel);
    for (i64 m = 0; m < m_total; ++m) {
      const i64 g = m / m_group;
      const float* w_m = weights.data() + m * c_group * taps;
      double acc = 0.0;
      if (!a.transposed) {
        for_each_index(a.kernel, [&](const Dims& tap) {
          Dims in_abs = abs;
          for (int d = 0; d < spatial_rank; ++d) {
            in_abs[d + 1] = abs[d + 1] * a.stride[d] - a.padding[d] +
                            a.dilation[d] * tap[d];
          }
          const i64 t = a.kernel.linear(tap);
          for (i64 cg = 0; cg < c_group; ++cg) {
            acc += static_cast<double>(
                       window_at(input, g * c_group + cg, in_abs)) *
                   w_m[cg * taps + t];
          }
        });
      } else {
        // Transposed: output o accumulates in(i)·w(t) where o = i·s − p + d·t.
        for_each_index(a.kernel, [&](const Dims& tap) {
          Dims in_abs = abs;
          bool valid = true;
          for (int d = 0; d < spatial_rank && valid; ++d) {
            const i64 numer =
                abs[d + 1] + a.padding[d] - a.dilation[d] * tap[d];
            if (numer % a.stride[d] != 0) {
              valid = false;
            } else {
              in_abs[d + 1] = numer / a.stride[d];
            }
          }
          if (!valid) return;
          const i64 t = a.kernel.linear(tap);
          for (i64 cg = 0; cg < c_group; ++cg) {
            acc += static_cast<double>(
                       window_at(input, g * c_group + cg, in_abs)) *
                   w_m[cg * taps + t];
          }
        });
      }
      float v = static_cast<float>(acc);
      if (relu && v < 0.0f) v = 0.0f;
      out[static_cast<size_t>(m * out_points + point)] = v;
    }
  });
}

/// Two output channels' accumulators in one SIMD register (GCC/Clang vector
/// extension; lowered to SSE2 on x86-64 without any -march flag).
using F64x2 = double __attribute__((vector_size(16)));

/// Output channels × output points of one register-blocked interior tile.
constexpr int kTileM = 4;
constexpr int kTileX = 4;
constexpr int kTileV = kTileM / 2;

/// One tile: up to 2·MV consecutive output channels of one group times XB
/// consecutive points of one output row. `in` points at the tile's first
/// input element (group channel 0, tap offset 0), consecutive points are `sx`
/// apart, and `wp` holds the m-block's weights as doubles packed
/// [tap][cg][2·MV] (channels past `mb` are zero and never stored). Every
/// output element keeps its own double accumulator and the conv_box addition
/// order (taps row-major, then group channels); the tile only interleaves
/// independent elements. A float × float product is exact in double, so
/// neither the interleaving nor FMA contraction can change a result bit.
template <int MV, int XB>
void conv_tile(const float* in, i64 sx, i64 in_points, const i64* tap_off,
               i64 taps, i64 c_group, const F64x2* wp, int mb, bool relu,
               float* out, i64 out_points) {
  F64x2 acc[XB][MV] = {};
  for (i64 t = 0; t < taps; ++t) {
    const float* in_t = in + tap_off[t];
    for (i64 cg = 0; cg < c_group; ++cg, wp += MV) {
      const float* in_c = in_t + cg * in_points;
      for (int xi = 0; xi < XB; ++xi) {
        const double v = in_c[xi * sx];
        for (int j = 0; j < MV; ++j) acc[xi][j] += v * wp[j];
      }
    }
  }
  for (int mi = 0; mi < mb; ++mi) {
    for (int xi = 0; xi < XB; ++xi) {
      float v = static_cast<float>(acc[xi][mi / 2][mi % 2]);
      if (relu && v < 0.0f) v = 0.0f;
      out[mi * out_points + xi] = v;
    }
  }
}

using ConvTileFn = void (*)(const float*, i64, i64, const i64*, i64, i64,
                            const F64x2*, int, bool, float*, i64);

/// Full-width tiles and the one-point row tail, indexed by vector count − 1.
constexpr ConvTileFn kTileFull[kTileV] = {conv_tile<1, kTileX>,
                                          conv_tile<2, kTileX>};
constexpr ConvTileFn kTileOne[kTileV] = {conv_tile<1, 1>, conv_tile<2, 1>};

/// Interior fast path: every tap of every point reads inside the input
/// window, so there are no per-tap validity checks. Output channels are
/// walked in m-blocks of up to kTileM that never straddle a group; each
/// m-block's weights are packed once, then every row of the interior box is
/// swept in tiles of kTileX points plus a one-point tail. Results are
/// bit-identical to conv_box (see conv_tile).
void conv_interior(const Node& node, const RegionInput& input,
                   std::span<const float> weights,
                   const detail::StencilDim* dims, const i64* ilo,
                   const i64* ihi, const Dims& out_lo, const Dims& out_extent,
                   std::span<float> out) {
  const OpAttrs& a = node.attrs;
  const int rank = out_lo.rank();
  const int spatial_rank = rank - 1;
  const i64 c_group = input.channels / a.groups;
  const i64 m_group = a.out_channels / a.groups;
  const i64 taps = a.kernel.product();
  const i64 in_points = input.extent.product();
  const i64 out_points = out_extent.product();

  i64 in_stride[Dims::kMaxRank];
  i64 out_stride[Dims::kMaxRank];
  in_stride[rank - 1] = 1;
  out_stride[rank - 1] = 1;
  for (int d = rank - 2; d >= 0; --d) {
    in_stride[d] = in_stride[d + 1] * input.extent[d + 1];
    out_stride[d] = out_stride[d + 1] * out_extent[d + 1];
  }

  // Scratch: per-tap input-offset deltas (row-major tap order, matching the
  // generic path's accumulation sequence), then one packed m-block.
  thread_local std::vector<i64> tap_off;
  thread_local std::vector<F64x2> packed;
  tap_off.resize(static_cast<size_t>(taps));
  packed.resize(static_cast<size_t>(taps * c_group * kTileV));
  {
    i64 t = 0;
    for_each_index(a.kernel, [&](const Dims& tap) {
      i64 off = 0;
      for (int d = 0; d < spatial_rank; ++d) {
        off += dims[d + 1].tapc * tap[d] * in_stride[d + 1];
      }
      tap_off[static_cast<size_t>(t++)] = off;
    });
  }

  const bool relu = a.fused_relu;
  const int last = rank - 1;
  const i64 sx = dims[last].scale;
  const i64 row_x0 = ilo[last];
  const i64 row_len = ihi[last] - row_x0;
  const i64 row_full = row_len - row_len % kTileX;
  for (i64 g = 0; g < a.groups; ++g) {
    const float* in_g = input.data.data() + g * c_group * in_points;
    for (i64 m0 = g * m_group; m0 < (g + 1) * m_group; m0 += kTileM) {
      const int mb =
          static_cast<int>(std::min<i64>(kTileM, (g + 1) * m_group - m0));
      const int mv = (mb + 1) / 2;
      // Pack [tap][cg][2·mv] so a tile reads its weights contiguously.
      auto w = [&](int mi, i64 cg, i64 t) -> double {
        return mi < mb ? weights[static_cast<size_t>(
                             (m0 + mi) * c_group * taps + cg * taps + t)]
                       : 0.0;
      };
      F64x2* wp = packed.data();
      for (i64 t = 0; t < taps; ++t) {
        for (i64 cg = 0; cg < c_group; ++cg) {
          for (int j = 0; j < mv; ++j) {
            *wp++ = F64x2{w(2 * j, cg, t), w(2 * j + 1, cg, t)};
          }
        }
      }
      const ConvTileFn full = kTileFull[mv - 1];
      const ConvTileFn one = kTileOne[mv - 1];
      float* out_m = out.data() + m0 * out_points;
      i64 idx[Dims::kMaxRank];
      for (int d = 0; d < last; ++d) idx[d] = ilo[d];
      while (true) {
        i64 in_base = 0;
        i64 out_base = 0;
        for (int d = 0; d < last; ++d) {
          in_base +=
              (idx[d] * dims[d].scale + dims[d].base - input.lo[d]) *
              in_stride[d];
          out_base += (idx[d] - out_lo[d]) * out_stride[d];
        }
        const float* in_row =
            in_g + in_base + row_x0 * sx + dims[last].base - input.lo[last];
        float* out_row = out_m + out_base + (row_x0 - out_lo[last]);
        i64 x = 0;
        for (; x < row_full; x += kTileX) {
          full(in_row + x * sx, sx, in_points, tap_off.data(), taps, c_group,
               packed.data(), mb, relu, out_row + x, out_points);
        }
        for (; x < row_len; ++x) {
          one(in_row + x * sx, sx, in_points, tap_off.data(), taps, c_group,
              packed.data(), mb, relu, out_row + x, out_points);
        }
        int d = last - 1;
        for (; d >= 0; --d) {
          if (++idx[d] < ihi[d]) break;
          idx[d] = ilo[d];
        }
        if (d < 0) break;
      }
    }
  }
}

void conv_checks(const Node& node, const RegionInput& input,
                 std::span<const float> weights, const Dims& out_lo,
                 const Dims& out_extent, std::span<float> out) {
  const OpAttrs& a = node.attrs;
  BDL_CHECK(out_lo.rank() == a.kernel.rank() + 1);
  const i64 c_group = input.channels / a.groups;
  BDL_CHECK(static_cast<i64>(out.size()) >=
            a.out_channels * out_extent.product());
  BDL_CHECK(static_cast<i64>(weights.size()) >=
            a.out_channels * c_group * a.kernel.product());
}

}  // namespace

void conv_region_generic(const Node& node, const RegionInput& input,
                         std::span<const float> weights, const Dims& out_lo,
                         const Dims& out_extent, std::span<float> out) {
  conv_checks(node, input, weights, out_lo, out_extent, out);
  conv_box(node, input, weights, out_lo, out_extent, out_lo, out_extent, out);
}

void conv_region(const Node& node, const RegionInput& input,
                 std::span<const float> weights, const Dims& out_lo,
                 const Dims& out_extent, std::span<float> out) {
  conv_checks(node, input, weights, out_lo, out_extent, out);
  const OpAttrs& a = node.attrs;
  const int rank = out_lo.rank();
  const int spatial_rank = rank - 1;

  // Transposed convolution with stride > 1 has stride-phase validity (some
  // taps divide, some don't) which the interior/boundary split does not
  // model; only the stride-1 case maps onto the affine stencil form.
  bool fast_ok = true;
  if (a.transposed) {
    for (int d = 0; d < spatial_rank; ++d) {
      if (a.stride[d] != 1) fast_ok = false;
    }
  }

  detail::StencilDim dims[Dims::kMaxRank];
  i64 ilo[Dims::kMaxRank];
  i64 ihi[Dims::kMaxRank];
  if (fast_ok) {
    dims[0] = detail::StencilDim{};  // batch: identity, no taps
    for (int d = 0; d < spatial_rank; ++d) {
      detail::StencilDim& s = dims[d + 1];
      if (!a.transposed) {
        s = {a.stride[d], -a.padding[d], a.dilation[d], a.kernel[d]};
      } else {
        s = {1, a.padding[d], -a.dilation[d], a.kernel[d]};
      }
    }
    fast_ok = detail::interior_box(rank, dims, input.lo, input.extent, out_lo,
                                   out_extent, ilo, ihi);
  }
  if (!fast_ok) {
    conv_box(node, input, weights, out_lo, out_extent, out_lo, out_extent,
             out);
    return;
  }
  conv_interior(node, input, weights, dims, ilo, ihi, out_lo, out_extent, out);
  detail::for_each_boundary_slab(
      rank, out_lo, out_extent, ilo, ihi,
      [&](const Dims& slab_lo, const Dims& slab_extent) {
        conv_box(node, input, weights, slab_lo, slab_extent, out_lo,
                 out_extent, out);
      });
}

}  // namespace brickdl
