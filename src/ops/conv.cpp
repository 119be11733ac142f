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
/// output region [out_lo, out_lo+out_extent). Serves the whole-region
/// generic path: conv_region_generic (the test oracle) and transposed
/// convolution with stride > 1.
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

/// Kernel dims a clamped tap box is walked over: every spatial dim, padded
/// at the front with single-tap dims.
constexpr int kTapDims = Dims::kMaxRank - 2;

/// One boundary output point: its offset in the output region, the input
/// offset (group channel 0) of its tap 0, and its valid tap box [lo, hi)
/// per kernel dim. An empty box (any hi <= lo) means no tap reads inside the
/// window.
struct ClampedPoint {
  i64 out_off = 0;
  i64 in_off = 0;
  i64 lo[kTapDims] = {};
  i64 hi[kTapDims] = {};
};

/// Per-call steps of a tap box walk, padded like ClampedPoint: the input
/// offset and the linear kernel index of one tap along each kernel dim.
struct TapSteps {
  i64 in[kTapDims] = {};
  i64 idx[kTapDims] = {};
};

/// One boundary output point for up to 2·MV channels: conv_tile with one
/// point, over only the point's valid tap box, walked row-major with direct
/// input offsets. `wp` is the same packed m-block as conv_tile's.
template <int MV>
void conv_point(const float* in, i64 in_points, const ClampedPoint& p,
                const TapSteps& step, i64 c_group, const F64x2* wp, int mb,
                bool relu, float* out, i64 out_points) {
  static_assert(kTapDims == 3, "the tap box walk is unrolled for 3 dims");
  F64x2 acc[MV] = {};
  for (i64 t0 = p.lo[0]; t0 < p.hi[0]; ++t0) {
    for (i64 t1 = p.lo[1]; t1 < p.hi[1]; ++t1) {
      for (i64 t2 = p.lo[2]; t2 < p.hi[2]; ++t2) {
        const float* in_t = in + (p.in_off + t0 * step.in[0] +
                                  t1 * step.in[1] + t2 * step.in[2]);
        const F64x2* w_t =
            wp + (t0 * step.idx[0] + t1 * step.idx[1] + t2) * c_group * MV;
        for (i64 cg = 0; cg < c_group; ++cg, w_t += MV) {
          const double v = in_t[cg * in_points];
          for (int j = 0; j < MV; ++j) acc[j] += v * w_t[j];
        }
      }
    }
  }
  for (int mi = 0; mi < mb; ++mi) {
    float v = static_cast<float>(acc[mi / 2][mi % 2]);
    if (relu && v < 0.0f) v = 0.0f;
    out[mi * out_points] = v;
  }
}

using ConvPointFn = void (*)(const float*, i64, const ClampedPoint&,
                             const TapSteps&, i64, const F64x2*, int, bool,
                             float*, i64);

/// Clamped-tap boundary points, indexed by vector count − 1.
constexpr ConvPointFn kPoint[kTileV] = {conv_point<1>, conv_point<2>};

/// Taps t in [0, ktaps) of one stencil dim whose input coordinate
/// `first + tapc·t` (window-relative; `first` is tap 0's) lies in
/// [0, extent), as the interval [*lo, *hi).
void tap_interval(const detail::StencilDim& s, i64 first, i64 extent, i64* lo,
                  i64* hi) {
  if (s.tapc > 0) {
    *lo = std::max<i64>(0, detail::ceil_div(-first, s.tapc));
    *hi = std::min(s.ktaps, detail::floor_div(extent - 1 - first, s.tapc) + 1);
  } else if (s.tapc < 0) {
    *lo = std::max<i64>(0, detail::ceil_div(first - extent + 1, -s.tapc));
    *hi = std::min(s.ktaps, detail::floor_div(first, -s.tapc) + 1);
  } else {
    *lo = 0;
    *hi = first >= 0 && first < extent ? s.ktaps : 0;
  }
}

/// Append every point of the output box [lo, lo+extent) to `pts`, with each
/// kernel dim's valid tap interval derived from the input window bounds.
/// Dim 0 (batch) has the single tap 0; if it lies outside the window, the
/// point's tap box is made empty.
void clamp_box(const detail::StencilDim* dims, int rank,
               const RegionInput& input, const i64* in_stride,
               const i64* out_stride, const Dims& out_lo, const Dims& lo,
               const Dims& extent, std::vector<ClampedPoint>* pts) {
  const int pad = kTapDims - (rank - 1);  // leading single-tap kernel dims
  i64 win_lo[Dims::kMaxRank], win_ext[Dims::kMaxRank];
  i64 box_lo[Dims::kMaxRank], box_hi[Dims::kMaxRank], rel0[Dims::kMaxRank];
  i64 o[Dims::kMaxRank];
  for (int d = 0; d < rank; ++d) {
    win_lo[d] = input.lo[d];
    win_ext[d] = input.extent[d];
    box_lo[d] = lo[d];
    box_hi[d] = lo[d] + extent[d];
    rel0[d] = out_lo[d];
    o[d] = box_lo[d];
  }
  while (true) {
    ClampedPoint p;
    for (int k = 0; k < pad; ++k) p.hi[k] = 1;
    bool batch_inside = true;
    for (int d = 0; d < rank; ++d) {
      const i64 first = o[d] * dims[d].scale + dims[d].base - win_lo[d];
      if (d == 0) {
        batch_inside = first >= 0 && first < win_ext[0];
      } else {
        tap_interval(dims[d], first, win_ext[d], &p.lo[pad + d - 1],
                     &p.hi[pad + d - 1]);
      }
      p.in_off += first * in_stride[d];
      p.out_off += (o[d] - rel0[d]) * out_stride[d];
    }
    if (!batch_inside) p.hi[0] = p.lo[0];
    pts->push_back(p);
    int d = rank - 1;
    for (; d >= 0; --d) {
      if (++o[d] < box_hi[d]) break;
      o[d] = box_lo[d];
    }
    if (d < 0) return;
  }
}

/// Fast path for every convolution except transposed stride > 1. Output
/// channels are walked in m-blocks of up to kTileM that never straddle a
/// group; each m-block's weights are packed once. The interior box (where
/// every tap of every point reads inside the input window) is swept row by
/// row in tiles of kTileX points plus a one-point tail; the boundary slabs
/// around it (or the whole region, if the interior is empty) run one point
/// at a time over the point's clamped tap box. Results are bit-identical to
/// conv_box (see conv_tile; a skipped tap adds 0·w = ±0 there, which never
/// changes an accumulator that starts at +0).
void conv_fast(const Node& node, const RegionInput& input,
               std::span<const float> weights, const detail::StencilDim* dims,
               bool has_interior, const i64* ilo, const i64* ihi,
               const Dims& out_lo, const Dims& out_extent,
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
  TapSteps step;
  BDL_CHECK(spatial_rank <= kTapDims);
  i64 tap_idx = 1;
  for (int d = spatial_rank - 1; d >= 0; --d) {
    const int k = kTapDims - spatial_rank + d;
    step.in[k] = dims[d + 1].tapc * in_stride[d + 1];
    step.idx[k] = tap_idx;
    tap_idx *= a.kernel[d];
  }

  // Scratch: per-tap input-offset deltas (row-major tap order, matching the
  // generic path's accumulation sequence), the boundary points, then one
  // packed m-block.
  thread_local std::vector<i64> tap_off;
  thread_local std::vector<ClampedPoint> clamped;
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
  clamped.clear();
  auto clamp = [&](const Dims& lo, const Dims& extent) {
    clamp_box(dims, rank, input, in_stride, out_stride, out_lo, lo, extent,
              &clamped);
  };
  if (has_interior) {
    detail::for_each_boundary_slab(rank, out_lo, out_extent, ilo, ihi, clamp);
  } else {
    clamp(out_lo, out_extent);
  }

  const bool relu = a.fused_relu;
  const int last = rank - 1;
  const i64 sx = dims[last].scale;
  const i64 row_x0 = has_interior ? ilo[last] : 0;
  const i64 row_len = has_interior ? ihi[last] - row_x0 : 0;
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
      float* out_m = out.data() + m0 * out_points;
      const ConvPointFn point = kPoint[mv - 1];
      for (const ClampedPoint& p : clamped) {
        point(in_g, in_points, p, step, c_group, packed.data(), mb, relu,
              out_m + p.out_off, out_points);
      }
      if (!has_interior) continue;
      const ConvTileFn full = kTileFull[mv - 1];
      const ConvTileFn one = kTileOne[mv - 1];
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

  if (!fast_ok) {
    conv_box(node, input, weights, out_lo, out_extent, out_lo, out_extent,
             out);
    return;
  }
  detail::StencilDim dims[Dims::kMaxRank];
  dims[0] = detail::StencilDim{};  // batch: identity, no taps
  for (int d = 0; d < spatial_rank; ++d) {
    detail::StencilDim& s = dims[d + 1];
    if (!a.transposed) {
      s = {a.stride[d], -a.padding[d], a.dilation[d], a.kernel[d]};
    } else {
      s = {1, a.padding[d], -a.dilation[d], a.kernel[d]};
    }
  }
  i64 ilo[Dims::kMaxRank];
  i64 ihi[Dims::kMaxRank];
  const bool has_interior = detail::interior_box(
      rank, dims, input.lo, input.extent, out_lo, out_extent, ilo, ihi);
  conv_fast(node, input, weights, dims, has_interior, ilo, ihi, out_lo,
            out_extent, out);
}

}  // namespace brickdl
