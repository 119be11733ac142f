// Wavefront merged execution — the §6 extension the paper sketches
// ("replacing cuDNN library calls with ... optimizations such as wavefront
// parallelization and performing skewed cuts across layers").
//
// Bricks are assigned to *waves* (wave_schedule, core/brick_walk.hpp): brick
// row r of the subgraph's ℓ-th layer belongs to wave  w = skew·ℓ + r,  with
// the skew factor chosen so that every dependence (which always points to an
// earlier layer) lands in a strictly earlier wave. Waves execute in order
// with a device-wide sync between them; bricks within a wave are independent
// and run concurrently.
//
// Compared to the paper's two strategies this trades differently:
//  * like memoized bricks, no redundant halo computation (exact bricks);
//  * like padded bricks, no per-brick atomics — the wave barrier is the
//    only synchronization (cost: t_wave_sync per wave);
//  * the pipeline fills diagonally, so parallelism ramps up and down at the
//    wavefront edges (classic skewed-tiling behaviour).
#pragma once

#include <unordered_map>

#include "core/brick_walk.hpp"
#include "util/status.hpp"

namespace brickdl {

class WavefrontExecutor {
 public:
  struct Stats {
    i64 waves = 0;
    i64 bricks_computed = 0;
    i64 skew = 0;
    i64 max_wave_width = 0;  ///< peak bricks in one wave (parallelism)
  };

  /// `io` maps external-input node ids and the terminal node id to backend
  /// tensors; `brick_extent` is shared by every layer (as in memoized).
  WavefrontExecutor(const Graph& graph, const Subgraph& sg,
                    const Dims& brick_extent, Backend& backend,
                    const std::unordered_map<int, TensorId>& io);

  /// Execute wave by wave. Deterministic; bricks within a wave are spread
  /// across backend workers round-robin. A faulting kernel aborts the sweep
  /// and returns a classified kKernelFailure; interior memo buffers are
  /// discarded either way.
  Status run_checked();
  /// Throwing wrapper (legacy call sites).
  void run() { run_checked().throw_if_error(); }

  const Stats& stats() const { return stats_; }

  /// The skew factor chosen for this subgraph (exposed for tests).
  i64 skew() const { return schedule_.skew; }

 private:
  void compute_brick(int worker, int layer, i64 brick);

  Backend& backend_;
  BrickTable table_;  // one stage: grids, memo buffers, input sources
  std::vector<SlotId> input_slots_;  // reused across compute_brick (serial)
  bool trace_gate_ = true;           ///< Tracer::enabled(), sampled per run
  WaveSchedule schedule_;
  Stats stats_;
};

}  // namespace brickdl
