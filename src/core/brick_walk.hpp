// The brick walk (§3.2, DESIGN.md §2): the one definition of which bricks a
// layer has and which producer bricks each one needs.
//
// Every BrickDL strategy is a traversal over the same bricks. The exact-brick
// executors (memoized §3.2.2, wavefront §6) compute each needed brick of each
// layer once; the §4 predictor counts those bricks; the partitioner prices
// them; the vendor tier's tiles (baselines/vendor_tiled.hpp, vendor_tiles)
// are the same grid at extent [1, tile, ...].
// All of them take their geometry from here, so the schedule the cost model
// predicts is by construction the schedule the executors run:
//  * layer_grid()  — a layer's brick grid, the extent clipped to its bounds;
//  * BrickWalk     — a flattened chain of subgraph stages: per layer its grid
//                    and in-chain producers, the producer-brick enumeration
//                    (for_each_dep) and the reachability walk from the stage
//                    terminals (for_each_reachable);
//  * BrickTable    — a BrickWalk bound to backend buffers: the per-layer
//                    memo/terminal tensors and input sources both exact-brick
//                    executors compute into;
//  * run_invocation() — one kernel invocation: begin, load the input window
//                    from each source, compute, free the inputs;
//  * wave_schedule() — the §6 wavefront waves over a walk's bricks, which
//                    the wavefront executor runs and the predictor counts;
//  * dispatch_invocations() — the one loop over n independent
//                    invocations: the backend's pool if it has one, else a
//                    serial walk (DESIGN.md §14).
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "brick/brick_grid.hpp"
#include "core/backend.hpp"
#include "core/subgraph.hpp"
#include "graph/halo.hpp"

namespace brickdl {

/// Brick grid of `node`'s output at `brick_extent` (over its blocked dims),
/// the extent clipped per dim to the layer bounds. Bricks are numbered in
/// row-major grid order.
BrickGrid layer_grid(const Node& node, const Dims& brick_extent);

/// One stage of a chain: a merged subgraph and the brick extent shared by
/// its layers (§3.3.4).
struct BrickStage {
  const Subgraph* sg = nullptr;
  Dims brick_extent;
};

class BrickWalk {
 public:
  /// Flatten `stages` (consecutive subgraphs in partition order, sharing the
  /// blocked rank) into one layer index space. A layer consumed by a later
  /// stage is an in-chain producer there, not an external input.
  BrickWalk(const Graph& graph, const std::vector<BrickStage>& stages);

  int num_layers() const { return static_cast<int>(node_ids_.size()); }
  int num_stages() const { return static_cast<int>(stage_end_.size()); }
  int node_id(int layer) const { return node_ids_[idx(layer)]; }
  const Node& node(int layer) const { return graph_->node(node_id(layer)); }
  int stage_of(int layer) const { return layer_stage_[idx(layer)]; }
  int stage_terminal(int stage) const { return stage_end_[idx(stage)] - 1; }
  bool is_stage_terminal(int layer) const {
    return layer == stage_terminal(stage_of(layer));
  }
  const BrickGrid& grid(int layer) const { return grids_[idx(layer)]; }
  /// Per input of `layer`, in order: the producing layer, or -1 for an input
  /// from outside the chain (fully materialized; no dependence tracking).
  const std::vector<int>& producers(int layer) const {
    return producers_[idx(layer)];
  }
  i64 total_bricks() const;

  /// fn(producer_layer, producer_brick) for every in-chain producer brick
  /// that brick `brick` of `layer` reads: the producer bricks overlapping its
  /// input window, clipped to the producer's bounds (out-of-bounds halo is
  /// zero-filled and depends on nothing). Inputs in order, bricks row-major.
  template <typename Fn>
  void for_each_dep(int layer, i64 brick, Fn&& fn) const;

  /// visit(layer, brick) once for every brick some stage-terminal brick
  /// transitively depends on — exactly the bricks a memoized run computes.
  /// Depth-first from the terminals (stage order, bricks in order); a brick
  /// is visited before its producers are enqueued. Returns the count.
  template <typename Fn>
  i64 for_each_reachable(Fn&& visit) const;

 private:
  static size_t idx(int i) { return static_cast<size_t>(i); }

  const Graph* graph_;
  std::vector<int> node_ids_;     // layer -> graph node id
  std::vector<int> layer_stage_;  // layer -> stage
  std::vector<int> stage_end_;    // stage -> one past its terminal layer
  std::vector<BrickGrid> grids_;  // layer -> clipped brick grid
  std::vector<std::vector<int>> producers_;
};

/// A BrickWalk bound to backend buffers: each stage terminal writes its io
/// tensor, every other layer a bricked buffer registered here (in layer
/// order, named `prefix` + node name), and each layer's inputs read from the
/// producing layer's buffer or the io map.
class BrickTable : public BrickWalk {
 public:
  /// `io` must map every stage terminal to its out tensor and every input
  /// external to the whole chain.
  BrickTable(const Graph& graph, const std::vector<BrickStage>& stages,
             Backend& backend, const std::unordered_map<int, TensorId>& io,
             const std::string& prefix);

  TensorId buffer(int layer) const {
    return buffers_[static_cast<size_t>(layer)];
  }
  /// One source tensor per input of `layer`, in input order.
  const std::vector<TensorId>& sources(int layer) const {
    return sources_[static_cast<size_t>(layer)];
  }
  /// Drop the interior buffers; stage terminals are the caller's tensors.
  void discard_interiors();

 private:
  Backend& backend_;
  std::vector<TensorId> buffers_;
  std::vector<std::vector<TensorId>> sources_;
};

/// The §6 wavefront schedule of `walk`'s bricks: brick row r (along the
/// first spatial dim) of layer ℓ belongs to wave skew·ℓ + r, with the
/// smallest skew that puts every in-chain dependence in a strictly earlier
/// wave (one always exists for αX+β ops).
struct WaveSchedule {
  i64 skew = 1;
  /// The non-empty waves in order; each lists its (layer, brick) pairs by
  /// layer, then brick.
  std::vector<std::vector<std::pair<int, i64>>> waves;
};
WaveSchedule wave_schedule(const BrickWalk& walk);

/// One kernel invocation on `worker`, the step every brick and vendor tile
/// takes: begin the invocation, load `node`'s input window for the output
/// window [lo, lo+extent) from each of `srcs` (one per input, in order),
/// compute the window — inside a "brick" span tagged `brick` when `traced`
/// — and free the loaded inputs. Returns the result slot for the caller to
/// store. `slots` is caller-owned scratch, so a hot loop allocates nothing.
SlotId run_invocation(Backend& backend, int worker, const Node& node,
                      const std::vector<TensorId>& srcs, const Dims& lo,
                      const Dims& extent, bool mask_to_bounds, i64 brick,
                      bool traced, std::vector<SlotId>& slots);

/// fn(i, worker) for every i in [0, n), each call one unit of independent
/// work (a padded terminal brick, a vendor tile). With no backend pool the
/// calls run serially in index order, index i on worker i·workers/n — the
/// contiguous per-worker ranges of GPU block scheduling, and the order the
/// model's access stream pins. With a pool they run concurrently in chunks
/// on the pool threads and the calling thread, each thread's index its
/// worker; the first throw abandons the unclaimed work and is rethrown once
/// every chunk has resolved.
void dispatch_invocations(Backend& backend, i64 n,
                          const std::function<void(i64, int)>& fn);

template <typename Fn>
void BrickWalk::for_each_dep(int layer, i64 brick, Fn&& fn) const {
  Dims lo, extent;
  grid(layer).brick_window(brick, &lo, &extent);
  Dims need_lo, need_extent;
  input_window_blocked(node(layer), lo, extent, &need_lo, &need_extent);
  for (int p : producers(layer)) {
    if (p < 0) continue;
    const BrickGrid& p_grid = grid(p);
    Dims b_lo = need_lo, b_cnt = need_extent;
    bool empty = false;
    for (int d = 0; d < need_lo.rank(); ++d) {
      const i64 a = std::max<i64>(need_lo[d], 0);
      const i64 b =
          std::min<i64>(need_lo[d] + need_extent[d], p_grid.blocked[d]);
      if (b <= a) {
        empty = true;
        break;
      }
      b_lo[d] = a / p_grid.brick[d];
      b_cnt[d] = (b - 1) / p_grid.brick[d] - b_lo[d] + 1;
    }
    if (empty) continue;
    Dims i = b_lo;
    const i64 n_deps = b_cnt.product();
    for (i64 k = 0; k < n_deps; ++k) {
      fn(p, p_grid.grid.linear(i));
      for (int d = i.rank() - 1; d >= 0; --d) {
        if (++i[d] - b_lo[d] < b_cnt[d]) break;
        i[d] = b_lo[d];
      }
    }
  }
}

template <typename Fn>
i64 BrickWalk::for_each_reachable(Fn&& visit) const {
  std::vector<std::vector<char>> seen;
  seen.reserve(grids_.size());
  for (const BrickGrid& g : grids_) {
    seen.emplace_back(static_cast<size_t>(g.num_bricks()), 0);
  }
  std::vector<std::pair<int, i64>> frontier;
  const auto enqueue = [&](int layer, i64 brick) {
    char& mark = seen[idx(layer)][static_cast<size_t>(brick)];
    if (!mark) {
      mark = 1;
      frontier.emplace_back(layer, brick);
    }
  };
  for (int s = 0; s < num_stages(); ++s) {
    const int terminal = stage_terminal(s);
    for (i64 b = 0; b < grid(terminal).num_bricks(); ++b) enqueue(terminal, b);
  }
  i64 count = 0;
  while (!frontier.empty()) {
    const auto [layer, brick] = frontier.back();
    frontier.pop_back();
    ++count;
    visit(layer, brick);
    for_each_dep(layer, brick, enqueue);
  }
  return count;
}

}  // namespace brickdl
