// Per-node tiled vendor-library execution — the cuDNN-style building block
// used both by the baseline executors and by the BrickDL engine when the
// brick-size model selects vendor fallback for tiny layers (§3.3.3).
#pragma once

#include <unordered_map>

#include "core/brick_walk.hpp"

namespace brickdl {

/// The vendor tiles of `node`'s output: its layer_grid at extent
/// [1, tile_side, ...] — one batch row, square spatial tiles clipped to the
/// layer, numbered row-major.
BrickGrid vendor_tiles(const Node& node, i64 tile_side);

/// Execute one node over its whole output in vendor-style tiles.
/// `io` maps each producer node id to its tensor; `out` receives the result.
/// Global ops (dense, global pooling) run as a single whole-tensor call.
void run_node_tiled(const Graph& graph, const Node& node, Backend& backend,
                    const std::unordered_map<int, TensorId>& io, TensorId out,
                    i64 tile_side = 32);

}  // namespace brickdl
