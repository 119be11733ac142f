#include "baselines/vendor_tiled.hpp"

namespace brickdl {

BrickGrid vendor_tiles(const Node& node, i64 tile_side) {
  Dims tile = Dims::filled(node.out_shape.blocked_dims().rank(), tile_side);
  tile[0] = 1;
  return layer_grid(node, tile);
}

void run_node_tiled(const Graph& graph, const Node& node, Backend& backend,
                    const std::unordered_map<int, TensorId>& io, TensorId out,
                    i64 tile_side) {
  std::vector<TensorId> srcs;
  for (int p : node.inputs) srcs.push_back(io.at(p));
  if (node.kind == OpKind::kDense || node.kind == OpKind::kGlobalAvgPool) {
    backend.execute_global(0, node.id, srcs, out);
    return;
  }

  // One invocation per tile through dispatch_invocations. Vendor tiles
  // carry no "brick" span.
  const BrickGrid tiles = vendor_tiles(node, tile_side);
  std::vector<std::vector<SlotId>> slots(
      static_cast<size_t>(backend.num_workers()));  // per-worker scratch
  dispatch_invocations(backend, tiles.num_bricks(), [&](i64 t, int worker) {
    Dims lo, extent;
    tiles.brick_window(t, &lo, &extent);
    const SlotId result = run_invocation(
        backend, worker, node, srcs, lo, extent, /*mask_to_bounds=*/false, t,
        /*traced=*/false, slots[static_cast<size_t>(worker)]);
    backend.store_window(worker, result, out, lo, extent);
  });
  (void)graph;
}

}  // namespace brickdl
