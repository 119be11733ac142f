#include "core/brick_walk.hpp"

#include <map>

#include "obs/trace.hpp"

namespace brickdl {

BrickGrid layer_grid(const Node& node, const Dims& brick_extent) {
  const Dims bounds = node.out_shape.blocked_dims();
  BDL_CHECK_MSG(brick_extent.rank() == bounds.rank(),
                "brick extent " << brick_extent.str() << " vs layer '"
                                << node.name << "' bounds " << bounds.str());
  Dims extent = brick_extent;
  for (int d = 0; d < extent.rank(); ++d) {
    extent[d] = std::min(extent[d], bounds[d]);
  }
  return BrickGrid(bounds, extent);
}

BrickWalk::BrickWalk(const Graph& graph, const std::vector<BrickStage>& stages)
    : graph_(&graph) {
  BDL_CHECK_MSG(!stages.empty(), "chain needs at least one stage");
  // Node ids are unique across stages (subgraphs partition the graph), so
  // one flat index space carries the whole chain.
  std::unordered_map<int, int> layer_of;
  for (size_t s = 0; s < stages.size(); ++s) {
    const BrickStage& stage = stages[s];
    BDL_CHECK_MSG(stage.sg != nullptr, "chain stage has no subgraph");
    validate_subgraph(graph, *stage.sg);
    BDL_CHECK_MSG(stage.brick_extent.rank() == stages[0].brick_extent.rank(),
                  "chained stages must share the blocked rank (stage "
                      << s << " has rank " << stage.brick_extent.rank()
                      << ")");
    for (int id : stage.sg->nodes) {
      BDL_CHECK_MSG(!layer_of.count(id), "node '" << graph.node(id).name
                                                  << "' appears in two chain "
                                                     "stages");
      const int layer = num_layers();
      layer_of.emplace(id, layer);
      node_ids_.push_back(id);
      layer_stage_.push_back(static_cast<int>(s));
      grids_.push_back(layer_grid(graph.node(id), stage.brick_extent));
      std::vector<int> producers;
      producers.reserve(graph.node(id).inputs.size());
      for (int p : graph.node(id).inputs) {
        const auto it = layer_of.find(p);
        producers.push_back(it == layer_of.end() ? -1 : it->second);
      }
      producers_.push_back(std::move(producers));
    }
    stage_end_.push_back(num_layers());
  }
  // A producer listed in a *later* stage was resolved as external above.
  for (int layer = 0; layer < num_layers(); ++layer) {
    for (int p : node(layer).inputs) {
      const auto it = layer_of.find(p);
      BDL_CHECK_MSG(it == layer_of.end() || it->second < layer,
                    "chain stages out of topological order: '"
                        << graph.node(p).name << "' consumed before it is "
                        << "produced");
    }
  }
}

i64 BrickWalk::total_bricks() const {
  i64 total = 0;
  for (const BrickGrid& g : grids_) total += g.num_bricks();
  return total;
}

BrickTable::BrickTable(const Graph& graph,
                       const std::vector<BrickStage>& stages, Backend& backend,
                       const std::unordered_map<int, TensorId>& io,
                       const std::string& prefix)
    : BrickWalk(graph, stages), backend_(backend) {
  for (int s = 0; s < num_stages(); ++s) {
    BDL_CHECK_MSG(io.count(node_id(stage_terminal(s))),
                  "io map must provide the terminal output tensor of stage "
                      << s << " ('" << node(stage_terminal(s)).name << "')");
  }
  for (int layer = 0; layer < num_layers(); ++layer) {
    const std::vector<int>& producers = this->producers(layer);
    for (size_t i = 0; i < producers.size(); ++i) {
      const int p = node(layer).inputs[i];
      BDL_CHECK_MSG(producers[i] >= 0 || io.count(p),
                    "io map must provide external input "
                        << graph.node(p).name);
    }
  }
  buffers_.reserve(static_cast<size_t>(num_layers()));
  sources_.reserve(static_cast<size_t>(num_layers()));
  for (int layer = 0; layer < num_layers(); ++layer) {
    const Node& n = node(layer);
    buffers_.push_back(is_stage_terminal(layer)
                           ? io.at(n.id)
                           : backend.register_tensor(n.out_shape,
                                                     Layout::kBricked,
                                                     grid(layer).brick,
                                                     prefix + n.name));
    std::vector<TensorId> srcs;
    srcs.reserve(n.inputs.size());
    for (size_t i = 0; i < n.inputs.size(); ++i) {
      const int p = producers(layer)[i];
      srcs.push_back(p < 0 ? io.at(n.inputs[i]) : buffer(p));
    }
    sources_.push_back(std::move(srcs));
  }
}

void BrickTable::discard_interiors() {
  for (int layer = 0; layer < num_layers(); ++layer) {
    if (!is_stage_terminal(layer)) backend_.discard_tensor(buffer(layer));
  }
}

WaveSchedule wave_schedule(const BrickWalk& walk) {
  BDL_CHECK_MSG(walk.grid(0).rank() >= 2,
                "wavefront execution needs at least one spatial dim");
  // For every (layer, brick row), the highest producer brick row it depends
  // on must sit in a strictly earlier wave: skew·tp + r' < skew·t + r.
  WaveSchedule schedule;
  for (int t = 0; t < walk.num_layers(); ++t) {
    const Node& node = walk.node(t);
    const BrickGrid& grid = walk.grid(t);
    for (i64 r = 0; r < grid.grid[1]; ++r) {
      const i64 lo = r * grid.brick[1];
      const i64 extent = std::min(grid.brick[1], grid.blocked[1] - lo);
      // Representative output window covering the full row band.
      Dims out_lo = Dims::filled(grid.rank(), 0);
      Dims out_extent = grid.blocked;
      out_lo[1] = lo;
      out_extent[1] = extent;
      Dims need_lo, need_extent;
      input_window_blocked(node, out_lo, out_extent, &need_lo, &need_extent);

      for (int tp : walk.producers(t)) {
        if (tp < 0) continue;  // external: always ready
        const BrickGrid& p_grid = walk.grid(tp);
        const i64 hi = std::min(need_lo[1] + need_extent[1],
                                p_grid.blocked[1]) - 1;
        if (hi < 0) continue;
        const i64 dep_row_max = hi / p_grid.brick[1];
        const i64 gap = static_cast<i64>(t - tp);
        // skew·tp + dep_row_max < skew·t + r  =>  skew > (dep_row_max-r)/gap
        schedule.skew = std::max(schedule.skew, (dep_row_max - r) / gap + 1);
      }
    }
  }
  // Bucket every brick of every layer by its wave; empty waves drop out.
  std::map<i64, std::vector<std::pair<int, i64>>> waves;
  for (int t = 0; t < walk.num_layers(); ++t) {
    const BrickGrid& grid = walk.grid(t);
    for (i64 b = 0; b < grid.num_bricks(); ++b) {
      waves[schedule.skew * t + grid.grid.unlinear(b)[1]].emplace_back(t, b);
    }
  }
  for (auto& [wave, bricks] : waves) {
    schedule.waves.push_back(std::move(bricks));
  }
  return schedule;
}

SlotId run_invocation(Backend& backend, int worker, const Node& node,
                      const std::vector<TensorId>& srcs, const Dims& lo,
                      const Dims& extent, bool mask_to_bounds, i64 brick,
                      bool traced, std::vector<SlotId>& slots) {
  backend.invocation_begin(worker);
  Dims need_lo, need_extent;
  input_window_blocked(node, lo, extent, &need_lo, &need_extent);
  slots.clear();
  for (TensorId src : srcs) {
    slots.push_back(backend.load_window(worker, src, need_lo, need_extent));
  }
  SlotId out;
  {
    obs::TraceSpan span("brick", node.name, {{"brick", brick}}, traced);
    out = backend.compute(worker, node.id, slots, lo, extent, mask_to_bounds);
  }
  for (SlotId s : slots) backend.free_slot(worker, s);
  return out;
}

void dispatch_invocations(Backend& backend, i64 n,
                          const std::function<void(i64, int)>& fn) {
  ThreadPool* pool = backend.pool();
  if (!pool) {
    const int workers = backend.num_workers();
    for (i64 i = 0; i < n; ++i) fn(i, static_cast<int>(i * workers / n));
    return;
  }
  BDL_CHECK_MSG(pool->size() + 1 == backend.num_workers(),
                "backend pool must have one thread per worker but the last");
  // ~8 chunks per worker balances steal granularity against cursor
  // contention when the units are small and numerous.
  pool->parallel_for_ranges_with_caller(
      n, std::max<i64>(1, n / (8 * backend.num_workers())),
      [&fn](i64 begin, i64 end, int worker) {
        for (i64 i = begin; i < end; ++i) fn(i, worker);
      });
}

}  // namespace brickdl
