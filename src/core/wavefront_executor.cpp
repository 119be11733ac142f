#include "core/wavefront_executor.hpp"

#include <algorithm>
#include <map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace brickdl {
namespace {

/// The executor's one stage, checked for a spatial dim to skew along.
std::vector<BrickStage> wave_stage(const Subgraph& sg,
                                   const Dims& brick_extent) {
  BDL_CHECK_MSG(brick_extent.rank() >= 2,
                "wavefront execution needs at least one spatial dim");
  return {BrickStage{&sg, brick_extent}};
}

}  // namespace

WavefrontExecutor::WavefrontExecutor(
    const Graph& graph, const Subgraph& sg, const Dims& brick_extent,
    Backend& backend, const std::unordered_map<int, TensorId>& io)
    : backend_(backend),
      table_(graph, wave_stage(sg, brick_extent), backend, io, "wave:") {
  skew_ = choose_skew();
  stats_.skew = skew_;
}

i64 WavefrontExecutor::wave_of(int layer, const Dims& grid_coord) const {
  // Row along the first spatial blocked dim (index 1; index 0 is batch).
  return skew_ * static_cast<i64>(layer) + grid_coord[1];
}

i64 WavefrontExecutor::choose_skew() const {
  // For every (layer, brick row), the highest producer brick row it depends
  // on must sit in a strictly earlier wave: skew·tp + r' < skew·t + r.
  i64 required = 1;
  for (int t = 0; t < table_.num_layers(); ++t) {
    const Node& node = table_.node(t);
    const BrickGrid& grid = table_.grid(t);
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

      for (int tp : table_.producers(t)) {
        if (tp < 0) continue;  // external: always ready
        const BrickGrid& p_grid = table_.grid(tp);
        const i64 hi = std::min(need_lo[1] + need_extent[1],
                                p_grid.blocked[1]) - 1;
        if (hi < 0) continue;
        const i64 dep_row_max = hi / p_grid.brick[1];
        const i64 gap = static_cast<i64>(t - tp);
        // skew·tp + dep_row_max < skew·t + r  =>  skew > (dep_row_max-r)/gap
        const i64 needed = (dep_row_max - r) / gap + 1;
        required = std::max(required, needed);
      }
    }
  }
  return required;
}

void WavefrontExecutor::compute_brick(int worker, int layer, i64 brick) {
  const Node& node = table_.node(layer);
  Dims lo, extent;
  table_.grid(layer).brick_window(brick, &lo, &extent);
  obs::TraceSpan layer_span("layer", node.name,
                            {{"node", node.id},
                             {"brick", brick},
                             {"worker", worker}},
                            trace_gate_);
  const SlotId out =
      run_invocation(backend_, worker, node, table_.sources(layer), lo,
                     extent, /*mask_to_bounds=*/false, brick, trace_gate_,
                     input_slots_);
  backend_.store_window(worker, out, table_.buffer(layer), lo, extent);
}

Status WavefrontExecutor::run_checked() {
  Status status;
  trace_gate_ = obs::Tracer::enabled();
  try {
    // Bucket every brick of every layer into its wave.
    std::map<i64, std::vector<BrickRef>> waves;
    for (int t = 0; t < table_.num_layers(); ++t) {
      const BrickGrid& grid = table_.grid(t);
      for (i64 b = 0; b < grid.num_bricks(); ++b) {
        waves[wave_of(t, grid.grid.unlinear(b))].push_back({t, b});
      }
    }

    const int workers = backend_.num_workers();
    for (const auto& [wave, bricks] : waves) {
      obs::TraceSpan wave_span(
          "wave", "wave",
          {{"wave", wave}, {"bricks", static_cast<i64>(bricks.size())}});
      int worker = 0;
      for (const BrickRef& ref : bricks) {
        compute_brick(worker, ref.layer, ref.brick);
        worker = (worker + 1) % workers;
      }
      backend_.tally_sync(1);
      ++stats_.waves;
      stats_.max_wave_width =
          std::max(stats_.max_wave_width, static_cast<i64>(bricks.size()));
      stats_.bricks_computed += static_cast<i64>(bricks.size());
    }
    backend_.tally_reduce(stats_.bricks_computed);
    obs::metrics().counter("wavefront.runs").add(1);
    obs::metrics().counter("wavefront.waves").add(stats_.waves);
    obs::metrics().counter("wavefront.bricks").add(stats_.bricks_computed);
  } catch (const StatusError& e) {
    status = e.status();
  } catch (const std::exception& e) {
    status = Status(StatusCode::kKernelFailure, e.what());
  }
  // Interior buffers are dead once the subgraph finishes (or aborts).
  table_.discard_interiors();
  return status;
}

}  // namespace brickdl
