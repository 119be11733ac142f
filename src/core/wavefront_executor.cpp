#include "core/wavefront_executor.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace brickdl {
namespace {

/// The executor's one stage, checked for a spatial dim to skew along before
/// any buffer is registered.
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
      table_(graph, wave_stage(sg, brick_extent), backend, io, "wave:"),
      schedule_(wave_schedule(table_)) {
  stats_.skew = schedule_.skew;
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
    const int workers = backend_.num_workers();
    for (size_t wave = 0; wave < schedule_.waves.size(); ++wave) {
      const auto& bricks = schedule_.waves[wave];
      obs::TraceSpan wave_span("wave", "wave",
                               {{"wave", static_cast<i64>(wave)},
                                {"bricks", static_cast<i64>(bricks.size())}});
      int worker = 0;
      for (const auto& [layer, brick] : bricks) {
        compute_brick(worker, layer, brick);
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
