#include "core/padded_executor.hpp"

#include "core/brick_walk.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace brickdl {

PaddedExecutor::PaddedExecutor(const Graph& graph, const Subgraph& sg,
                               const HaloPlan& plan, Backend& backend,
                               const std::unordered_map<int, TensorId>& io)
    : graph_(graph), sg_(sg), plan_(plan), backend_(backend) {
  BDL_CHECK_MSG(io.count(sg.terminal()),
                "io map must provide the terminal output tensor");
  for (int ext : sg.external_inputs) {
    BDL_CHECK_MSG(io.count(ext), "io map must provide external input "
                                     << graph.node(ext).name);
  }

  // Per-worker scratch tensors (the on-chip arena) for every non-terminal
  // node's padded window. A scratch tensor is shaped like the node's
  // activation; halo positions outside the layer bounds are masked to zero
  // before the store, so the store/load round-trip is value-preserving.
  const int workers = backend.num_workers();
  std::vector<std::unordered_map<int, TensorId>> tensors(
      static_cast<size_t>(workers), io);  // per worker: node -> tensor
  for (int n : sg.nodes) {
    if (n == sg.terminal()) continue;
    for (int w = 0; w < workers; ++w) {
      const TensorId id = backend.register_tensor(
          graph.node(n).out_shape, Layout::kOnChipScratch, {},
          "padded_scratch:" + graph.node(n).name + ":w" + std::to_string(w));
      tensors[static_cast<size_t>(w)][n] = id;
      scratch_.push_back(id);
    }
  }
  for (int n : sg.nodes) {
    std::vector<LayerIo> per_worker;
    for (const auto& t : tensors) {
      LayerIo layer;
      for (int p : graph.node(n).inputs) layer.srcs.push_back(t.at(p));
      layer.dst = t.at(n);
      per_worker.push_back(std::move(layer));
    }
    layer_io_.push_back(std::move(per_worker));
  }
  worker_scratch_.resize(static_cast<size_t>(workers));
}

void PaddedExecutor::run_brick(i64 brick_index, int worker, bool traced) {
  const Dims g = plan_.terminal_grid().unlinear(brick_index);
  WorkerScratch& ws = worker_scratch_[static_cast<size_t>(worker)];
  plan_.windows_for_brick(g, &ws.windows);

  for (size_t i = 0; i < sg_.nodes.size(); ++i) {
    const Node& node = graph_.node(sg_.nodes[i]);
    const BlockedWindow& out_w = ws.windows.at(node.id);
    const LayerIo& layer = layer_io_[i][static_cast<size_t>(worker)];
    obs::TraceSpan layer_span("layer", node.name,
                              {{"node", node.id},
                               {"brick", brick_index},
                               {"worker", worker}},
                              traced);
    // Every invocation gathers exactly the window it consumes: from the
    // source tensor for external producers, from the worker's arena for
    // intermediates computed earlier in this brick's chain. Intermediate
    // windows are masked to the true layer bounds.
    const bool intermediate = node.id != sg_.terminal();
    const SlotId out = run_invocation(
        backend_, worker, node, layer.srcs, out_w.lo, out_w.extent,
        /*mask_to_bounds=*/intermediate, brick_index, traced, ws.input_slots);
    backend_.store_window(worker, out, layer.dst, out_w.lo, out_w.extent);
  }
}

Status PaddedExecutor::run_checked() {
  Status status;
  // One enabled-check per run instead of one per span in the brick loop:
  // disabled-tracing runs construct every span pre-gated off.
  const bool traced = obs::Tracer::enabled();
  try {
    const i64 n = plan_.num_bricks();
    dispatch_invocations(backend_, n, [this, traced](i64 i, int worker) {
      run_brick(i, worker, traced);
    });
    bricks_executed_ += n;
    obs::metrics().counter("padded.runs").add(1);
    obs::metrics().counter("padded.bricks").add(n);
    obs::metrics().counter("padded.invocations")
        .add(n * static_cast<i64>(sg_.nodes.size()));
    backend_.tally_reduce(n);
  } catch (const StatusError& e) {
    status = e.status();
  } catch (const std::exception& e) {
    status = Status(StatusCode::kKernelFailure, e.what());
  }
  // Intermediate windows are dead (success or abort): drop without writeback.
  for (TensorId id : scratch_) backend_.discard_tensor(id);
  return status;
}

}  // namespace brickdl
