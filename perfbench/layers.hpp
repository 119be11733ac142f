// Library calls shared by the workloads: the simulated (modeled A100) pass
// of an engine or of the cuDNN-rules baseline, seeded inputs with their
// reference outputs, and per-operator time attribution for the traced run.
//
// The engine does not expose per-node times, so the benchmark replays an
// engine's partition subgraph by subgraph (run_planned_subgraph_checked, the
// engine's own per-subgraph entry point) through TimedBackend, a forwarding
// Backend that times every call into the real backend. Each compute (or
// execute_global) call is charged to its node's operator kind, together with
// the window loads that fed it and the window store that followed it on the
// same worker. On a NumericBackend that is kernel + gather/scatter time; on a
// ModelBackend, where compute only tallies and the loads and stores emit the
// simulated access stream, it is simulator emission time.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "bench.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"

namespace perfbench {

/// One simulated pass: counters, tallies and the modeled breakdown, as the
/// figure harnesses report them (`serial_total()` is the Figure 7
/// end-to-end time T_dram + T_compute_side).
struct ModeledPass {
  brickdl::bench::RunResult run;
  double host_seconds = 0.0;  ///< wall time of the pass

  double modeled_seconds() const { return run.serial_total(); }
};

/// Run `engine` (planned over `graph`) on a fresh MemoryHierarchySim +
/// ModelBackend. kOk or the engine's failure.
brickdl::Status simulate_engine(const brickdl::Graph& graph,
                                brickdl::Engine& engine, ModeledPass& pass);

/// The tiled-cuDNN baseline (every operator its own kernel) on a fresh
/// simulator: bench::run_baseline with FusionRules::kNone, timed.
ModeledPass simulate_cudnn(const brickdl::Graph& graph);

/// Add `modeled_ms` and `modeled_vs_cudnn` for one graph: `engine` planned
/// over `planned` (the rewritten graph) against the cuDNN baseline on
/// `built` (the graph before rewriting). One simulated pass each; both are
/// deterministic.
void report_modeled(const brickdl::Graph& built, const brickdl::Graph& planned,
                    brickdl::Engine& engine, Report& report);

/// Same dims and the same bits.
bool bit_equal(const brickdl::Tensor& a, const brickdl::Tensor& b);

/// `count` seeded random inputs for the graph's input node; the same seed
/// gives the same inputs.
std::vector<brickdl::Tensor> make_inputs(const brickdl::Graph& graph,
                                         brickdl::u64 seed, int count);

/// The expected output for every input, computed outside any timing:
/// run_graph_reference on `graph`, cross-checked against the eager
/// interpreter, which shares no kernel code with the region kernels (so a
/// kernel bug cannot pass by changing engine and reference alike). Each
/// cross-check is one attempted operation in `report`.
std::vector<brickdl::Tensor> reference_outputs(
    const brickdl::Graph& graph, brickdl::WeightStore& weights,
    const std::vector<brickdl::Tensor>& inputs, Report& report);

/// Add `<prefix>.subgraphs` and `<prefix>.nodes.{padded,memoized,vendor}`:
/// how many nodes the plan gives each strategy.
void report_partition(const std::string& prefix,
                      const brickdl::Partition& partition, Report& report);

/// Operator groups the per-layer metrics report ("dense" covers dense and
/// global average pooling; "other" everything the two models do not use).
enum class OpGroup { kConv, kAdd, kRelu, kPool, kDense, kSoftmax, kOther };
constexpr int kOpGroups = 7;
const char* op_group_name(OpGroup group);

struct OpTimes {
  std::array<double, kOpGroups> seconds{};
  double conv_flops = 0.0;  ///< FLOPs of the conv nodes computed
};

/// Replay `partition` of `graph` on `backend`, timing every backend call by
/// operator group. With a NumericBackend, `input` is bound to the graph's
/// input node first. `*output` (if given) receives the graph output's tensor.
/// Returns the failing Status, if any.
brickdl::Status replay_timed(const brickdl::Graph& graph,
                             const brickdl::Partition& partition,
                             brickdl::Backend& backend,
                             const brickdl::EngineOptions& options,
                             const brickdl::Tensor* input, OpTimes& times,
                             brickdl::TensorId* output = nullptr);

}  // namespace perfbench
