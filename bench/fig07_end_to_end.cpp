// Figure 7: end-to-end model inference performance on the simulated A100.
//
// Seven CNN models, four systems: the tiled-cuDNN baseline, BrickDL (merged
// execution with bricks, strategy chosen by the performance model),
// TorchScript-style conv+pointwise fusion, and XLA-style aggressive fusion.
// Prints normalized execution time (lower is better), the memory/compute
// split of the cuDNN and BrickDL bars, and relative DRAM transactions.
//
// Workload scaling (documented in EXPERIMENTS.md): batch/width/resolution per
// model are chosen so the simulated workloads sit in the data-movement-bound
// regime of the paper's testbed while keeping simulation time tractable.
// Pass --quick for a reduced sweep (fewer models, smaller shapes).
#include <chrono>
#include <cstring>

#include "bench_common.hpp"

namespace brickdl::bench {
namespace {

struct ModelRun {
  const char* name;
  ModelBuilder builder;
  ModelConfig config;
  int max_layers;
};

std::vector<ModelRun> workloads(bool quick) {
  auto cfg = [](i64 batch, i64 spatial, i64 width_div) {
    ModelConfig c;
    c.batch = batch;
    c.spatial = spatial;
    c.width_div = width_div;
    c.classes = 100;
    return c;
  };
  if (quick) {
    return {
        {"ResNet-50", &build_resnet50, cfg(16, 112, 2), 12},
        {"DarkNet-53", &build_darknet53, cfg(16, 224, 4), 6},
    };
  }
  return {
      {"ResNet-50", &build_resnet50, cfg(8, 224, 1), 12},
      {"DRN-26", &build_drn26, cfg(16, 224, 2), 8},
      {"3D ResNet-34", &build_resnet34_3d, cfg(1, 96, 4), 8},
      {"DarkNet-53", &build_darknet53, cfg(16, 224, 1), 6},
      {"VGG-16", &build_vgg16, cfg(8, 224, 1), 8},
      {"DeepCAM", &build_deepcam, cfg(16, 224, 2), 8},
      {"InceptionNet-v4", &build_inception_v4, cfg(4, 224, 2), 12},
  };
}

int run(bool quick) {
  std::printf(
      "== Figure 7: End-to-End Model Inference Performance (simulated A100) "
      "==\n\n");

  TextTable config_table({"model", "batch", "input", "width 1/x", "graph "
                          "nodes"});
  TextTable table({"model", "cuDNN", "BrickDL", "TorchScript", "XLA",
                   "BrickDL speedup", "cuDNN mem%", "BrickDL mem%",
                   "DRAM txn ratio"});
  // Chained memoized execution (DESIGN.md §14): host wall-clock of the
  // engine run plus the chain shape and the cross-boundary claims the
  // merged frontier makes.
  TextTable pipeline_table({"model", "wall (s)", "chains",
                            "chained subgraphs", "cross-claims"});
  std::vector<Bar> bars;

  for (const ModelRun& run : workloads(quick)) {
    const Graph graph = run.builder(run.config);
    config_table.add_row({run.name, std::to_string(run.config.batch),
                          std::to_string(run.config.spatial),
                          std::to_string(run.config.width_div),
                          std::to_string(graph.num_nodes())});

    const RunResult cudnn = run_baseline(graph, FusionRules::kNone);
    const RunResult torchscript =
        run_baseline(graph, FusionRules::kConvPointwise);
    const RunResult xla = run_baseline(graph, FusionRules::kAggressive);

    // BrickDL applies its cuDNN-backend conv+pointwise fusion as a graph
    // rewrite (§3.3.4) before partitioning and merging.
    const Graph fused_graph = fuse_conv_pointwise(graph);
    EngineOptions options;
    options.partition.max_layers = run.max_layers;
    const RunResult brickdl = run_brickdl(fused_graph, options);

    // Chains on the same plan (§14). The memoized strategy is forced
    // (literal §3.3.2 rules) because chains only form over consecutive
    // memoized subgraphs, and the cost-aware planner prefers padded bricks
    // for these workloads.
    {
      EngineOptions pipelined = options;
      pipelined.partition.cost_aware = false;
      pipelined.force_strategy = Strategy::kMemoized;
      std::vector<SubgraphReport> reports;
      const auto t0 = std::chrono::steady_clock::now();
      run_brickdl(fused_graph, pipelined, &reports);
      const double pipelined_s = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count();
      i64 chains = 0, chained = 0, cross_claims = 0;
      for (const SubgraphReport& report : reports) {
        if (!report.pipelined) continue;
        ++chained;
        if (report.memo.bricks_computed > 0) {
          ++chains;  // lead member carries the chain aggregates
          cross_claims += report.memo.cross_boundary_claims;
        }
      }
      pipeline_table.add_row({run.name, TextTable::num(pipelined_s),
                              std::to_string(chains), std::to_string(chained),
                              std::to_string(cross_claims)});
    }

    const double base = cudnn.serial_total();
    table.add_row(
        {run.name, rel(cudnn.serial_total(), base),
         rel(brickdl.serial_total(), base), rel(torchscript.serial_total(), base),
         rel(xla.serial_total(), base),
         TextTable::num((base - brickdl.serial_total()) / base * 100.0, 1) + "%",
         TextTable::num(cudnn.breakdown.dram / cudnn.serial_total() * 100.0, 1),
         TextTable::num(brickdl.breakdown.dram / brickdl.serial_total() * 100.0,
                        1),
         TextTable::num(static_cast<double>(brickdl.txns.dram()) /
                        static_cast<double>(cudnn.txns.dram()))});

    // Normalized stacked bars: memory vs compute share, relative to cuDNN.
    for (const auto& [label, result] :
         {std::pair<const char*, const RunResult*>{"cuDNN", &cudnn},
          {"BrickDL", &brickdl},
          {"TorchScript", &torchscript},
          {"XLA", &xla}}) {
      Bar bar;
      bar.label = std::string(run.name) + " / " + label;
      bar.segments = {{"Memory (DRAM)", result->breakdown.dram / base, 'D'},
                      {"Compute & other",
                       result->breakdown.compute_side() / base, 'C'}};
      bars.push_back(bar);
    }
    std::printf("%s: done\n", run.name);
    std::fflush(stdout);
  }

  std::printf("\nWorkload configurations:\n%s\n",
              config_table.render().c_str());
  std::printf(
      "Normalized end-to-end execution time (cuDNN = 1.00, lower is "
      "better):\n%s\n",
      table.render().c_str());
  std::printf("Execution time split, normalized to each model's cuDNN "
              "baseline:\n%s\n",
              render_bars(bars, 60, "x cuDNN").c_str());
  std::printf(
      "Chained memoized execution (DESIGN.md §14), host wall clock of the "
      "engine run\nwith the memoized strategy forced:\n%s\n",
      pipeline_table.render().c_str());
  emit_bench_report("fig07_end_to_end");
  return 0;
}

}  // namespace
}  // namespace brickdl::bench

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  return brickdl::bench::run(quick);
}
