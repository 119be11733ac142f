// Figure 8: ResNet-50 case study — padded vs. memoized bricks vs. the tiled
// cuDNN baseline, per partitioned subgraph, with the §4.4 execution-time
// breakdown (Idle, DRAM, Compute, compulsory/conflicting Atomics, Other)
// under the perfect memory/compute overlap assumption.
#include <cstring>

#include "bench_common.hpp"

namespace brickdl::bench {
namespace {

int run(bool quick) {
  std::printf(
      "== Figure 8: ResNet-50 — Padded vs. Memoized Bricks (simulated A100) "
      "==\n\n");

  ModelConfig config;
  config.batch = quick ? 8 : 16;
  config.spatial = quick ? 112 : 224;
  config.width_div = quick ? 2 : 1;
  const Graph graph = build_resnet50(config);

  EngineOptions options;
  const Partition partition = partition_graph(graph, options.partition);

  // The first seven merged subgraphs, as in the paper's case study.
  std::vector<PlannedSubgraph> merged;
  for (const auto& planned : partition.subgraphs) {
    if (planned.strategy == Strategy::kVendor) continue;
    merged.push_back(planned);
    if (merged.size() == 7) break;
  }

  TextTable table({"subgraph", "layers", "B", "delta", "cuDNN (ms)",
                   "padded (ms)", "memoized (ms)", "padded rel",
                   "memoized rel", "best"});
  std::vector<Bar> bars;

  for (size_t i = 0; i < merged.size(); ++i) {
    const PlannedSubgraph& plan = merged[i];
    const SubgraphComparison cmp = compare_subgraph(graph, plan, options);
    const double base = cmp.vendor.overlapped_total();
    const double padded = cmp.padded.overlapped_total();
    const double memoized = cmp.memoized.overlapped_total();

    const std::string name = "Subgraph " + std::to_string(i + 1);
    table.add_row({name, std::to_string(plan.sg.nodes.size()),
                   std::to_string(plan.brick_side),
                   TextTable::num(plan.delta * 100.0, 1) + "%", ms(base),
                   ms(padded), ms(memoized), rel(padded, base),
                   rel(memoized, base),
                   padded <= memoized ? "padded" : "memoized"});

    add_breakdown_bars(&bars, name + " C", cmp.vendor.breakdown, 1e3);
    add_breakdown_bars(&bars, name + " P", cmp.padded.breakdown, 1e3);
    add_breakdown_bars(&bars, name + " M", cmp.memoized.breakdown, 1e3);
    std::printf("%s: done\n", name.c_str());
    std::fflush(stdout);
  }

  std::printf(
      "\nPer-subgraph execution time (overlapped model; C = cuDNN tiled, "
      "P = padded bricks, M = memoized bricks):\n%s\n",
      table.render().c_str());
  std::printf(
      "Breakdown bars in ms ([M] = memory side: DRAM+Idle; [C] = compute "
      "side: Compute+Atomics+Other):\n%s\n",
      render_bars(bars, 60, "ms").c_str());

  // Idle tail per chain (DESIGN.md §14): consecutive memoized subgraphs run
  // as one chain, so instead of one straggler tail per subgraph (workers
  // that finish their root range idling at a barrier) each chain pays a
  // single tail: finished workers cross the retired boundary and compute
  // downstream bricks. The virtual scheduler measures the tail in
  // deterministic worker ticks.
  {
    // Like the C/P/M table above, this section forces the memoized strategy
    // (the paper's literal §3.3.2 rules, not cost-aware selection) so the
    // case study shows real chains on both the quick and full configs.
    EngineOptions options;
    options.partition.cost_aware = false;
    options.force_strategy = Strategy::kMemoized;
    std::vector<SubgraphReport> chained;
    run_brickdl(graph, options, &chained);

    TextTable idle({"subgraph", "strategy", "pipelined", "chain len",
                    "chain idle-tail"});
    double total = 0.0;
    for (size_t i = 0; i < chained.size(); ++i) {
      const SubgraphReport& report = chained[i];
      // The lead member (or a lone memoized subgraph) carries the tail.
      const bool carries = report.executed == Strategy::kMemoized &&
                           report.memo.bricks_computed > 0;
      if (carries) total += report.memo.idle_tail_fraction;
      idle.add_row(
          {"Subgraph " + std::to_string(i + 1),
           strategy_name(report.executed), report.pipelined ? "yes" : "no",
           report.pipelined ? std::to_string(report.chain_len) : "-",
           carries ? TextTable::num(report.memo.idle_tail_fraction * 100.0,
                                    2) +
                         "%"
                   : "-"});
    }
    std::printf(
        "Per-chain idle tail (share of worker ticks spent waiting for the "
        "chain's last\nworker; a chain's tail is reported once, on its first "
        "member):\n%s\n",
        idle.render().c_str());
    std::printf("Summed idle-tail fraction: %.2f%%\n", total * 100.0);
  }
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
