#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "baselines/fused_graph.hpp"
#include "core/engine.hpp"
#include "core/fault_hooks.hpp"
#include "models/models.hpp"

namespace brickdl {
namespace {

Tensor random_input(const Graph& g, u64 seed = 21) {
  Tensor input(g.node(0).out_shape);
  Rng rng(seed);
  input.fill_random(rng);
  return input;
}

/// End-to-end: engine output (any partition/strategy mix) == reference.
void check_engine_matches_reference(const Graph& g, EngineOptions options = {},
                                    u64 seed = 21) {
  WeightStore ws(99);
  const Tensor input = random_input(g, seed);
  const auto reference = run_graph_reference(g, input, ws);

  Engine engine(g, options);
  NumericBackend backend(g, ws, 4);
  const EngineResult result = engine.run(backend, &input);
  const int output = g.outputs()[0];
  EXPECT_TRUE(allclose(backend.read(result.output),
                       reference[static_cast<size_t>(output)], 2e-4));
}

TEST(Engine, ConvChainAutoStrategy) {
  check_engine_matches_reference(build_conv_chain_2d(4, 1, 20, 3));
}

TEST(Engine, ConvChainForcedPadded) {
  EngineOptions options;
  options.force_strategy = Strategy::kPadded;
  check_engine_matches_reference(build_conv_chain_2d(4, 1, 20, 3), options);
}

TEST(Engine, ConvChainForcedMemoized) {
  EngineOptions options;
  options.force_strategy = Strategy::kMemoized;
  check_engine_matches_reference(build_conv_chain_2d(4, 1, 20, 3), options);
}

TEST(Engine, ConvChainForcedWavefront) {
  EngineOptions options;
  options.force_strategy = Strategy::kWavefront;
  check_engine_matches_reference(build_conv_chain_2d(4, 1, 20, 3), options);
}

TEST(Engine, WavefrontEnabledCostModel) {
  // With the extension enabled, the cost model may pick wavefront; whatever
  // mix it chooses must still match the reference numerics.
  EngineOptions options;
  options.partition.enable_wavefront = true;
  check_engine_matches_reference(build_conv_chain_2d(4, 1, 20, 3), options);

  ModelConfig config;
  config.batch = 1;
  config.spatial = 32;
  config.width_div = 16;
  config.classes = 8;
  for (const auto& [name, builder] : model_zoo()) {
    SCOPED_TRACE(name);
    check_engine_matches_reference(builder(config), options);
  }
}

TEST(Engine, ForcedBrickSide) {
  EngineOptions options;
  options.force_brick_side = 8;
  check_engine_matches_reference(build_conv_chain_2d(3, 1, 24, 2), options);
}

TEST(Engine, MultiSubgraphChain) {
  EngineOptions options;
  options.partition.max_layers = 2;
  check_engine_matches_reference(build_conv_chain_2d(5, 1, 22, 2), options);
}

TEST(Engine, GraphWithHeadAndClassifier) {
  Graph g;
  int x = g.add_input("x", Shape{1, 3, 20, 20});
  x = g.add_conv(x, "c1", Dims{3, 3}, 6, Dims{1, 1}, Dims{1, 1});
  x = g.add_relu(x, "r1");
  x = g.add_conv(x, "c2", Dims{3, 3}, 6, Dims{2, 2}, Dims{1, 1});
  x = g.add_relu(x, "r2");
  x = g.add_pool(x, "p", PoolKind::kMax, Dims{2, 2}, Dims{2, 2});
  x = g.add_global_avg_pool(x, "gap");
  x = g.add_dense(x, "fc", 7);
  g.add_softmax(x, "sm");
  check_engine_matches_reference(g);
}

TEST(Engine, TinyModelsEndToEnd) {
  // Every zoo model at tiny scale must run through the full engine and match
  // the reference numerics — the strongest integration property we have.
  ModelConfig config;
  config.batch = 1;
  config.spatial = 32;
  config.width_div = 16;
  config.classes = 8;
  for (const auto& [name, builder] : model_zoo()) {
    SCOPED_TRACE(name);
    const Graph g = builder(config);
    check_engine_matches_reference(g);
  }
}

TEST(Engine, ModelBackendCollectsReports) {
  Graph g = build_conv_chain_2d(4, 1, 24, 4);
  Engine engine(g, {});
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(g, sim);
  const EngineResult result = engine.run(backend);
  ASSERT_FALSE(result.reports.empty());
  i64 total_l1 = 0;
  for (const auto& report : result.reports) {
    total_l1 += report.txns.l1;
    EXPECT_GT(report.tally.invocations, 0);
  }
  EXPECT_GT(total_l1, 0);
  EXPECT_GE(result.total_txns.l1, total_l1);
  EXPECT_GT(result.total_txns.dram(), 0);
}

// The reports' tallies partition the run's: summed field by field they equal
// `total_tally`, including the wave barriers of wavefront subgraphs.
TEST(Engine, ReportTalliesSumToTotal) {
  Graph g = build_conv_chain_2d(4, 1, 24, 4);
  EngineOptions options;
  options.partition.cost_aware = false;  // merge at this tiny scale
  options.force_strategy = Strategy::kWavefront;
  Engine engine(g, options);
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(g, sim);
  const EngineResult result = engine.run(backend);
  ComputeTally sum;
  for (const auto& report : result.reports) sum += report.tally;
  const ComputeTally& total = result.total_tally;
  EXPECT_GT(sum.syncs, 0);
  EXPECT_EQ(sum.syncs, total.syncs);
  EXPECT_EQ(sum.invocations, total.invocations);
  EXPECT_DOUBLE_EQ(sum.flops, total.flops);
  EXPECT_DOUBLE_EQ(sum.tc_flops, total.tc_flops);
  EXPECT_EQ(sum.defers, total.defers);
  EXPECT_EQ(sum.bricks_reduced, total.bricks_reduced);
}

TEST(Engine, MergedBeatsVendorOnDram) {
  // The headline claim at microbenchmark scale: merged execution reads the
  // input once and never materializes intermediates in DRAM, so its DRAM
  // transactions must undercut the per-layer vendor baseline.
  Graph g = build_conv_chain_2d(3, 4, 40, 16);

  i64 dram_vendor = 0, dram_merged = 0;
  {
    MemoryHierarchySim sim(MachineParams::a100());
    ModelBackend backend(g, sim);
    FusedGraphExecutor exec(g, backend, FusionRules::kNone, 8);
    exec.run();
    sim.flush();
    dram_vendor = sim.counters().dram();
  }
  {
    MemoryHierarchySim sim(MachineParams::a100());
    ModelBackend backend(g, sim);
    EngineOptions options;
    options.partition.cost_aware = false;  // force merging at this tiny scale
    Engine engine(g, options);
    engine.run(backend);
    dram_merged = sim.counters().dram();
  }
  EXPECT_LT(dram_merged, dram_vendor);
}

// A layer whose own footprint exceeds the L2 budget is planned vendor, so
// the plan passes the engine's budget check and runs, bit-exact.
TEST(Engine, OverBudgetLayerRunsVendor) {
  const Graph g = build_conv_chain_2d(6, 1, 96, 64);
  EngineOptions options;
  options.partition.cost_aware = false;
  options.partition.l2_budget = 1;
  Engine engine(g, options);
  for (const PlannedSubgraph& planned : engine.partition().subgraphs) {
    EXPECT_EQ(planned.strategy, Strategy::kVendor);
  }
  WeightStore ws(99);
  const Tensor input = random_input(g);
  NumericBackend backend(g, ws, 4);
  const auto result = engine.run_checked(backend, &input);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const auto reference = run_graph_reference(g, input, ws);
  EXPECT_EQ(max_abs_diff(backend.read(result.value().output),
                         reference[static_cast<size_t>(g.outputs()[0])]),
            0.0);
}

TEST(Engine, PartitionExposed) {
  Graph g = build_conv_chain_2d(4, 1, 20, 3);
  Engine engine(g, {});
  EXPECT_GE(engine.partition().subgraphs.size(), 1u);
}

// ---- host parallelism is a property of the backend (DESIGN.md §14) ----

/// Records every host thread that starts a kernel invocation, and holds the
/// first one (up to a deadline) until a second thread starts one too: on a
/// backend that runs invocations concurrently the second thread arrives
/// while the first waits, whatever the OS scheduler does; on a serial walk
/// it never does.
class KernelThreads final : public FaultHooks {
 public:
  bool on_kernel(int, int) override {
    std::unique_lock<std::mutex> lock(mu_);
    threads_.insert(std::this_thread::get_id());
    cv_.notify_all();
    if (!held_) {
      held_ = true;
      cv_.wait_for(lock, std::chrono::seconds(10),
                   [this] { return threads_.size() >= 2; });
    }
    return true;
  }
  size_t count() {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_.size();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::set<std::thread::id> threads_;
  bool held_ = false;
};

// A four-worker NumericBackend runs the invocations of every forced strategy
// on its pool — more than one host thread — and the output stays bit-exact.
TEST(Engine, MultiWorkerNumericBackendRunsOnPoolThreads) {
  const Graph g = build_conv_chain_2d(3, 1, 32, 4);
  WeightStore ws(99);
  const Tensor input = random_input(g);
  const Tensor reference =
      run_graph_reference(g, input, ws)[static_cast<size_t>(g.outputs()[0])];
  for (Strategy strategy :
       {Strategy::kPadded, Strategy::kMemoized, Strategy::kVendor}) {
    SCOPED_TRACE(strategy_name(strategy));
    EngineOptions options;
    options.partition.cost_aware = false;  // merge even at test scale
    options.force_strategy = strategy;
    options.force_brick_side = 4;
    options.vendor_tile_side = 4;
    Engine engine(g, options);
    NumericBackend backend(g, ws, 4);
    KernelThreads threads;
    install_fault_hooks(&threads);
    const auto result = engine.run_checked(backend, &input);
    install_fault_hooks(nullptr);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    for (const SubgraphReport& report : result.value().reports) {
      EXPECT_EQ(report.executed, strategy);
    }
    EXPECT_GE(threads.count(), 2u);
    EXPECT_EQ(max_abs_diff(backend.read(result.value().output), reference),
              0.0);
  }
}

// Two engines on their own four-worker backends at once — the serving
// layer's max_inflight_batches > 1 — share one pool and stay bit-exact.
TEST(Engine, ConcurrentEnginesShareOnePool) {
  const Graph g = build_conv_chain_2d(3, 1, 32, 4);
  WeightStore ws(99);
  const Tensor input = random_input(g);
  const Tensor reference =
      run_graph_reference(g, input, ws)[static_cast<size_t>(g.outputs()[0])];

  NumericBackend probe_a(g, ws, 4), probe_b(g, ws, 4);
  EXPECT_EQ(probe_a.pool(), probe_b.pool());

  const auto serve = [&](Strategy strategy, Tensor* out) {
    EngineOptions options;
    options.partition.cost_aware = false;
    options.force_strategy = strategy;
    options.force_brick_side = 4;
    Engine engine(g, options);
    for (int run = 0; run < 4; ++run) {
      NumericBackend backend(g, ws, 4);
      const auto result = engine.run_checked(backend, &input);
      if (!result.ok()) return;  // *out stays empty: the check below fails
      *out = backend.read(result.value().output);
      if (max_abs_diff(*out, reference) != 0.0) return;
    }
  };
  Tensor out_a, out_b;
  std::thread a(serve, Strategy::kMemoized, &out_a);
  std::thread b(serve, Strategy::kPadded, &out_b);
  a.join();
  b.join();
  ASSERT_EQ(out_a.dims(), reference.dims());
  ASSERT_EQ(out_b.dims(), reference.dims());
  EXPECT_EQ(max_abs_diff(out_a, reference), 0.0);
  EXPECT_EQ(max_abs_diff(out_b, reference), 0.0);
}

}  // namespace
}  // namespace brickdl
