// Cross-subgraph dataflow pipelining suite (label `pipeline`, DESIGN.md §14).
//
// The core contract under test: chains of consecutive memoized subgraphs
// executed through one shared tag table produce outputs *bit-identical* to
// groups of one (the schedule `profile` runs) — pipelining is a scheduling
// decision, never a numerics decision — while the chain's protocol stats
// prove real cross-boundary overlap happened (downstream bricks claimed
// upstream deps before the upstream subgraph finished). The resilience tests
// extend the §7 exactly-once guarantee across the retired barrier: a worker
// abandoned mid-chain on an *upstream* stage's brick is repaired by the
// watchdog and the whole chain still completes exactly-once, and a chain
// that fails hands each member to its own degradation ladder. The serving
// tests lift the same overlap to cross-batch pipelining
// (max_inflight_batches > 1).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "graph/rewrite.hpp"
#include "models/models.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "testing/fault_injection.hpp"
#include "testing/reference_eager.hpp"

namespace brickdl {
namespace {

using serve::RequestResult;
using serve::ServeOptions;
using serve::Server;

constexpr u64 kWeightSeed = 404;

/// Six 3x3 convs at 32x32x8: under max_layers=2 the paper partitioner cuts
/// this into exactly three two-layer subgraphs, all planned memoized with
/// rank-3 bricks — one three-member chain.
Graph chain_model() { return build_conv_chain_2d(6, 1, 32, 8); }

/// Same backbone at 24x24x4: the tail subgraph plans vendor, so the chain
/// is {memoized, memoized} with a vendor barrier point behind it.
Graph mixed_model() { return build_conv_chain_2d(6, 1, 24, 4); }

EngineOptions chain_options(int workers = 4) {
  EngineOptions eo;
  eo.partition.max_layers = 2;
  eo.force_strategy = Strategy::kMemoized;
  eo.memo_workers = workers;
  return eo;
}

/// A NumericBackend seen through a Backend without a pool: the engine drives
/// its memoized chains on the deterministic virtual scheduler, so the
/// virtual-scheduler tests below keep several protocol workers on real
/// numerics.
/// The engine binds its input only on a NumericBackend itself, so this binds
/// `input` to the tensor the engine registers for the graph input.
class VirtualNumericBackend final : public Backend {
 public:
  VirtualNumericBackend(const Graph& graph, WeightStore& ws, int workers,
                        const Tensor& input)
      : Backend(graph), inner_(graph, ws, workers), input_(input) {}

  NumericBackend& numeric() { return inner_; }

  int num_workers() const override { return inner_.num_workers(); }
  TensorId register_tensor(const Shape& shape, Layout layout,
                           const Dims& brick_extent,
                           const std::string& name) override {
    const TensorId id =
        inner_.register_tensor(shape, layout, brick_extent, name);
    if (name.rfind("input:", 0) == 0) inner_.bind(id, input_);
    return id;
  }
  void invocation_begin(int worker) override {
    inner_.invocation_begin(worker);
  }
  SlotId load_window(int worker, TensorId src, const Dims& lo,
                     const Dims& extent) override {
    return inner_.load_window(worker, src, lo, extent);
  }
  void store_window(int worker, SlotId slot, TensorId dst, const Dims& lo,
                    const Dims& extent) override {
    inner_.store_window(worker, slot, dst, lo, extent);
  }
  void free_slot(int worker, SlotId slot) override {
    inner_.free_slot(worker, slot);
  }
  SlotId compute(int worker, int node_id, const std::vector<SlotId>& inputs,
                 const Dims& out_lo, const Dims& out_extent,
                 bool mask_to_bounds) override {
    return inner_.compute(worker, node_id, inputs, out_lo, out_extent,
                          mask_to_bounds);
  }
  void execute_global(int worker, int node_id,
                      const std::vector<TensorId>& inputs,
                      TensorId out) override {
    inner_.execute_global(worker, node_id, inputs, out);
  }
  void count_atomics(i64, i64) override {}
  void tally_defer(i64) override {}
  void tally_reduce(i64) override {}
  void tally_sync(i64) override {}
  void discard_tensor(TensorId) override {}

 private:
  NumericBackend inner_;
  const Tensor& input_;
};

/// Same plan, but `profile` runs every subgraph as a group of one: the
/// barriered schedule the chained runs must match bit for bit.
EngineOptions barriered_options() {
  EngineOptions eo = chain_options();
  eo.profile = true;
  return eo;
}

Tensor random_input(const Graph& g, u64 seed) {
  Tensor t(g.node(0).out_shape);
  Rng rng(seed);
  t.fill_random(rng);
  return t;
}

Tensor reference_output(const Graph& g, const Tensor& input, WeightStore& ws) {
  const auto outs = run_graph_reference(g, input, ws);
  return outs[static_cast<size_t>(g.outputs()[0])];
}

struct EngineRun {
  Tensor output;
  std::vector<SubgraphReport> reports;
};

/// Run on `eo.memo_workers` backend workers: on the backend's thread pool
/// when `parallel`, else on the virtual scheduler.
EngineRun run_engine(const Graph& g, const Tensor& input, WeightStore& ws,
                     const EngineOptions& eo, bool parallel = false) {
  Engine engine(g, eo);
  VirtualNumericBackend virtual_backend(g, ws, eo.memo_workers, input);
  NumericBackend& numeric = virtual_backend.numeric();
  Backend& backend =
      parallel ? static_cast<Backend&>(numeric) : virtual_backend;
  auto result = engine.run_checked(backend, &input);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  EngineRun run;
  run.output = numeric.read(result.value().output);
  run.reports = std::move(result.value().reports);
  return run;
}

i64 counter_value(const std::string& name) {
  return obs::metrics().counter(name).value();
}

}  // namespace

// Acceptance: the partitioner's three consecutive memoized subgraphs run as
// one chain, every member's report says so, and the output is bit-identical
// to both groups of one (the profiled schedule) and the node-by-node
// reference kernels.
TEST(PipelineChain, ChainedRunBitIdenticalToBarriered) {
  const Graph g = chain_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 31);
  const Tensor reference = reference_output(g, input, ws);

  const i64 chains_before = counter_value("engine.pipeline.chains");
  const EngineRun pipelined = run_engine(g, input, ws, chain_options());
  const EngineRun barriered = run_engine(g, input, ws, barriered_options());

  ASSERT_EQ(pipelined.reports.size(), 3u);
  for (const SubgraphReport& report : pipelined.reports) {
    EXPECT_TRUE(report.pipelined);
    EXPECT_EQ(report.chain_len, 3);
    EXPECT_EQ(report.executed, Strategy::kMemoized);
    ASSERT_EQ(report.attempts.size(), 1u);
    EXPECT_TRUE(report.attempts[0].status.ok());
  }
  ASSERT_EQ(barriered.reports.size(), 3u);
  for (const SubgraphReport& report : barriered.reports) {
    EXPECT_FALSE(report.pipelined);
    EXPECT_EQ(report.chain_len, 0);
  }
  EXPECT_EQ(counter_value("engine.pipeline.chains"), chains_before + 1);
  EXPECT_EQ(counter_value("engine.pipeline.chain_subgraphs") % 3, 0);

  // Bit-identical, not merely close: same kernels, same memo slots, only
  // the schedule differs.
  EXPECT_EQ(max_abs_diff(pipelined.output, barriered.output), 0.0);
  EXPECT_TRUE(allclose(pipelined.output, reference, 2e-4));
}

// The overlap is real, not nominal: with several virtual workers the chain's
// downstream roots start at tick 0 and claim upstream deps before the
// upstream stage completes. The lead report aggregates those claims.
TEST(PipelineChain, CrossBoundaryClaimsObserved) {
  const Graph g = chain_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 32);

  const EngineRun run = run_engine(g, input, ws, chain_options(8));
  ASSERT_EQ(run.reports.size(), 3u);
  EXPECT_GT(run.reports[0].memo.cross_boundary_claims, 0);
  // Chain aggregates live on the lead member; the rest stay zeroed.
  EXPECT_GT(run.reports[0].memo.bricks_computed, 0);
  EXPECT_EQ(run.reports[1].memo.bricks_computed, 0);
  EXPECT_EQ(run.reports[1].wall_seconds, 0.0);
}

// The same bit-exactness holds for the parallel driver across worker counts
// that do and don't divide the root count evenly.
TEST(PipelineChain, ParallelDriverBitIdenticalAcrossWorkerCounts) {
  const Graph g = chain_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 33);

  const EngineRun barriered = run_engine(g, input, ws, barriered_options());
  for (int workers : {2, 5, 8}) {
    const EngineRun run =
        run_engine(g, input, ws, chain_options(workers), /*parallel=*/true);
    EXPECT_EQ(max_abs_diff(run.output, barriered.output), 0.0)
        << "workers=" << workers;
    EXPECT_TRUE(run.reports[0].pipelined) << "workers=" << workers;
  }
}

// Non-memoized subgraphs are barrier points: the mixed model pipelines its
// two memoized members and runs the vendor tail barriered, outputs intact.
TEST(PipelineChain, VendorSubgraphIsBarrierPoint) {
  const Graph g = mixed_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 34);
  const Tensor reference = reference_output(g, input, ws);

  const EngineRun run = run_engine(g, input, ws, chain_options());
  ASSERT_EQ(run.reports.size(), 3u);
  EXPECT_TRUE(run.reports[0].pipelined);
  EXPECT_TRUE(run.reports[1].pipelined);
  EXPECT_EQ(run.reports[0].chain_len, 2);
  EXPECT_FALSE(run.reports[2].pipelined);
  EXPECT_EQ(run.reports[2].executed, Strategy::kVendor);
  EXPECT_TRUE(allclose(run.output, reference, 2e-4));
}

// Profiling keeps the per-subgraph barrier (its simulator flushes attribute
// bytes per subgraph), so every group has one member; the output does not
// change by a bit.
TEST(PipelineChain, EscapeHatchAndProfileDisablePipelining) {
  const Graph g = chain_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 35);

  const EngineRun with_profile =
      run_engine(g, input, ws, barriered_options());
  for (const SubgraphReport& report : with_profile.reports) {
    EXPECT_FALSE(report.pipelined);
  }

  const EngineRun pipelined = run_engine(g, input, ws, chain_options());
  EXPECT_EQ(max_abs_diff(with_profile.output, pipelined.output), 0.0);
}

// Idle-tail accounting: both drivers report a sane straggler fraction, and
// only the chain's lead member carries it.
TEST(PipelineChain, IdleTailStatsPopulated) {
  const Graph g = chain_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 36);

  for (bool parallel : {false, true}) {
    const EngineRun run =
        run_engine(g, input, ws, chain_options(), parallel);
    const MemoizedExecutor::Stats& stats = run.reports[0].memo;
    EXPECT_GE(stats.idle_tail_fraction, 0.0) << "parallel=" << parallel;
    EXPECT_LE(stats.idle_tail_fraction, 1.0) << "parallel=" << parallel;
    EXPECT_GE(stats.idle_tail_seconds, 0.0) << "parallel=" << parallel;
  }
}

// Resilience across the retired barrier (DESIGN.md §7 meets §14): a worker
// parks forever while holding an *upstream-stage* brick mid-chain. The
// watchdog reclaims the abandoned InProgress tag, a surviving worker
// recomputes it, and the chain completes exactly-once with the correct
// output — no fallback, no double compute.
void check_cross_boundary_stall_reclaimed(bool parallel) {
  const Graph g = chain_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 37);
  const Tensor reference = reference_output(g, input, ws);

  ScopedFaultInjection scoped(/*seed=*/13);
  FaultSpec spec;
  spec.kind = FaultKind::kWorkerStall;
  spec.node_id = 1;  // conv1: first stage of the chain
  spec.max_fires = 1;
  scoped.injector().arm(spec);

  EngineOptions eo = chain_options();
  eo.memo_watchdog = {64, 200};  // reclaim in milliseconds, not seconds
  const EngineRun run = run_engine(g, input, ws, eo, parallel);

  ASSERT_EQ(run.reports.size(), 3u);
  // The chain itself absorbed the fault — no barriered fallback re-run.
  EXPECT_TRUE(run.reports[0].pipelined);
  ASSERT_EQ(run.reports[0].attempts.size(), 1u);
  EXPECT_TRUE(run.reports[0].attempts[0].status.ok());
  EXPECT_EQ(run.reports[0].memo.stalled_workers, 1);
  EXPECT_GE(run.reports[0].memo.reclaims, 1);
  EXPECT_TRUE(allclose(run.output, reference, 2e-4));
}

TEST(PipelineResilience, VirtualCrossBoundaryStallReclaimed) {
  check_cross_boundary_stall_reclaimed(/*parallel=*/false);
}

// The TSan target: a real runner thread parks mid-chain, other threads'
// watchdogs repair its cross-stage tags with CAS — race-free.
TEST(PipelineResilience, ParallelCrossBoundaryStallReclaimed) {
  check_cross_boundary_stall_reclaimed(/*parallel=*/true);
}

// A chain that fails is not re-run as a chain: every member records the
// failed memoized attempt and continues alone down its own ladder (padded,
// then vendor). A one-shot kernel failure on a second-stage node must leave
// every member with [memoized: kKernelFailure, padded: ok] and an output
// that still matches the eager oracle.
void check_chain_failure_degrades(bool parallel) {
  const Graph g = chain_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 39);
  const Tensor reference = reference_output(g, input, ws);

  ScopedFaultInjection scoped(/*seed=*/17);
  FaultSpec spec;
  spec.kind = FaultKind::kKernelFailure;
  spec.node_id = 3;  // conv3: first node of the second stage
  spec.max_fires = 1;
  scoped.injector().arm(spec);

  const i64 fallbacks_before = counter_value("engine.fallbacks");
  const EngineRun run = run_engine(g, input, ws, chain_options(), parallel);
  EXPECT_EQ(scoped.injector().fires(FaultKind::kKernelFailure), 1);

  ASSERT_EQ(run.reports.size(), 3u);
  for (const SubgraphReport& report : run.reports) {
    ASSERT_EQ(report.attempts.size(), 2u);
    EXPECT_EQ(report.attempts[0].strategy, Strategy::kMemoized);
    EXPECT_EQ(report.attempts[0].status.code(), StatusCode::kKernelFailure)
        << report.attempts[0].status.to_string();
    EXPECT_EQ(report.attempts[1].strategy, Strategy::kPadded);
    EXPECT_TRUE(report.attempts[1].status.ok());
    EXPECT_EQ(report.executed, Strategy::kPadded);
    EXPECT_FALSE(report.pipelined);
  }
  EXPECT_EQ(counter_value("engine.fallbacks"), fallbacks_before + 3);
  EXPECT_TRUE(allclose(run.output, reference, 2e-4));
}

TEST(PipelineResilience, VirtualChainFailureDegradesEachMember) {
  check_chain_failure_degrades(/*parallel=*/false);
}

TEST(PipelineResilience, ParallelChainFailureDegradesEachMember) {
  check_chain_failure_degrades(/*parallel=*/true);
}

// Without graceful fallback the failed chain attempt is final: the run fails
// with the chain's classification instead of re-running the members.
TEST(PipelineResilience, ChainFailureWithoutFallbackFailsRun) {
  const Graph g = chain_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 40);
  for (bool parallel : {false, true}) {
    ScopedFaultInjection scoped(/*seed=*/17);
    FaultSpec spec;
    spec.kind = FaultKind::kKernelFailure;
    spec.node_id = 3;
    spec.max_fires = 1;
    scoped.injector().arm(spec);

    EngineOptions eo = chain_options();
    eo.graceful_fallback = false;
    Engine engine(g, eo);
    VirtualNumericBackend virtual_backend(g, ws, eo.memo_workers, input);
    Backend& backend = parallel
                           ? static_cast<Backend&>(virtual_backend.numeric())
                           : virtual_backend;
    const auto result = engine.run_checked(backend, &input);
    ASSERT_FALSE(result.ok()) << "parallel=" << parallel;
    EXPECT_EQ(result.status().code(), StatusCode::kKernelFailure)
        << result.status().to_string();
  }
}

// ---- cross-batch pipelining (serving) ----

namespace {

Graph serve_model() { return build_conv_chain_2d(3, 1, 16, 2); }

Tensor random_request(const Graph& model, i64 rows, u64 seed) {
  Dims dims = model.node(0).out_shape.dims;
  dims[0] = rows;
  Tensor t(dims);
  Rng rng(seed);
  t.fill_random(rng);
  return t;
}

/// Ground truth: a direct solo engine run on the rebatched graph with a
/// fresh same-seed WeightStore (weights are (seed, node name) keyed).
Tensor solo_reference(const Graph& model, const Tensor& input,
                      const EngineOptions& eopts) {
  Result<Graph> rebatched = rebatch_graph(model, input.dims()[0]);
  EXPECT_TRUE(rebatched.ok()) << rebatched.status().to_string();
  Graph graph = rebatched.take();
  WeightStore ws(kWeightSeed);
  Engine engine(graph, eopts);
  NumericBackend backend(graph, ws, 4);
  auto out = engine.run_batched_checked(backend, {&input});
  EXPECT_TRUE(out.ok()) << out.status().to_string();
  return std::move(out.value()[0]);
}

}  // namespace

// Acceptance: with max_inflight_batches=2 the scheduler dispatches batch
// B's engine run while batch A's is still executing, every request's output
// stays bit-identical to its sequential solo run, and the dispatch counter
// proves the runner pool actually carried runs.
TEST(PipelineServe, OverlappedBatchesBitIdenticalToSolo) {
  const Graph model = serve_model();
  ServeOptions opts;
  opts.max_batch = 2;
  opts.max_wait_us = 500;
  opts.max_inflight_batches = 2;
  WeightStore ws(kWeightSeed);

  const i64 dispatches_before = counter_value("serve.pipeline.dispatches");
  constexpr int kRequests = 8;
  std::vector<Tensor> inputs;
  inputs.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(random_request(model, 1 + (i % 3), 100 + i));
  }

  std::vector<RequestResult> results(kRequests);
  {
    Server server(model, ws, opts);
    std::vector<std::future<RequestResult>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(server.submit(inputs[static_cast<size_t>(i)]));
    }
    for (int i = 0; i < kRequests; ++i) {
      results[static_cast<size_t>(i)] = futures[static_cast<size_t>(i)].get();
    }
  }  // ~Server: shutdown drains the pipeline and joins the runner pool

  for (int i = 0; i < kRequests; ++i) {
    const RequestResult& r = results[static_cast<size_t>(i)];
    ASSERT_TRUE(r.status.ok()) << "request " << i << ": " << r.status.to_string();
    EXPECT_EQ(max_abs_diff(r.output,
                           solo_reference(model, inputs[static_cast<size_t>(i)],
                                          opts.engine)),
              0.0)
        << "request " << i;
  }
  EXPECT_GT(counter_value("serve.pipeline.dispatches"), dispatches_before);
}

// The overlap window honors the footprint budget: a budget that admits only
// one plan at a time degrades to serialized dispatch (every run still reaped
// before the next one launches), never to an over-budget pipeline — and the
// outputs remain exact.
TEST(PipelineServe, TightFootprintBudgetSerializesDispatch) {
  const Graph model = serve_model();
  ServeOptions opts;
  opts.max_batch = 1;
  opts.max_wait_us = 200;
  opts.max_inflight_batches = 4;
  // One modest activation's worth: two concurrent plans never fit.
  opts.footprint_budget = 1;
  WeightStore ws(kWeightSeed);

  std::vector<Tensor> inputs;
  for (int i = 0; i < 4; ++i) inputs.push_back(random_request(model, 2, 50 + i));

  std::vector<std::future<RequestResult>> futures;
  {
    Server server(model, ws, opts);
    for (auto& input : inputs) futures.push_back(server.submit(input));
    for (int i = 0; i < 4; ++i) {
      const RequestResult r = futures[static_cast<size_t>(i)].get();
      ASSERT_TRUE(r.status.ok()) << r.status.to_string();
      EXPECT_EQ(max_abs_diff(r.output,
                             solo_reference(model, inputs[static_cast<size_t>(i)],
                                            opts.engine)),
                0.0);
    }
    futures.clear();
  }
}

// Synchronous mode (max_inflight_batches=1, the default) never constructs a
// runner pool; the classic inline path still serves exact results. Guards
// against the pipelined refactor perturbing the default configuration.
TEST(PipelineServe, DefaultSynchronousModeUnchanged) {
  const Graph model = serve_model();
  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_wait_us = 500;
  WeightStore ws(kWeightSeed);
  Server server(model, ws, opts);

  const Tensor input = random_request(model, 2, 77);
  const RequestResult r = server.submit(input).get();
  ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_EQ(max_abs_diff(r.output, solo_reference(model, input, opts.engine)),
            0.0);
}

}  // namespace brickdl
