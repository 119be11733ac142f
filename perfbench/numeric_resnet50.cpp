// numeric_resnet50 — closed loop, one client: real inference on the host.
//
// Why this workload: real kernels and the executors do the work and the
// simulator is idle. At batch 1, 112², width/4 the default plan runs both the
// chained memoized path and the vendor path, so kernel, elementwise and
// chain/executor changes show here. Each pass pays what a caller pays: a
// fresh NumericBackend, Engine::run_checked, and the output read-back.
#include <memory>

#include "bench.hpp"
#include "graph/rewrite.hpp"
#include "layers.hpp"
#include "models/models.hpp"

namespace perfbench {

using namespace brickdl;

namespace {

constexpr int kInputs = 2;        ///< distinct seeded inputs, cycled
constexpr int kBackendWorkers = 4;

struct Model {
  std::unique_ptr<Graph> graph;  ///< as built; the oracle runs this
  std::unique_ptr<Graph> fused;
  std::unique_ptr<WeightStore> weights;
  std::unique_ptr<Engine> engine;
};

Model plan_model(u64 seed) {
  Model m;
  ModelConfig config;
  config.batch = 1;
  config.spatial = 112;
  config.width_div = 4;
  config.classes = 100;
  {
    Span span("graph.build");
    m.graph = std::make_unique<Graph>(build_resnet50(config));
    m.fused = std::make_unique<Graph>(fuse_conv_pointwise(*m.graph));
  }
  m.weights = std::make_unique<WeightStore>(seed);
  Span span("engine.construct");
  m.engine = std::make_unique<Engine>(*m.fused, EngineOptions{});
  return m;
}

struct PassTiming {
  double total_s = 0.0;    ///< backend construction + run + read-back
  double run_s = 0.0;      ///< Engine::run_checked alone
  double backend_s = 0.0;  ///< backend construction + read-back
  EngineResult result;
};

/// One inference; false when it failed or its output differs from the
/// oracle (recorded in `report`).
bool infer(Model& m, const Tensor& input, const Tensor& expected,
           PassTiming& timing, Report& report) {
  Span span("infer");
  const double t0 = now_s();
  NumericBackend backend(*m.fused, *m.weights, kBackendWorkers);
  const double t1 = now_s();
  Result<EngineResult> run = [&] {
    Span run_span("engine.run_checked");
    return m.engine->run_checked(backend, &input);
  }();
  const double t2 = now_s();
  if (!run.ok()) {
    report.fail("run_checked: " + run.status().to_string());
    return false;
  }
  const Tensor out = backend.read(run.value().output);
  const double t3 = now_s();
  timing.total_s = t3 - t0;
  timing.run_s = t2 - t1;
  timing.backend_s = (t1 - t0) + (t3 - t2);
  timing.result = std::move(run.value());
  if (!bit_equal(out, expected)) {
    report.fail("output differs from run_graph_reference");
    return false;
  }
  return true;
}

/// One set-up of an empty `m`: build + rewrite + Engine construction + the
/// seeded inputs + the first inference, which fills the lazily created
/// weights. Returns its seconds, or -1 when the warm-up failed (recorded in
/// `report`).
double set_up(u64 seed, Model& m, std::vector<Tensor>& inputs,
              Tensor& warm_out, Report& report) {
  const double t0 = now_s();
  m = plan_model(seed);
  inputs = make_inputs(*m.graph, seed, kInputs);
  NumericBackend backend(*m.fused, *m.weights, kBackendWorkers);
  ++report.attempted;
  Result<EngineResult> run = m.engine->run_checked(backend, &inputs[0]);
  if (!run.ok()) {
    report.fail("warm-up: " + run.status().to_string());
    return -1.0;
  }
  warm_out = backend.read(run.value().output);
  return now_s() - t0;
}

}  // namespace

void run_numeric_resnet50(const Args& args, Report& report) {
  // The model the passes run is set up first; the oracle runs afterwards,
  // outside any timing.
  std::vector<double> setup_s;
  Model m;
  std::vector<Tensor> inputs;
  Tensor warm_out;
  setup_s.push_back(set_up(args.seed, m, inputs, warm_out, report));
  if (setup_s.back() < 0) return;
  const std::vector<Tensor> expected =
      reference_outputs(*m.graph, *m.weights, inputs, report);
  if (!bit_equal(warm_out, expected[0])) {
    report.fail("warm-up output differs from run_graph_reference");
  }

  // Closed loop. The other set-ups are spread evenly over the run, so that
  // one slow stretch of the host does not hit them all; each builds a spare
  // model whose warm-up output is checked like any inference.
  std::vector<double> latency_s;
  const double start = now_s();
  for (size_t i = 0; latency_s.size() < 20 || now_s() - start < args.seconds;
       ++i) {
    const double due = args.seconds * static_cast<double>(setup_s.size()) /
                       static_cast<double>(kSetups);
    if (setup_s.size() < kSetups && now_s() - start >= due) {
      Model spare;
      std::vector<Tensor> spare_inputs;
      Tensor out;
      setup_s.push_back(set_up(args.seed, spare, spare_inputs, out, report));
      if (setup_s.back() < 0) return;
      if (!bit_equal(out, expected[0])) {
        report.fail("warm-up output differs from run_graph_reference");
      }
      continue;
    }
    const size_t k = i % inputs.size();
    PassTiming timing;
    ++report.attempted;
    if (!infer(m, inputs[k], expected[k], timing, report)) {
      if (report.failed > 8) return;
      continue;
    }
    latency_s.push_back(timing.total_s);
  }

  report.add("setup_s", quantile(setup_s, 0.0), "s");
  report.add("latency_ms", quantile(latency_s, 0.0) * 1e3, "ms");
  report.note("infer_ms_p50", quantile(latency_s, 0.5) * 1e3, "ms");
  report.note("infer_ms_p90", quantile(latency_s, 0.9) * 1e3, "ms");
  report_modeled(*m.graph, *m.fused, *m.engine, report);
}

void trace_numeric_resnet50(const Args& args, Report& report) {
  Model m = plan_model(args.seed);
  const std::vector<Tensor> inputs =
      make_inputs(*m.graph, args.seed, kInputs);
  const std::vector<Tensor> expected =
      reference_outputs(*m.graph, *m.weights, inputs, report);

  // Alternate untraced and traced inferences: the ratio of their medians is
  // the tracing overhead. Engine-level per-layer numbers come from the
  // untraced passes.
  constexpr int kPasses = 8;
  std::vector<double> untraced_s, traced_s, run_s, vendor_s, padded_s,
      memo_s, overhead_s, backend_s;
  double fallbacks = 0.0, bricks = 0.0, cross_claims = 0.0;
  double compulsory = 0.0, conflict = 0.0, idle_tail = 0.0;
  double chains = 0.0, memo_runs = 0.0;
  const bool was_enabled = obs::Tracer::enabled();
  for (int i = 0; i < 2 * kPasses; ++i) {
    const bool traced = i % 2 == 1;
    obs::Tracer::instance().set_enabled(traced && was_enabled);
    const size_t k = static_cast<size_t>(i / 2) % inputs.size();
    PassTiming t;
    ++report.attempted;
    if (!infer(m, inputs[k], expected[k], t, report)) continue;
    (traced ? traced_s : untraced_s).push_back(t.total_s);
    if (traced) continue;
    double by_strategy[4] = {}, sum = 0.0;
    for (const SubgraphReport& sg : t.result.reports) {
      by_strategy[static_cast<int>(sg.executed)] += sg.wall_seconds;
      sum += sg.wall_seconds;
      if (sg.attempts.size() > 1) fallbacks += 1.0;
      bricks += static_cast<double>(sg.memo.bricks_computed);
      cross_claims += static_cast<double>(sg.memo.cross_boundary_claims);
      compulsory += static_cast<double>(sg.memo.compulsory_atomics);
      conflict += static_cast<double>(sg.memo.conflict_atomics);
      if (sg.memo.bricks_computed > 0) {
        idle_tail += sg.memo.idle_tail_fraction;
        memo_runs += 1.0;
      }
      // A chain's first member carries the chain's aggregated stats.
      if (sg.pipelined && sg.memo.bricks_computed > 0) chains += 1.0;
    }
    run_s.push_back(t.run_s);
    vendor_s.push_back(by_strategy[static_cast<int>(Strategy::kVendor)]);
    padded_s.push_back(by_strategy[static_cast<int>(Strategy::kPadded)]);
    memo_s.push_back(by_strategy[static_cast<int>(Strategy::kMemoized)]);
    overhead_s.push_back(t.run_s - sum);
    backend_s.push_back(t.backend_s);
  }
  obs::Tracer::instance().set_enabled(was_enabled);
  const double passes = static_cast<double>(std::max<size_t>(1, run_s.size()));

  report_partition("partition.numeric_resnet50", m.engine->partition(),
                   report);
  report.add("engine.chains", chains / passes, "count");
  report.add("engine.run_s", median(run_s), "s");
  report.add("exec.vendor_s", median(vendor_s), "s");
  report.add("exec.padded_s", median(padded_s), "s");
  report.add("exec.memoized_s", median(memo_s), "s");
  report.add("engine.overhead_s", median(overhead_s), "s");
  report.add("exec.fallbacks", fallbacks / passes, "count");
  report.add("memo.bricks", bricks / passes, "count");
  report.add("memo.conflict_frac", compulsory > 0 ? conflict / compulsory : 0.0,
             "fraction");
  report.add("memo.cross_claims", cross_claims / passes, "count");
  report.add("memo.idle_tail_frac", memo_runs > 0 ? idle_tail / memo_runs : 0.0,
             "fraction");
  report.add("backend.setup_s", median(backend_s), "s");
  report.add("trace.overhead_frac",
             median(traced_s) / median(untraced_s) - 1.0, "fraction");

  // Per-operator time: the same plan replayed subgraph by subgraph through
  // the timing backend, checked against the oracle like any inference.
  OpTimes ops;
  {
    Span span("ops.replay_timed");
    NumericBackend backend(*m.fused, *m.weights, kBackendWorkers);
    TensorId out = -1;
    ++report.attempted;
    const Status status = replay_timed(*m.fused, m.engine->partition(),
                                       backend, EngineOptions{}, &inputs[0],
                                       ops, &out);
    if (!status.ok()) {
      report.fail("timed replay: " + status.to_string());
    } else if (!bit_equal(backend.read(out), expected[0])) {
      report.fail("timed replay output differs from run_graph_reference");
    }
  }
  for (int g = 0; g < kOpGroups; ++g) {
    report.add(std::string("ops.") + op_group_name(static_cast<OpGroup>(g)) +
                   "_s",
               ops.seconds[static_cast<size_t>(g)], "s");
  }
  const double conv_s = ops.seconds[static_cast<size_t>(OpGroup::kConv)];
  report.add("ops.conv_gflops", conv_s > 0 ? ops.conv_flops / conv_s * 1e-9 : 0,
             "GFLOP/s");
}

}  // namespace perfbench
