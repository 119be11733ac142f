#include "layers.hpp"

#include <chrono>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "testing/reference_eager.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace brickdl;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Status simulate_engine(const Graph& graph, Engine& engine, ModeledPass& pass) {
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(graph, sim);
  const auto t0 = std::chrono::steady_clock::now();
  Result<EngineResult> run = engine.run_checked(backend);
  pass.host_seconds = seconds_since(t0);
  if (!run.ok()) return run.status();
  pass.run.txns = run.value().total_txns;
  pass.run.tally = run.value().total_tally;
  pass.run.breakdown =
      CostModel(sim.params()).breakdown(pass.run.txns, pass.run.tally);
  return Status();
}

ModeledPass simulate_cudnn(const Graph& graph) {
  ModeledPass pass;
  const auto t0 = std::chrono::steady_clock::now();
  pass.run = bench::run_baseline(graph, FusionRules::kNone);
  pass.host_seconds = seconds_since(t0);
  return pass;
}

void report_modeled(const Graph& built, const Graph& planned, Engine& engine,
                    Report& report) {
  ModeledPass pass;
  const Status status = simulate_engine(planned, engine, pass);
  if (!status.ok()) {
    report.fail("simulated pass: " + status.to_string());
    return;
  }
  const ModeledPass cudnn = simulate_cudnn(built);
  report.add("modeled_ms", pass.modeled_seconds() * 1e3, "model-ms");
  report.add("modeled_vs_cudnn",
             pass.modeled_seconds() / cudnn.modeled_seconds(), "ratio");
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.bytes())) == 0;
}

std::vector<Tensor> make_inputs(const Graph& graph, u64 seed, int count) {
  std::vector<Tensor> inputs;
  for (int k = 0; k < count; ++k) {
    Tensor t(graph.node(0).out_shape.dims);
    Rng rng(seed * 7919 + static_cast<u64>(k));
    t.fill_random(rng);
    inputs.push_back(std::move(t));
  }
  return inputs;
}

std::vector<Tensor> reference_outputs(const Graph& graph, WeightStore& weights,
                                      const std::vector<Tensor>& inputs,
                                      Report& report) {
  Span span("oracle");
  const int out = graph.outputs().at(0);
  std::vector<Tensor> outs;
  for (const Tensor& in : inputs) {
    outs.push_back(std::move(run_graph_reference(graph, in, weights).at(out)));
    ++report.attempted;
    if (!bit_equal(outs.back(), run_graph_eager(graph, in, weights).at(out))) {
      report.fail("run_graph_reference differs from the eager oracle");
    }
  }
  return outs;
}

void report_partition(const std::string& prefix, const Partition& partition,
                      Report& report) {
  report.add(prefix + ".subgraphs",
             static_cast<double>(partition.subgraphs.size()), "count");
  for (Strategy strategy :
       {Strategy::kPadded, Strategy::kMemoized, Strategy::kVendor}) {
    double nodes = 0.0;
    for (const PlannedSubgraph& sg : partition.subgraphs) {
      if (sg.strategy == strategy) {
        nodes += static_cast<double>(sg.sg.nodes.size());
      }
    }
    report.add(prefix + ".nodes." + strategy_name(strategy), nodes, "count");
  }
}

const char* op_group_name(OpGroup group) {
  switch (group) {
    case OpGroup::kConv: return "conv";
    case OpGroup::kAdd: return "add";
    case OpGroup::kRelu: return "relu";
    case OpGroup::kPool: return "pool";
    case OpGroup::kDense: return "dense";
    case OpGroup::kSoftmax: return "softmax";
    case OpGroup::kOther: return "other";
  }
  return "other";
}

namespace {

OpGroup op_group(OpKind kind) {
  switch (kind) {
    case OpKind::kConv: return OpGroup::kConv;
    case OpKind::kAdd: return OpGroup::kAdd;
    case OpKind::kRelu: return OpGroup::kRelu;
    case OpKind::kPool: return OpGroup::kPool;
    case OpKind::kDense:
    case OpKind::kGlobalAvgPool: return OpGroup::kDense;
    case OpKind::kSoftmax: return OpGroup::kSoftmax;
    default: return OpGroup::kOther;
  }
}

/// Forwards every call to `inner`, timing them per worker. Loads are held
/// as pending until the worker's next compute, which takes them; a store is
/// charged to the worker's last computed group.
class TimedBackend final : public Backend {
 public:
  TimedBackend(const Graph& graph, Backend& inner)
      : Backend(graph),
        inner_(inner),
        workers_(static_cast<size_t>(inner.num_workers())) {}

  int num_workers() const override { return inner_.num_workers(); }
  TensorId register_tensor(const Shape& shape, Layout layout,
                           const Dims& brick_extent,
                           const std::string& name) override {
    return inner_.register_tensor(shape, layout, brick_extent, name);
  }
  void invocation_begin(int worker) override {
    inner_.invocation_begin(worker);
  }
  SlotId load_window(int worker, TensorId src, const Dims& lo,
                     const Dims& extent) override {
    const auto t0 = std::chrono::steady_clock::now();
    const SlotId slot = inner_.load_window(worker, src, lo, extent);
    at(worker).pending_load += seconds_since(t0);
    return slot;
  }
  void store_window(int worker, SlotId slot, TensorId dst, const Dims& lo,
                    const Dims& extent) override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_.store_window(worker, slot, dst, lo, extent);
    Worker& w = at(worker);
    w.seconds[static_cast<size_t>(w.last)] += seconds_since(t0);
  }
  void free_slot(int worker, SlotId slot) override {
    inner_.free_slot(worker, slot);
  }
  SlotId compute(int worker, int node_id, const std::vector<SlotId>& inputs,
                 const Dims& out_lo, const Dims& out_extent,
                 bool mask_to_bounds) override {
    const auto t0 = std::chrono::steady_clock::now();
    const SlotId slot = inner_.compute(worker, node_id, inputs, out_lo,
                                       out_extent, mask_to_bounds);
    charge(worker, node_id, seconds_since(t0));
    return slot;
  }
  void execute_global(int worker, int node_id,
                      const std::vector<TensorId>& inputs,
                      TensorId out) override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_.execute_global(worker, node_id, inputs, out);
    charge(worker, node_id, seconds_since(t0));
  }
  void count_atomics(i64 compulsory, i64 conflict) override {
    inner_.count_atomics(compulsory, conflict);
  }
  void tally_defer(i64 n) override { inner_.tally_defer(n); }
  void tally_reduce(i64 bricks) override { inner_.tally_reduce(bricks); }
  void tally_sync(i64 n) override { inner_.tally_sync(n); }
  void discard_tensor(TensorId id) override { inner_.discard_tensor(id); }
  void warm_worker(int worker) override { inner_.warm_worker(worker); }

  void add_to(OpTimes& times) const {
    for (const Worker& w : workers_) {
      for (int g = 0; g < kOpGroups; ++g) {
        times.seconds[static_cast<size_t>(g)] +=
            w.seconds[static_cast<size_t>(g)];
      }
    }
  }

 private:
  struct Worker {
    std::array<double, kOpGroups> seconds{};
    double pending_load = 0.0;
    OpGroup last = OpGroup::kOther;
  };

  Worker& at(int worker) { return workers_.at(static_cast<size_t>(worker)); }

  void charge(int worker, int node_id, double seconds) {
    Worker& w = at(worker);
    w.last = op_group(graph_.node(node_id).kind);
    w.seconds[static_cast<size_t>(w.last)] += seconds + w.pending_load;
    w.pending_load = 0.0;
  }

  Backend& inner_;
  std::vector<Worker> workers_;
};

}  // namespace

Status replay_timed(const Graph& graph, const Partition& partition,
                    Backend& backend, const EngineOptions& options,
                    const Tensor* input, OpTimes& times, TensorId* output) {
  auto* numeric = dynamic_cast<NumericBackend*>(&backend);
  TimedBackend timed(graph, backend);
  std::unordered_map<int, TensorId> boundary;
  for (const Node& node : graph.nodes()) {
    if (node.kind != OpKind::kInput) {
      if (node.kind == OpKind::kConv) {
        times.conv_flops +=
            static_cast<double>(flops(node, graph.input_shapes(node)));
      }
      continue;
    }
    const TensorId id = timed.register_tensor(node.out_shape,
                                              Layout::kCanonical, {}, "in");
    if (numeric && input) numeric->bind(id, *input);
    boundary.emplace(node.id, id);
  }
  for (const PlannedSubgraph& plan : partition.subgraphs) {
    std::unordered_map<int, TensorId> io;
    for (int ext : plan.sg.external_inputs) io.emplace(ext, boundary.at(ext));
    const Node& terminal = graph.node(plan.sg.terminal());
    const bool merged = plan.strategy != Strategy::kVendor;
    const TensorId out = timed.register_tensor(
        terminal.out_shape, merged ? Layout::kBricked : Layout::kCanonical,
        merged ? plan.brick_extent : Dims{}, "out");
    BDL_RETURN_IF_ERROR(
        run_planned_subgraph_checked(graph, plan, timed, io, out, options));
    boundary[terminal.id] = out;
  }
  timed.add_to(times);
  if (output) *output = boundary.at(graph.outputs().at(0));
  return Status();
}

}  // namespace perfbench
