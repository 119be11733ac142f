// sim_fig07 — the paper's Figure 7 path at the `fig07 --quick` sizes.
//
// Why this workload: the simulator and the executors' access-stream emission
// do almost all the host work and the numeric kernels do none, so planner and
// cost-model changes show here as modeled time, and simulator changes as host
// time per pass. The simulator models addresses, not values: the seed changes
// nothing in this workload (every pass must produce identical counters).
#include <memory>

#include "bench.hpp"
#include "graph/rewrite.hpp"
#include "layers.hpp"
#include "models/models.hpp"

namespace perfbench {

using namespace brickdl;

namespace {

struct SimModel {
  const char* name;
  ModelBuilder builder;
  i64 batch, spatial, width_div;
  int max_layers;
};

constexpr SimModel kModels[] = {
    {"resnet50", &build_resnet50, 16, 112, 2, 12},
    {"darknet53", &build_darknet53, 16, 224, 4, 6},
};

/// One model, built, rewritten and planned. Engine keeps a reference to the
/// fused graph, so both live behind stable addresses.
struct Planned {
  const SimModel* model = nullptr;
  std::unique_ptr<Graph> graph;  ///< as built (the cuDNN baseline runs this)
  std::unique_ptr<Graph> fused;  ///< after fuse_conv_pointwise
  std::unique_ptr<Engine> engine;
  double build_s = 0.0;
  double plan_s = 0.0;
};

Planned plan_model(const SimModel& model) {
  Planned p;
  p.model = &model;
  ModelConfig config;
  config.batch = model.batch;
  config.spatial = model.spatial;
  config.width_div = model.width_div;
  config.classes = 100;
  double t0 = now_s();
  {
    Span span("graph.build");
    p.graph = std::make_unique<Graph>(model.builder(config));
    p.fused = std::make_unique<Graph>(fuse_conv_pointwise(*p.graph));
  }
  p.build_s = now_s() - t0;
  EngineOptions options;
  options.partition.max_layers = model.max_layers;
  t0 = now_s();
  {
    Span span("engine.construct");
    p.engine = std::make_unique<Engine>(*p.fused, options);
  }
  p.plan_s = now_s() - t0;
  return p;
}

/// One simulated pass over every model; `seconds[i]` receives model i's host
/// time (simulator construction + engine run). False (with the failure
/// recorded) when an engine run fails.
bool sim_pass(std::vector<Planned>& models, std::vector<ModeledPass>& out,
              std::vector<double>& seconds, Report& report) {
  out.assign(models.size(), {});
  seconds.assign(models.size(), 0.0);
  for (size_t i = 0; i < models.size(); ++i) {
    Span span(std::string("sim.pass:") + models[i].model->name);
    const double t0 = now_s();
    const Status status =
        simulate_engine(*models[i].fused, *models[i].engine, out[i]);
    seconds[i] = now_s() - t0;
    if (!status.ok()) {
      report.fail(std::string(models[i].model->name) + ": " +
                  status.to_string());
      return false;
    }
  }
  return true;
}

bool same_counters(const TxnCounters& a, const TxnCounters& b) {
  return a.l1 == b.l1 && a.l2 == b.l2 && a.dram_read == b.dram_read &&
         a.dram_write == b.dram_write &&
         a.atomics_compulsory == b.atomics_compulsory &&
         a.atomics_conflict == b.atomics_conflict;
}

/// Record a failure when `passes` does not reproduce the reference pass's
/// counters and modeled time exactly.
void check_pass(const std::vector<Planned>& models,
                const std::vector<ModeledPass>& passes,
                const std::vector<ModeledPass>& reference, Report& report) {
  for (size_t i = 0; i < passes.size(); ++i) {
    if (!same_counters(passes[i].run.txns, reference[i].run.txns) ||
        passes[i].modeled_seconds() != reference[i].modeled_seconds()) {
      report.fail(std::string(models[i].model->name) +
                  ": counters differ from the first pass");
      return;
    }
  }
}

/// One set-up: build + rewrite + Engine construction of every model, and
/// the first simulated pass into `first`. Returns its seconds, or -1 when a
/// pass failed (recorded in `report`).
double set_up(std::vector<Planned>& models, std::vector<ModeledPass>& first,
              Report& report) {
  const double t0 = now_s();
  for (const SimModel& m : kModels) models.push_back(plan_model(m));
  ++report.attempted;
  std::vector<double> seconds;
  if (!sim_pass(models, first, seconds, report)) return -1.0;
  return now_s() - t0;
}

double total_modeled_ms(const std::vector<ModeledPass>& passes) {
  double s = 0.0;
  for (const ModeledPass& p : passes) s += p.modeled_seconds();
  return s * 1e3;
}

}  // namespace

void run_sim_fig07(const Args& args, Report& report) {
  // The engines the passes run are set up first; their first pass is the
  // reference every later pass must reproduce exactly.
  std::vector<double> setup_s;
  std::vector<Planned> models;
  std::vector<ModeledPass> reference;
  setup_s.push_back(set_up(models, reference, report));
  if (setup_s.back() < 0) return;

  // Measured passes. The other set-ups are spread evenly over the run, so
  // that one slow stretch of the host does not hit them all; each plans
  // spare engines whose first pass is checked like any other.
  std::vector<double> pass_s, seconds;
  std::vector<std::vector<double>> model_s(models.size());
  std::vector<ModeledPass> passes;
  const double start = now_s();
  while (pass_s.size() < 3 || now_s() - start < args.seconds) {
    const double due = args.seconds * static_cast<double>(setup_s.size()) /
                       static_cast<double>(kSetups);
    if (setup_s.size() < kSetups && now_s() - start >= due) {
      std::vector<Planned> spare;
      setup_s.push_back(set_up(spare, passes, report));
      if (setup_s.back() < 0) return;
      check_pass(models, passes, reference, report);
      continue;
    }
    ++report.attempted;
    if (!sim_pass(models, passes, seconds, report)) return;
    double total = 0.0;
    for (size_t i = 0; i < models.size(); ++i) {
      model_s[i].push_back(seconds[i]);
      total += seconds[i];
    }
    pass_s.push_back(total);
    check_pass(models, passes, reference, report);
  }

  // The cuDNN-rules baseline runs once per process to give the ratio.
  std::vector<double> ratios;
  for (size_t i = 0; i < models.size(); ++i) {
    const ModeledPass cudnn = simulate_cudnn(*models[i].graph);
    ratios.push_back(reference[i].modeled_seconds() /
                     cudnn.modeled_seconds());
  }

  report.add("setup_s", quantile(setup_s, 0.0), "s");
  // Fastest pass of each model, summed: a slow stretch of the host that
  // hits one model's pass does not hide the other's fastest.
  double fastest_s = 0.0;
  for (const std::vector<double>& s : model_s) fastest_s += quantile(s, 0.0);
  report.add("latency_ms", fastest_s * 1e3, "ms");
  report.add("modeled_ms", total_modeled_ms(reference), "model-ms");
  report.add("modeled_vs_cudnn", geomean(ratios), "ratio");
  report.note("sim_pass_s", quantile(pass_s, 0.5), "s");
}

void trace_sim_fig07(const Args& /*args*/, Report& report) {
  double build_s = 0.0, plan_s = 0.0, nodes = 0.0;
  Partition both;  // the two models' plans, for the strategy counts
  double run_s = 0.0, modeled_ms = 0.0, cudnn_s = 0.0, cudnn_ms = 0.0;
  TxnCounters txns;
  std::vector<double> pred_ratios, vs_cudnn;
  OpTimes ops;
  for (const SimModel& m : kModels) {
    Planned p = plan_model(m);
    build_s += p.build_s;
    plan_s += p.plan_s;
    nodes += p.fused->num_nodes();
    const Partition& part = p.engine->partition();
    both.subgraphs.insert(both.subgraphs.end(), part.subgraphs.begin(),
                          part.subgraphs.end());

    ModeledPass pass;
    ++report.attempted;
    const Status status = simulate_engine(*p.fused, *p.engine, pass);
    if (!status.ok()) {
      report.fail(std::string(m.name) + ": " + status.to_string());
      return;
    }
    run_s += pass.host_seconds;
    modeled_ms += pass.modeled_seconds() * 1e3;
    txns += pass.run.txns;
    const double predicted = predicted_partition_seconds(
        *p.fused, part, MachineParams::a100());
    pred_ratios.push_back(predicted / pass.modeled_seconds());
    report.add(std::string("partition.pred_ratio.") + m.name,
               predicted / pass.modeled_seconds(), "ratio");

    {
      Span span(std::string("sim.replay_timed:") + m.name);
      MemoryHierarchySim sim(MachineParams::a100());
      ModelBackend backend(*p.fused, sim);
      const Status replay = replay_timed(*p.fused, part, backend,
                                         EngineOptions{}, nullptr, ops);
      if (!replay.ok()) report.fail(std::string(m.name) + " replay: " +
                                    replay.to_string());
    }
    {
      Span span(std::string("baselines.cudnn:") + m.name);
      const ModeledPass cudnn = simulate_cudnn(*p.graph);
      cudnn_s += cudnn.host_seconds;
      cudnn_ms += cudnn.modeled_seconds() * 1e3;
      vs_cudnn.push_back(pass.modeled_seconds() / cudnn.modeled_seconds());
    }
  }

  report.add("graph.build_s", build_s, "s");
  report.add("graph.nodes", nodes, "count");
  report.add("partition.plan_s", plan_s, "s");
  report_partition("partition", both, report);
  report.add("partition.pred_ratio", geomean(pred_ratios), "ratio");
  report.add("sim.modeled_ms", modeled_ms, "model-ms");
  report.add("sim.modeled_vs_cudnn", geomean(vs_cudnn), "ratio");
  report.add("sim.run_s", run_s, "s");
  report.add("sim.l1_txns", static_cast<double>(txns.l1), "count");
  report.add("sim.l2_txns", static_cast<double>(txns.l2), "count");
  report.add("sim.dram_txns", static_cast<double>(txns.dram()), "count");
  report.add("sim.atomic_txns", static_cast<double>(txns.atomics()), "count");
  report.add("sim.l2_hit_frac",
             txns.l2 > 0 ? 1.0 - static_cast<double>(txns.dram_read) /
                                     static_cast<double>(txns.l2)
                         : 0.0,
             "fraction");
  report.add("sim.lines_per_s", static_cast<double>(txns.l1) / run_s, "1/s");
  for (int g = 0; g < kOpGroups; ++g) {
    report.add(std::string("sim.") + op_group_name(static_cast<OpGroup>(g)) +
                   "_s",
               ops.seconds[static_cast<size_t>(g)], "s");
  }
  report.add("baselines.cudnn_pass_s", cudnn_s, "s");
  report.add("baselines.cudnn_modeled_ms", cudnn_ms, "model-ms");
}

}  // namespace perfbench
