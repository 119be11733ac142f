#include "obs/profile.hpp"

#include <algorithm>
#include <vector>

#include "core/brick_walk.hpp"
#include "core/halo_plan.hpp"

namespace brickdl::obs {
namespace {

constexpr i64 kFloatBytes = static_cast<i64>(sizeof(float));

/// Compulsory DRAM traffic shared by every merged strategy: external inputs
/// and weights stream in once, the terminal output writes back once.
/// Interior layers live in memo buffers (discarded unread from DRAM) or
/// on-chip scratch, so they move no compulsory DRAM bytes.
void add_merged_bytes(const Graph& graph, const Subgraph& sg,
                      SubgraphPrediction* p) {
  for (int ext : sg.external_inputs) {
    p->bytes_read += graph.node(ext).out_shape.bytes();
  }
  for (int nid : sg.nodes) {
    p->bytes_read += graph.node(nid).weight_elements() * kFloatBytes;
  }
  p->bytes_written += graph.node(sg.terminal()).out_shape.bytes();
}

void add_flops(const Graph& graph, int nid, double volume,
               SubgraphPrediction* p) {
  const Node& node = graph.node(nid);
  const double f =
      flops_per_blocked_point(node, graph.input_shapes(node)) * volume;
  (uses_tensor_cores(node) ? p->tc_flops : p->flops) += f;
}

/// Perfect-overlap time from the predicted counters and `syncs` device-wide
/// barriers, through the same CostModel::breakdown the observed side uses.
double predicted_seconds(const SubgraphPrediction& p, double rho,
                         const MachineParams& machine, i64 syncs = 0) {
  const CostModel cost(machine);
  TxnCounters txns;
  txns.dram_read = ceil_div(p.bytes_read, machine.line_bytes);
  txns.dram_write = ceil_div(p.bytes_written, machine.line_bytes);
  txns.atomics_compulsory = p.compulsory_atomics;
  ComputeTally tally;
  tally.invocations = p.invocations;
  tally.flops = p.flops;
  tally.tc_flops = p.tc_flops;
  tally.bricks_reduced = p.bricks;
  tally.syncs = syncs;
  return cost.breakdown(txns, tally, rho).total();
}

}  // namespace

SubgraphPrediction predict_subgraph(const Graph& graph,
                                    const PlannedSubgraph& planned,
                                    const MachineParams& machine) {
  SubgraphPrediction p;
  p.strategy = planned.strategy;
  const Subgraph& sg = planned.sg;

  if (planned.strategy == Strategy::kVendor) {
    // Vendor subgraphs run per-layer library calls with canonical interiors:
    // every layer's inputs, weights, and output move through DRAM. Tile
    // counts depend on the runtime tile side, so invocations stay zero.
    for (int ext : sg.external_inputs) {
      p.bytes_read += graph.node(ext).out_shape.bytes();
    }
    for (int nid : sg.nodes) {
      const Node& node = graph.node(nid);
      p.bytes_read += node.weight_elements() * kFloatBytes;
      p.bytes_written += node.out_shape.bytes();
      if (nid != sg.terminal()) p.bytes_read += node.out_shape.bytes();
      const double f =
          static_cast<double>(flops(node, graph.input_shapes(node)));
      (uses_tensor_cores(node) ? p.tc_flops : p.flops) += f;
    }
    p.seconds = predicted_seconds(p, /*rho=*/0.0, machine);
    return p;
  }

  p.modeled = true;
  // The exact-brick strategies walk the executors' own brick enumeration.
  const BrickWalk walk(graph, {BrickStage{&sg, planned.brick_extent}});
  const auto add_brick_flops = [&](int layer, i64 brick) {
    Dims lo, extent;
    walk.grid(layer).brick_window(brick, &lo, &extent);
    add_flops(graph, walk.node_id(layer), static_cast<double>(extent.product()),
              &p);
  };

  i64 syncs = 0;
  switch (planned.strategy) {
    case Strategy::kPadded: {
      // One invocation per (terminal brick, layer); each computes the
      // halo-expanded window the reverse-traversal planner schedules.
      const HaloPlan plan(graph, sg, planned.brick_extent);
      const i64 terminal_bricks = plan.num_bricks();
      p.invocations = terminal_bricks * static_cast<i64>(sg.nodes.size());
      p.bricks = terminal_bricks;
      double exact_flops = 0.0;
      for (int nid : sg.nodes) {
        exact_flops += static_cast<double>(
            flops(graph.node(nid), graph.input_shapes(graph.node(nid))));
      }
      for (i64 b = 0; b < terminal_bricks; ++b) {
        const auto windows =
            plan.windows_for_brick(plan.terminal_grid().unlinear(b));
        for (int nid : sg.nodes) {
          add_flops(graph, nid,
                    static_cast<double>(windows.at(nid).volume()), &p);
        }
      }
      p.halo_recompute_flops =
          std::max(0.0, p.flops + p.tc_flops - exact_flops);
      break;
    }
    case Strategy::kMemoized:
      // The bricks a fault-free run computes exactly once, each claimed and
      // published with one CAS apiece.
      p.bricks = walk.for_each_reachable(add_brick_flops);
      p.invocations = p.bricks;
      p.compulsory_atomics = 2 * p.bricks;
      break;
    case Strategy::kWavefront:
      // Exact bricks, every brick of every layer, no atomics; one barrier
      // per wave of the executor's own schedule.
      for (int layer = 0; layer < walk.num_layers(); ++layer) {
        for (i64 b = 0; b < walk.grid(layer).num_bricks(); ++b) {
          add_brick_flops(layer, b);
        }
      }
      syncs = static_cast<i64>(wave_schedule(walk).waves.size());
      p.bricks = walk.total_bricks();
      p.invocations = p.bricks;
      break;
    case Strategy::kVendor:
      break;  // handled above
  }

  add_merged_bytes(graph, sg, &p);
  p.seconds = predicted_seconds(p, planned.rho, machine, syncs);
  return p;
}

Json SubgraphPrediction::to_json() const {
  Json j = Json::object();
  j.set("strategy", std::string(strategy_name(strategy)));
  j.set("modeled", modeled);
  j.set("invocations", invocations);
  j.set("bricks", bricks);
  j.set("compulsory_atomics", compulsory_atomics);
  j.set("flops", flops);
  j.set("tc_flops", tc_flops);
  j.set("halo_recompute_flops", halo_recompute_flops);
  j.set("bytes_read", bytes_read);
  j.set("bytes_written", bytes_written);
  j.set("bytes_moved", bytes_moved());
  j.set("seconds", seconds);
  return j;
}

}  // namespace brickdl::obs
