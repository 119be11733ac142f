#include "baselines/fused_graph.hpp"

#include "baselines/vendor_tiled.hpp"
#include "core/halo_plan.hpp"

namespace brickdl {

const char* fusion_rules_name(FusionRules rules) {
  switch (rules) {
    case FusionRules::kNone: return "cuDNN";
    case FusionRules::kConvPointwise: return "TorchScript";
    case FusionRules::kAggressive: return "XLA";
  }
  return "?";
}

namespace {

bool pointwise_fusable(OpKind kind) {
  switch (kind) {
    case OpKind::kRelu:
    case OpKind::kSigmoid:
    case OpKind::kBatchNorm:
      return true;
    default:
      return false;
  }
}

bool elementwise_fusable(OpKind kind) {
  return pointwise_fusable(kind) || kind == OpKind::kAdd ||
         kind == OpKind::kConcat || kind == OpKind::kSoftmax;
}

}  // namespace

FusedGraphExecutor::FusedGraphExecutor(const Graph& graph, Backend& backend,
                                       FusionRules rules, i64 tile_side)
    : graph_(graph), backend_(backend), rules_(rules), tile_side_(tile_side) {
  build_groups();
  // Materialize graph inputs and every group terminal.
  for (const Node& node : graph.nodes()) {
    if (node.kind == OpKind::kInput) {
      materialized_.emplace(
          node.id, backend.register_tensor(node.out_shape, Layout::kCanonical,
                                           {}, "in:" + node.name));
    }
  }
  for (const auto& group : groups_) {
    const Node& terminal = graph.node(group.back());
    materialized_.emplace(
        terminal.id,
        backend.register_tensor(terminal.out_shape, Layout::kCanonical, {},
                                "act:" + terminal.name));
  }
}

TensorId FusedGraphExecutor::tensor_of(int node_id) const {
  auto it = materialized_.find(node_id);
  BDL_CHECK_MSG(it != materialized_.end(),
                "node " << graph_.node(node_id).name
                        << " is fusion-interior and never materializes");
  return it->second;
}

void FusedGraphExecutor::build_groups() {
  const int n = graph_.num_nodes();
  std::vector<bool> grouped(static_cast<size_t>(n), false);
  for (int i = 0; i < n; ++i) {
    const Node& node = graph_.node(i);
    if (node.kind == OpKind::kInput || grouped[static_cast<size_t>(i)]) {
      continue;
    }
    std::vector<int> group{i};
    grouped[static_cast<size_t>(i)] = true;

    const bool head_can_fuse =
        rules_ == FusionRules::kConvPointwise
            ? node.kind == OpKind::kConv
            : rules_ == FusionRules::kAggressive &&
                  (node.kind == OpKind::kConv || node.kind == OpKind::kPool ||
                   elementwise_fusable(node.kind));
    if (head_can_fuse) {
      // Extend with a single-consumer chain of fusable followers.
      int tail = i;
      for (;;) {
        const auto& consumers = graph_.consumers(tail);
        if (consumers.size() != 1) break;
        const int next = consumers[0];
        const Node& follower = graph_.node(next);
        if (next != tail + 1 || grouped[static_cast<size_t>(next)]) break;
        const bool fusable = rules_ == FusionRules::kAggressive
                                 ? elementwise_fusable(follower.kind)
                                 : pointwise_fusable(follower.kind);
        if (!fusable) break;
        group.push_back(next);
        grouped[static_cast<size_t>(next)] = true;
        tail = next;
      }
    }
    groups_.push_back(std::move(group));
  }
}

void FusedGraphExecutor::run_group_tiled(const std::vector<int>& group) {
  const Node& terminal = graph_.node(group.back());
  if (group.size() == 1) {
    // An unfused operator is one vendor-library call.
    run_node_tiled(graph_, terminal, backend_, materialized_,
                   tensor_of(terminal.id), tile_side_);
    return;
  }

  // The fusion group is a valid subgraph: reuse the halo planner with the
  // tile as the "brick" to get per-node windows for every tile.
  const Subgraph sg = make_subgraph(graph_, group);
  const HaloPlan plan(graph_, sg, vendor_tiles(terminal, tile_side_).brick);

  dispatch_invocations(backend_, plan.num_bricks(), [&](i64 t, int worker) {
    const Dims g = plan.terminal_grid().unlinear(t);
    const auto windows = plan.windows_for_brick(g);

    backend_.invocation_begin(worker);
    std::unordered_map<int, SlotId> slots;
    for (int nid : group) {
      const Node& node = graph_.node(nid);
      const BlockedWindow& out_w = windows.at(nid);
      Dims need_lo, need_extent;
      input_window_blocked(node, out_w.lo, out_w.extent, &need_lo,
                           &need_extent);
      std::vector<SlotId> inputs;
      for (int p : node.inputs) {
        auto it = slots.find(p);
        if (it != slots.end()) {
          inputs.push_back(it->second);  // fusion-interior value, in registers
        } else {
          inputs.push_back(
              backend_.load_window(worker, tensor_of(p), need_lo, need_extent));
        }
      }
      // Group interiors are pointwise over the terminal tile, so windows are
      // in-bounds by construction: no masking needed.
      slots[nid] = backend_.compute(worker, nid, inputs, out_w.lo, out_w.extent,
                                    /*mask_to_bounds=*/false);
      // Free external loads immediately; interior slots stay until tile end.
      for (size_t k = 0; k < inputs.size(); ++k) {
        const int p = node.inputs[k];
        if (!slots.count(p) || slots[p] != inputs[k]) {
          backend_.free_slot(worker, inputs[k]);
        }
      }
    }
    backend_.store_window(worker, slots.at(terminal.id),
                          tensor_of(terminal.id),
                          windows.at(terminal.id).lo,
                          windows.at(terminal.id).extent);
    slots.erase(terminal.id);
    for (auto& [nid, slot] : slots) backend_.free_slot(worker, slot);
  });
}

void FusedGraphExecutor::run() {
  for (const auto& group : groups_) run_group_tiled(group);
}

}  // namespace brickdl
