#include "core/halo_plan.hpp"

#include <algorithm>

#include "core/brick_walk.hpp"

namespace brickdl {

Subgraph make_subgraph(const Graph& graph, std::vector<int> nodes) {
  Subgraph sg;
  sg.nodes = std::move(nodes);
  for (int n : sg.nodes) {
    for (int p : graph.node(n).inputs) {
      if (!sg.contains(p) &&
          std::find(sg.external_inputs.begin(), sg.external_inputs.end(), p) ==
              sg.external_inputs.end()) {
        sg.external_inputs.push_back(p);
      }
    }
  }
  return sg;
}

void validate_subgraph(const Graph& graph, const Subgraph& sg) {
  BDL_CHECK_MSG(!sg.nodes.empty(), "empty subgraph");
  for (size_t i = 1; i < sg.nodes.size(); ++i) {
    BDL_CHECK_MSG(sg.nodes[i - 1] < sg.nodes[i],
                  "subgraph nodes must be in topological (id) order");
  }
  const int terminal = sg.terminal();
  for (int n : sg.nodes) {
    if (n == terminal) continue;
    for (int c : graph.consumers(n)) {
      BDL_CHECK_MSG(sg.contains(c),
                    "non-terminal node " << graph.node(n).name
                                         << " has external consumer "
                                         << graph.node(c).name);
    }
  }
  for (int n : sg.nodes) {
    for (int p : graph.node(n).inputs) {
      if (!sg.contains(p)) {
        const bool listed = std::find(sg.external_inputs.begin(),
                                      sg.external_inputs.end(),
                                      p) != sg.external_inputs.end();
        BDL_CHECK_MSG(listed, "producer " << graph.node(p).name
                                          << " missing from external_inputs");
      }
    }
  }
}

namespace {

BlockedWindow union_window(const BlockedWindow& a, const BlockedWindow& b) {
  BDL_CHECK(a.lo.rank() == b.lo.rank());
  BlockedWindow u;
  u.lo = a.lo;
  u.extent = a.extent;
  for (int d = 0; d < a.lo.rank(); ++d) {
    const i64 lo = std::min(a.lo[d], b.lo[d]);
    const i64 hi = std::max(a.lo[d] + a.extent[d], b.lo[d] + b.extent[d]);
    u.lo[d] = lo;
    u.extent[d] = hi - lo;
  }
  return u;
}

/// Required windows for one terminal brick window, keyed by node id. Clears
/// and refills `windows` (bucket storage is reused across calls).
void propagate(const Graph& graph, const Subgraph& sg,
               const BlockedWindow& terminal,
               std::unordered_map<int, BlockedWindow>* windows) {
  windows->clear();
  windows->emplace(sg.terminal(), terminal);

  // Reverse topological: consumers are resolved before their producers.
  for (auto it = sg.nodes.rbegin(); it != sg.nodes.rend(); ++it) {
    const Node& consumer = graph.node(*it);
    const auto cit = windows->find(*it);
    BDL_CHECK_MSG(cit != windows->end(),
                  "node " << consumer.name << " unreachable from terminal");
    Dims in_lo, in_extent;
    input_window_blocked(consumer, cit->second.lo, cit->second.extent, &in_lo,
                         &in_extent);
    const BlockedWindow need{in_lo, in_extent};
    for (int p : consumer.inputs) {
      auto [pit, inserted] = windows->emplace(p, need);
      if (!inserted) pit->second = union_window(pit->second, need);
    }
  }
}

}  // namespace

HaloPlan::HaloPlan(const Graph& graph, const Subgraph& sg,
                   const Dims& brick_extent)
    : graph_(graph), sg_(sg), brick_extent_(brick_extent) {
  validate_subgraph(graph, sg);
  terminal_grid_ = layer_grid(graph.node(sg.terminal()), brick_extent).grid;

  // Representative interior brick (center of the grid) for static metrics.
  Dims center = terminal_grid_;
  for (int d = 0; d < center.rank(); ++d) center[d] /= 2;
  const auto windows = windows_for_brick(center);

  double padded_volume = 0.0;   // data per brick × number of bricks
  double exact_volume = 0.0;    // each layer touched exactly once
  i64 scratch = 0;
  for (const auto& [id, w] : windows) {
    const Node& n = graph.node(id);
    const double channels = static_cast<double>(n.out_shape.channels());
    padded_volume += channels * static_cast<double>(w.volume()) *
                     static_cast<double>(num_bricks());
    exact_volume +=
        channels * static_cast<double>(n.out_shape.blocked_dims().product());
    max_extents_.emplace(id, w.extent);
    scratch += n.out_shape.channels() * w.volume();
  }
  padding_growth_ = exact_volume > 0.0 ? padded_volume / exact_volume - 1.0 : 0.0;
  // Conservative bound: all windows live at once. Liveness-aware executors
  // free earlier, so this over-estimates, never under-estimates.
  max_scratch_floats_ = scratch;
}

std::unordered_map<int, BlockedWindow> HaloPlan::windows_for_brick(
    const Dims& g) const {
  std::unordered_map<int, BlockedWindow> windows;
  windows_for_brick(g, &windows);
  return windows;
}

void HaloPlan::windows_for_brick(
    const Dims& g, std::unordered_map<int, BlockedWindow>* out) const {
  BDL_CHECK(g.rank() == terminal_grid_.rank());
  BlockedWindow terminal;
  terminal.lo = g;
  terminal.extent = brick_extent_;
  const Dims bounds = graph_.node(sg_.terminal()).out_shape.blocked_dims();
  for (int d = 0; d < g.rank(); ++d) {
    BDL_CHECK(g[d] >= 0 && g[d] < terminal_grid_[d]);
    terminal.lo[d] = g[d] * brick_extent_[d];
    // Clip the terminal brick to the layer bounds so boundary bricks do not
    // compute masked positions.
    terminal.extent[d] =
        std::min(brick_extent_[d], bounds[d] - terminal.lo[d]);
  }
  propagate(graph_, sg_, terminal, out);
}

}  // namespace brickdl
