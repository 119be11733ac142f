// Subgraph: a contiguous group of graph nodes executed as one merged unit.
//
// Invariants maintained by the partitioner (§3.3.1 and DESIGN.md §5):
//  * `nodes` are in topological order; the last entry is the unique terminal;
//  * only the terminal may have consumers outside the subgraph;
//  * every non-terminal node's consumers are all inside the subgraph;
//  * external producers feeding the subgraph are listed in `external_inputs`.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace brickdl {

struct Subgraph {
  std::vector<int> nodes;
  std::vector<int> external_inputs;  ///< producer node ids outside the subgraph
  bool merged = false;  ///< true: merged brick execution; false: vendor fallback

  int terminal() const {
    BDL_CHECK(!nodes.empty());
    return nodes.back();
  }
  bool contains(int node_id) const {
    for (int n : nodes) {
      if (n == node_id) return true;
    }
    return false;
  }
};

/// The subgraph of `nodes` (topological order, terminal last): every
/// producer outside it is listed once in `external_inputs`, in first-use
/// order. `merged` is left for the planner to set.
Subgraph make_subgraph(const Graph& graph, std::vector<int> nodes);

/// Validate the subgraph invariants against `graph`; throws on violation.
void validate_subgraph(const Graph& graph, const Subgraph& sg);

}  // namespace brickdl
