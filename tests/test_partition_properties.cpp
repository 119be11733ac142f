// Property suite for the §3.3.1 partitioner (CTest label `partition`).
//
// Over a seeded corpus of 200 random graphs, a tight footprint budget and the
// model zoo, `partition_graph` must uphold on every result, under both the
// cost-aware default and the literal §3.3.2–3.3.3 rules (`cost_aware =
// false`, which merges far more often on small graphs):
//  * subgraph validity (topological node order, single terminal, external
//    inputs declared) and acyclicity of the quotient DAG — checked as a
//    valid topological subgraph order (every external input is produced by a
//    graph input or an earlier subgraph's terminal);
//  * exactly-once coverage: every non-input node in exactly one subgraph;
//  * the L2 footprint budget as a hard cap on every multi-layer merged
//    subgraph. A single layer is admitted whatever its footprint: it has to
//    run somewhere and has no interior to keep on chip.
#include <gtest/gtest.h>

#include <vector>

#include "core/partitioner.hpp"
#include "models/models.hpp"
#include "testing/differential.hpp"
#include "testing/graph_gen.hpp"

namespace brickdl {
namespace {

constexpr u64 kSweepSeed = 2;  ///< decorrelated from the differential sweep

/// The cost-aware default and the literal paper rules, both at `l2_budget`.
std::vector<PartitionOptions> rule_sets(i64 l2_budget) {
  PartitionOptions cost_aware;
  cost_aware.l2_budget = l2_budget;
  PartitionOptions literal = cost_aware;
  literal.cost_aware = false;
  return {cost_aware, literal};
}

/// Subgraph invariants + exactly-once coverage + quotient-DAG topological
/// order. The order check is what rules out cycles: a cyclic quotient DAG
/// has no ordering in which every external input is already produced.
void check_partition_properties(const Graph& g, const Partition& p,
                                i64 l2_budget) {
  std::vector<int> covered(static_cast<size_t>(g.num_nodes()), 0);
  std::vector<bool> produced(static_cast<size_t>(g.num_nodes()), false);
  for (const Node& node : g.nodes()) {
    if (node.kind == OpKind::kInput) produced[static_cast<size_t>(node.id)] = true;
  }
  for (const auto& planned : p.subgraphs) {
    EXPECT_NO_THROW(validate_subgraph(g, planned.sg));
    for (int n : planned.sg.nodes) covered[static_cast<size_t>(n)]++;
    for (int ext : planned.sg.external_inputs) {
      EXPECT_TRUE(produced[static_cast<size_t>(ext)])
          << "subgraph terminating at '" << g.node(planned.sg.terminal()).name
          << "' consumes '" << g.node(ext).name
          << "' before any earlier subgraph produces it (quotient order "
             "broken or cyclic)";
    }
    produced[static_cast<size_t>(planned.sg.terminal())] = true;
    if (planned.strategy != Strategy::kVendor) {
      EXPECT_LE(planned.footprint_bytes, l2_budget)
          << "merged subgraph terminating at '"
          << g.node(planned.sg.terminal()).name
          << "' exceeds the footprint budget";
    }
  }
  for (const Node& node : g.nodes()) {
    const int expected = node.kind == OpKind::kInput ? 0 : 1;
    EXPECT_EQ(covered[static_cast<size_t>(node.id)], expected)
        << "node " << node.name << " covered "
        << covered[static_cast<size_t>(node.id)] << " times";
  }
}

void check_all_rule_sets(const Graph& g, i64 l2_budget) {
  for (const PartitionOptions& options : rule_sets(l2_budget)) {
    SCOPED_TRACE(options.cost_aware ? "cost-aware rules" : "literal rules");
    check_partition_properties(g, partition_graph(g, options), l2_budget);
  }
}

void sweep_random_graphs(int lo, int hi) {
  for (int idx = lo; idx < hi; ++idx) {
    const u64 seed = graph_seed(kSweepSeed, idx);
    const Graph g = random_graph(seed);
    SCOPED_TRACE("graph " + std::to_string(idx) + " (seed " +
                 std::to_string(seed) + ")");
    check_all_rule_sets(g, PartitionOptions{}.l2_budget);
  }
}

TEST(PartitionProperties, RandomGraphs000To049) { sweep_random_graphs(0, 50); }
TEST(PartitionProperties, RandomGraphs050To099) { sweep_random_graphs(50, 100); }
TEST(PartitionProperties, RandomGraphs100To149) { sweep_random_graphs(100, 150); }
TEST(PartitionProperties, RandomGraphs150To199) { sweep_random_graphs(150, 200); }

TEST(PartitionProperties, TightBudgetIsHardCap) {
  // An absurdly small budget must keep every merged subgraph within it (in
  // practice forcing every layer to vendor), never violate coverage. The
  // literal rules would merge this chain whole under the default budget.
  const Graph g = build_conv_chain_2d(6, 1, 96, 64);
  check_all_rule_sets(g, /*l2_budget=*/1);
}

TEST(PartitionProperties, ModelZooPartitionsCleanly) {
  ModelConfig config;
  config.batch = 1;
  config.spatial = 64;
  config.width_div = 8;
  for (const auto& [name, builder] : model_zoo()) {
    const Graph g = builder(config);
    SCOPED_TRACE(name);
    check_all_rule_sets(g, PartitionOptions{}.l2_budget);
  }
}

}  // namespace
}  // namespace brickdl
