// Access-stream pins (CTest label `differential`).
//
// The modeled A100 numbers are a pure function of the access stream the
// executors emit into the ModelBackend: every window load and store, every
// invocation boundary, every atomic and every tally. These tests pin that
// stream exactly, as transaction counters and compute tallies, for two small
// graphs through every execution path: engine-forced padded, memoized (one
// subgraph at a time and as a chain), wavefront and vendor, and the three
// fused-graph baselines. A refactor of an executor that changes the order or
// the arguments of any backend call moves at least one of these numbers.
//
// The constants were recorded from the executors as they stood when the
// test was added; a deliberate change to the stream must re-record them and
// say why.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "baselines/fused_graph.hpp"
#include "core/engine.hpp"
#include "models/models.hpp"

namespace brickdl {
namespace {

struct Stream {
  TxnCounters txns;
  ComputeTally tally;
};

/// The stream as a C++ initializer, so a mismatch prints the row to paste.
std::string row(const Stream& s) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{%lld, %lld, %lld, %lld, %lld, %lld, %lld, %.17g, %.17g, "
                "%lld, %lld, %lld}",
                static_cast<long long>(s.txns.l1),
                static_cast<long long>(s.txns.l2),
                static_cast<long long>(s.txns.dram_read),
                static_cast<long long>(s.txns.dram_write),
                static_cast<long long>(s.txns.atomics_compulsory),
                static_cast<long long>(s.txns.atomics_conflict),
                static_cast<long long>(s.tally.invocations), s.tally.flops,
                s.tally.tc_flops, static_cast<long long>(s.tally.defers),
                static_cast<long long>(s.tally.bricks_reduced),
                static_cast<long long>(s.tally.syncs));
  return buf;
}

struct Expected {
  i64 l1, l2, dram_read, dram_write, atomics_compulsory, atomics_conflict;
  i64 invocations;
  double flops, tc_flops;
  i64 defers, bricks_reduced, syncs;
};

void expect_stream(const Stream& s, const Expected& e) {
  SCOPED_TRACE("observed " + row(s));
  EXPECT_EQ(s.txns.l1, e.l1);
  EXPECT_EQ(s.txns.l2, e.l2);
  EXPECT_EQ(s.txns.dram_read, e.dram_read);
  EXPECT_EQ(s.txns.dram_write, e.dram_write);
  EXPECT_EQ(s.txns.atomics_compulsory, e.atomics_compulsory);
  EXPECT_EQ(s.txns.atomics_conflict, e.atomics_conflict);
  EXPECT_EQ(s.tally.invocations, e.invocations);
  EXPECT_EQ(s.tally.flops, e.flops);
  EXPECT_EQ(s.tally.tc_flops, e.tc_flops);
  EXPECT_EQ(s.tally.defers, e.defers);
  EXPECT_EQ(s.tally.bricks_reduced, e.bricks_reduced);
  EXPECT_EQ(s.tally.syncs, e.syncs);
}

Graph conv_chain() { return build_conv_chain_2d(3, 1, 24, 2); }

/// conv → relu → conv → add(skip) → relu → 2×2 max pool.
Graph residual_block() {
  Graph g("residual_block");
  const int x = g.add_input("in", Shape{1, 4, 32, 32});
  int y = g.add_conv(x, "c1", Dims{3, 3}, 4, Dims{1, 1}, Dims{1, 1});
  y = g.add_relu(y, "r1");
  y = g.add_conv(y, "c2", Dims{3, 3}, 4, Dims{1, 1}, Dims{1, 1});
  y = g.add_add(y, x, "add");
  y = g.add_relu(y, "r2");
  g.add_pool(y, "pool", PoolKind::kMax, Dims{2, 2}, Dims{2, 2});
  return g;
}

/// One engine run on a fresh simulator. Every subgraph must have run its
/// planned strategy, which must be `expect` (no silent fallback, no vendor
/// plan standing in for a merged one); `*longest_chain` gets the longest
/// chained group.
Stream engine_stream(const Graph& g, const EngineOptions& options,
                     Strategy expect, int* longest_chain = nullptr) {
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(g, sim);
  Engine engine(g, options);
  const EngineResult result = engine.run(backend);
  int chain = 0;
  for (const SubgraphReport& r : result.reports) {
    EXPECT_EQ(r.attempts.size(), 1u);
    EXPECT_EQ(r.executed, expect)
        << g.node(r.plan.sg.terminal()).name << " ran "
        << strategy_name(r.executed);
    chain = std::max(chain, r.chain_len);
  }
  if (longest_chain) *longest_chain = chain;
  return {result.total_txns, result.total_tally};
}

Stream forced(const Graph& g, Strategy strategy) {
  EngineOptions options;
  options.force_strategy = strategy;
  return engine_stream(g, options, strategy);
}

/// Memoized subgraphs executed one at a time (`profile` runs every
/// subgraph as a group of one).
Stream memoized_alone(const Graph& g) {
  EngineOptions options;
  options.force_strategy = Strategy::kMemoized;
  options.profile = true;
  int chain = -1;
  const Stream s = engine_stream(g, options, Strategy::kMemoized, &chain);
  EXPECT_EQ(chain, 0);
  return s;
}

/// One memoized subgraph per layer, so the engine chains them all.
Stream memoized_chain(const Graph& g) {
  EngineOptions options;
  options.force_strategy = Strategy::kMemoized;
  options.partition.max_layers = 1;
  int chain = 0;
  const Stream s = engine_stream(g, options, Strategy::kMemoized, &chain);
  EXPECT_GE(chain, 2);
  return s;
}

Stream baseline(const Graph& g, FusionRules rules) {
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(g, sim);
  FusedGraphExecutor exec(g, backend, rules, 8);
  exec.run();
  sim.flush();
  return {sim.counters(), backend.tally()};
}

TEST(AccessStream, ConvChainPadded) {
  expect_stream(forced(conv_chain(), Strategy::kPadded),
                {2469, 2469, 185, 90, 0, 0, 75, 0, 183744, 0, 25, 0});
}
TEST(AccessStream, ConvChainMemoizedAlone) {
  expect_stream(memoized_alone(conv_chain()),
                {2258, 1906, 271, 90, 172, 74, 86, 0, 86976, 74, 86, 0});
}
TEST(AccessStream, ConvChainMemoizedChain) {
  expect_stream(memoized_chain(conv_chain()),
                {2258, 1906, 269, 322, 172, 15, 86, 0, 86976, 15, 86, 0});
}
TEST(AccessStream, ConvChainWavefront) {
  expect_stream(forced(conv_chain(), Strategy::kWavefront),
                {2258, 1906, 237, 90, 0, 0, 86, 0, 86976, 0, 86, 9});
}
TEST(AccessStream, ConvChainVendor) {
  expect_stream(forced(conv_chain(), Strategy::kVendor),
                {815, 762, 239, 302, 0, 0, 3, 0, 86976, 0, 0, 0});
}
TEST(AccessStream, ConvChainBaselines) {
  expect_stream(baseline(conv_chain(), FusionRules::kNone),
                {1483, 1945, 418, 302, 0, 0, 27, 0, 86976, 0, 0, 0});
  expect_stream(baseline(conv_chain(), FusionRules::kConvPointwise),
                {1483, 1945, 418, 302, 0, 0, 27, 0, 86976, 0, 0, 0});
  expect_stream(baseline(conv_chain(), FusionRules::kAggressive),
                {1483, 1945, 418, 302, 0, 0, 27, 0, 86976, 0, 0, 0});
}

TEST(AccessStream, ResidualPadded) {
  expect_stream(forced(residual_block(), Strategy::kPadded),
                {8944, 8944, 548, 128, 0, 0, 96, 18688, 755712, 0, 16, 0});
}
TEST(AccessStream, ResidualMemoizedAlone) {
  expect_stream(memoized_alone(residual_block()),
                {14176, 13280, 616, 128, 672, 304,
                 336, 16384, 589824, 304, 336, 0});
}
TEST(AccessStream, ResidualMemoizedChain) {
  expect_stream(memoized_chain(residual_block()),
                {14176, 13280, 912, 2688, 672, 30,
                 336, 16384, 589824, 30, 336, 0});
}
TEST(AccessStream, ResidualWavefront) {
  expect_stream(forced(residual_block(), Strategy::kWavefront),
                {14176, 13280, 636, 128, 0, 0,
                 336, 16384, 589824, 0, 336, 29});
}
TEST(AccessStream, ResidualVendor) {
  expect_stream(forced(residual_block(), Strategy::kVendor),
                {6308, 6308, 548, 2688, 0, 0, 6, 16384, 589824, 0, 0, 0});
}
TEST(AccessStream, ResidualBaselines) {
  expect_stream(baseline(residual_block(), FusionRules::kNone),
                {8864, 8864, 1392, 2688, 0, 0, 84, 16384, 589824, 0, 0, 0});
  expect_stream(baseline(residual_block(), FusionRules::kConvPointwise),
                {7840, 7840, 1392, 2176, 0, 0, 84, 16384, 589824, 0, 0, 0});
  expect_stream(baseline(residual_block(), FusionRules::kAggressive),
                {5792, 5792, 1392, 1152, 0, 0, 84, 16384, 589824, 0, 0, 0});
}

}  // namespace
}  // namespace brickdl
