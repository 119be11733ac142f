#include <gtest/gtest.h>

#include <algorithm>

#include "sim/cost.hpp"

namespace brickdl {
namespace {

MachineParams tiny_machine() {
  MachineParams p;
  p.line_bytes = 32;
  p.l1_bytes = 4 * 32;  // 4 lines, 1 set x 4 ways
  p.l1_ways = 4;
  p.l2_bytes = 16 * 32;  // 16 lines
  p.l2_ways = 4;
  p.concurrent_blocks = 2;
  return p;
}

TEST(CacheModel, HitAfterFill) {
  CacheModel cache(4 * 32, 4, 32);
  EXPECT_FALSE(cache.access(0, false).hit);
  EXPECT_TRUE(cache.access(0, false).hit);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
}

TEST(CacheModel, LruEviction) {
  CacheModel cache(2 * 32, 2, 32);  // one set, two ways
  cache.access(0, false);
  cache.access(1, false);
  cache.access(0, false);  // 0 is now MRU
  cache.access(2, false);  // evicts 1
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(CacheModel, DirtyEvictionReported) {
  CacheModel cache(2 * 32, 2, 32);
  cache.access(0, true);   // dirty
  cache.access(1, false);
  const auto r = cache.access(2, false);  // evicts 0 (LRU, dirty)
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(r.evicted_line, 0u);
}

TEST(CacheModel, FlushCollectsDirty) {
  CacheModel cache(4 * 32, 4, 32);
  cache.access(0, true);
  cache.access(1, false);
  cache.access(2, true);
  std::vector<u64> dirty;
  EXPECT_EQ(cache.flush(&dirty), 2);
  std::sort(dirty.begin(), dirty.end());
  EXPECT_EQ(dirty, (std::vector<u64>{0, 2}));
  EXPECT_FALSE(cache.contains(0));
}

TEST(CacheModel, Invalidate) {
  CacheModel cache(4 * 32, 4, 32);
  cache.access(5, true);
  cache.invalidate(5);
  EXPECT_FALSE(cache.contains(5));
  std::vector<u64> dirty;
  EXPECT_EQ(cache.flush(&dirty), 0);  // dirty bit dropped with the line
}

// The incremental split cache (DESIGN.md §14: probe fast path for the
// emitters' sequential runs) is a pure strength reduction: for any access
// stream — sequential runs, strided hops, random jumps, wraparounds — every
// AccessResult and the final dirty set must match the pure fastmod
// derivation bit for bit.
TEST(CacheModel, SplitCacheBitIdenticalToFastmod) {
  for (const auto& [capacity_lines, ways] :
       {std::pair<i64, int>{16, 4}, {64, 16}, {8, 2}}) {
    CacheModel fast(capacity_lines * 32, ways, 32);
    CacheModel slow(capacity_lines * 32, ways, 32);
    slow.set_split_cache_enabled(false);

    // Mixed stream: sequential runs (the fast path), a stride, a set-index
    // wraparound (line resets below the previous one), and seeded jumps.
    std::vector<u64> stream;
    for (u64 l = 7; l < 7 + 40; ++l) stream.push_back(l);          // run
    for (u64 l = 0; l < 16; ++l) stream.push_back(3 + l * 17);     // stride
    for (u64 l = 2; l < 2 + 12; ++l) stream.push_back(l);          // wrap
    u64 x = 0x9e3779b9;
    for (int i = 0; i < 200; ++i) {                                // jumps
      x = x * 2862933555777941757ull + 3037000493ull;
      stream.push_back(x % 4096);
      // Interleave short sequential bursts so the cache re-arms mid-stream.
      if (i % 7 == 0) {
        stream.push_back(stream.back() + 1);
        stream.push_back(stream.back() + 1);
      }
    }

    for (size_t i = 0; i < stream.size(); ++i) {
      const bool write = (i % 3) == 0;
      const auto a = fast.access(stream[i], write);
      const auto b = slow.access(stream[i], write);
      ASSERT_EQ(a.hit, b.hit) << "i=" << i << " line=" << stream[i];
      ASSERT_EQ(a.evicted_dirty, b.evicted_dirty) << "i=" << i;
      if (a.evicted_dirty) {
        ASSERT_EQ(a.evicted_line, b.evicted_line);
      }
    }
    std::vector<u64> dirty_fast, dirty_slow;
    EXPECT_EQ(fast.flush(&dirty_fast), slow.flush(&dirty_slow));
    std::sort(dirty_fast.begin(), dirty_fast.end());
    std::sort(dirty_slow.begin(), dirty_slow.end());
    EXPECT_EQ(dirty_fast, dirty_slow);
  }
}

TEST(MemSim, CountsHierarchy) {
  MemoryHierarchySim sim(tiny_machine());
  const u64 base = sim.allocate("t", 1024);
  sim.invocation_begin(0);
  sim.access(0, base, 64, false);  // 2 lines: both L1 miss -> L2 miss -> DRAM
  TxnCounters c = sim.counters();
  EXPECT_EQ(c.l1, 2);
  EXPECT_EQ(c.l2, 2);
  EXPECT_EQ(c.dram_read, 2);

  sim.access(0, base, 64, false);  // L1 hits
  c = sim.counters();
  EXPECT_EQ(c.l1, 4);
  EXPECT_EQ(c.l2, 2);
  EXPECT_EQ(c.dram_read, 2);
}

TEST(MemSim, InvocationResetsL1ButNotL2) {
  MemoryHierarchySim sim(tiny_machine());
  const u64 base = sim.allocate("t", 1024);
  sim.invocation_begin(0);
  sim.access(0, base, 32, false);
  sim.invocation_begin(0);  // L1 cold again
  sim.access(0, base, 32, false);
  const TxnCounters c = sim.counters();
  EXPECT_EQ(c.l1, 2);
  EXPECT_EQ(c.l2, 2);       // second access misses L1, hits L2
  EXPECT_EQ(c.dram_read, 1);  // only the first reached DRAM
}

TEST(MemSim, DirtyL1WritebackOnInvocationEnd) {
  MemoryHierarchySim sim(tiny_machine());
  const u64 base = sim.allocate("t", 1024);
  sim.invocation_begin(0);
  sim.access(0, base, 32, true);  // write: L1 dirty
  const i64 l2_before = sim.counters().l2;
  sim.invocation_begin(0);  // flush L1 -> one L2 write
  EXPECT_EQ(sim.counters().l2, l2_before + 1);
}

TEST(MemSim, WorkersHavePrivateL1s) {
  MemoryHierarchySim sim(tiny_machine());
  const u64 base = sim.allocate("t", 1024);
  sim.access(0, base, 32, false);
  sim.access(1, base, 32, false);  // worker 1 L1 cold, but L2 warm
  const TxnCounters c = sim.counters();
  EXPECT_EQ(c.l1, 2);
  EXPECT_EQ(c.l2, 2);
  EXPECT_EQ(c.dram_read, 1);
}

TEST(MemSim, FlushWritesBackDirtyL2) {
  MemoryHierarchySim sim(tiny_machine());
  const u64 base = sim.allocate("t", 1024);
  sim.access(0, base, 32, true);
  EXPECT_EQ(sim.counters().dram_write, 0);
  sim.flush();
  EXPECT_EQ(sim.counters().dram_write, 1);
}

TEST(MemSim, DiscardDropsDirtyWithoutWriteback) {
  MemoryHierarchySim sim(tiny_machine());
  const u64 base = sim.allocate("t", 1024);
  sim.access(0, base, 32, true);
  sim.discard(base, 32);
  sim.flush();
  EXPECT_EQ(sim.counters().dram_write, 0);
}

TEST(MemSim, CapacityEvictionReachesDram) {
  MachineParams p = tiny_machine();
  MemoryHierarchySim sim(p);
  const u64 base = sim.allocate("big", 64 * 32);
  // Stream through 64 lines with full-line writes: L2 holds 16, so most
  // dirty lines get evicted and written back. Full-line writes validate in
  // place — no DRAM read fills.
  for (int i = 0; i < 64; ++i) {
    sim.access(0, base + static_cast<u64>(i) * 32, 32, true);
  }
  const TxnCounters c = sim.counters();
  EXPECT_EQ(c.dram_read, 0);
  EXPECT_GE(c.dram_write, 64 - 16 - 4);  // all but what L1+L2 can hold
}

TEST(MemSim, PartialWritesFetchTheLine) {
  MemoryHierarchySim sim(tiny_machine());
  const u64 base = sim.allocate("t", 1024);
  sim.access(0, base, 8, true);  // 8 of 32 bytes: read-modify-write fill
  EXPECT_EQ(sim.counters().dram_read, 1);
  sim.reset_counters();
  sim.invocation_begin(1);
  sim.access(1, base + 64, 32, true);  // exactly one full line: no fill
  EXPECT_EQ(sim.counters().dram_read, 0);
  // Misaligned 32-byte write spans two lines, covering neither fully... it
  // covers bytes [8, 40): line 0 partially, line 1 partially.
  sim.reset_counters();
  sim.access(0, base + 128 + 8, 32, true);
  EXPECT_EQ(sim.counters().dram_read, 2);
}

TEST(MemSim, AtomicsCounted) {
  MemoryHierarchySim sim(tiny_machine());
  sim.count_atomics(10, 3);
  sim.count_atomics(2, 1);
  const TxnCounters c = sim.counters();
  EXPECT_EQ(c.atomics_compulsory, 12);
  EXPECT_EQ(c.atomics_conflict, 4);
  EXPECT_EQ(c.atomics(), 16);
}

TEST(MemSim, AllocationsDisjoint) {
  MemoryHierarchySim sim(tiny_machine());
  const u64 a = sim.allocate("a", 100);
  const u64 b = sim.allocate("b", 100);
  EXPECT_GE(b, a + 100);
  EXPECT_EQ(a % 32, 0u);
  EXPECT_EQ(b % 32, 0u);
}

TEST(CostModel, PaperConstants) {
  const MachineParams a100 = MachineParams::a100();
  const CostModel cost(a100);
  // R_txn = 1.5 TB/s / 32 B = 46.875 G txn/s.
  EXPECT_NEAR(a100.txn_rate(), 46.875e9, 1e6);
  // T_atomic = 87.45 ns.
  EXPECT_NEAR(cost.atomic_time(1), 87.45e-9, 1e-12);
  // T_brick for the §4.3.2 reference: 8^3 brick, 3^3 filter, 64->64 channels.
  const double flops = 512.0 * 64 * 64 * 27 * 2;
  EXPECT_NEAR(cost.t_brick(flops), 6.72e-6, 0.15e-6);
}

TEST(CostModel, BreakdownPerfectOverlap) {
  const CostModel cost(MachineParams::a100());
  TxnCounters txns;
  txns.dram_read = 1000000;
  ComputeTally tally;
  tally.invocations = 10;
  tally.flops = 1e9;

  const Breakdown b = cost.breakdown(txns, tally);
  EXPECT_NEAR(b.memory_side(), b.compute_side(), 1e-12);
  EXPECT_GT(b.dram, 0.0);
  EXPECT_GT(b.compute, 0.0);
  // Memory-bound case: compute side is shorter, idle absorbs nothing and
  // the compute side gets no idle segment (idle only pads memory side).
  TxnCounters heavy = txns;
  heavy.dram_read = 100000000;
  const Breakdown b2 = cost.breakdown(heavy, tally);
  EXPECT_EQ(b2.idle, 0.0);
  EXPECT_GT(b2.total(), b.total());
}

TEST(CostModel, AtomicsEnterComputeSide) {
  const CostModel cost(MachineParams::a100());
  TxnCounters txns;
  txns.atomics_compulsory = 1000;
  txns.atomics_conflict = 500;
  const Breakdown b = cost.breakdown(txns, ComputeTally{});
  EXPECT_NEAR(b.atomics_compulsory, 1000 * 87.45e-9, 1e-9);
  EXPECT_NEAR(b.atomics_conflict, 500 * 87.45e-9, 1e-9);
  EXPECT_NEAR(b.total(), b.compute_side(), 1e-15);
}

}  // namespace
}  // namespace brickdl
