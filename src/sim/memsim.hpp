// MemoryHierarchySim: the GPU memory-system substrate.
//
// Executors running in model mode emit their real access streams here at
// cache-line granularity. The simulator maintains one L1 per worker (a worker
// models a resident thread block; L1 starts cold at each kernel invocation,
// since GPU L1s are not coherent across blocks) and one shared L2. Counters
// correspond to the Nsight metrics the paper collects: global (L1), L2 and
// DRAM transactions, plus atomic-operation counts (§4.2–4.4, Fig. 9).
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "sim/cache.hpp"
#include "sim/machine.hpp"
#include "util/spinlock.hpp"

namespace brickdl {

struct TxnCounters {
  i64 l1 = 0;          ///< global/L1 transactions (all line touches)
  i64 l2 = 0;          ///< L1 misses reaching L2 (plus L1 writebacks)
  i64 dram_read = 0;   ///< L2 miss fills
  i64 dram_write = 0;  ///< L2 dirty writebacks (incl. flush)
  i64 atomics_compulsory = 0;
  i64 atomics_conflict = 0;

  i64 dram() const { return dram_read + dram_write; }
  i64 atomics() const { return atomics_compulsory + atomics_conflict; }

  TxnCounters operator-(const TxnCounters& o) const;
  TxnCounters& operator+=(const TxnCounters& o);
};

class MemoryHierarchySim {
 public:
  explicit MemoryHierarchySim(const MachineParams& params);

  const MachineParams& params() const { return params_; }
  int num_workers() const { return params_.concurrent_blocks; }

  /// Reserve a line-aligned address range for a named tensor/buffer.
  u64 allocate(const std::string& name, i64 bytes);

  /// Emit one access of `bytes` starting at `addr` from `worker`.
  void access(int worker, u64 addr, i64 bytes, bool write);

  /// Batched emission: holds the simulator lock across many access() calls,
  /// so per-window emitters (tens of millions of short runs per bench run)
  /// pay one lock acquisition per window instead of one per run. The stream
  /// is simulated exactly as the equivalent sequence of access() calls.
  /// While a Batch is live, its thread must not call any other simulator
  /// method (self-deadlock); other threads simply wait on the lock.
  class Batch {
   public:
    Batch(MemoryHierarchySim& sim, int worker) : sim_(sim), worker_(worker) {
      BDL_CHECK(worker >= 0 && worker < sim.num_workers());
      sim_.mu_.lock();
    }
    ~Batch() { sim_.mu_.unlock(); }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    void access(u64 addr, i64 bytes, bool write) {
      sim_.access_unlocked(worker_, addr, bytes, write);
    }

    /// Hint that `addr` is about to be accessed: pulls both cache models'
    /// set metadata for its line toward the host CPU. Purely a performance
    /// hint — never changes any counter — so callers may guess sloppily
    /// (e.g. assume the next run continues a stride even near band edges).
    void prefetch(u64 addr) {
      const u64 line = addr / static_cast<u64>(sim_.params_.line_bytes);
      sim_.l1_[static_cast<size_t>(worker_)].prefetch(line);
      sim_.l2_.prefetch(line);
    }

   private:
    MemoryHierarchySim& sim_;
    int worker_;
  };

  /// New kernel invocation on `worker`: its L1 starts cold. Dirty L1 lines
  /// from the previous invocation are written back into L2.
  void invocation_begin(int worker);

  /// Count atomic operations (they synchronize at L2 on NVIDIA GPUs; we track
  /// them separately from data transactions, as Nsight does).
  void count_atomics(i64 compulsory, i64 conflict);

  /// Account `lines` of reads that are known to be L2-resident without
  /// probing the cache model: each line costs one L1 and one L2 transaction
  /// and never reaches DRAM. Used for repeated weight streams, whose
  /// footprint stays L2-resident across a layer's brick invocations — per-line
  /// simulation of those re-reads would dominate runtime while changing
  /// nothing (see DESIGN.md §5.3).
  void count_l2_resident_reads(i64 lines);

  /// Mark an address range dead — models merged execution discarding
  /// intermediate buffers that will never be read again (their storage is
  /// reused, not persisted). Implemented lazily: dead lines may keep
  /// occupying cache (as they would on real hardware) but their eventual
  /// dirty evictions are not charged as DRAM writebacks. The bump allocator
  /// never reuses addresses, so stale cached copies can never be re-read.
  void discard(u64 addr, i64 bytes);

  /// Write back all dirty lines (L1s then L2); counts DRAM writes. Harnesses
  /// call this at the end of a measured region so buffered output traffic is
  /// charged comparably across executors.
  void flush();

  TxnCounters counters() const;
  void reset_counters();

 private:
  void l2_access(u64 line, bool write, bool fill_on_miss);
  void access_unlocked(int worker, u64 addr, i64 bytes, bool write);
  bool is_discarded(u64 line) const;

  MachineParams params_;
  // Spinlock, not std::mutex: the critical sections are a handful of cache
  // probes, and access() is called tens of millions of times per bench run
  // (often from a single thread, where an uncontended spinlock is ~5x
  // cheaper than a mutex).
  mutable SpinLock mu_;
  CacheModel l2_;
  std::vector<CacheModel> l1_;
  TxnCounters counters_;
  u64 next_addr_ = 0;
  std::vector<std::pair<u64, u64>> discarded_;  ///< [first, last] line ranges, sorted
  mutable std::pair<u64, u64> last_discard_hit_{1, 0};  ///< memo, empty range
};

}  // namespace brickdl
