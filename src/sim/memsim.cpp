#include "sim/memsim.hpp"

#include <algorithm>

namespace brickdl {

TxnCounters TxnCounters::operator-(const TxnCounters& o) const {
  TxnCounters r;
  r.l1 = l1 - o.l1;
  r.l2 = l2 - o.l2;
  r.dram_read = dram_read - o.dram_read;
  r.dram_write = dram_write - o.dram_write;
  r.atomics_compulsory = atomics_compulsory - o.atomics_compulsory;
  r.atomics_conflict = atomics_conflict - o.atomics_conflict;
  return r;
}

TxnCounters& TxnCounters::operator+=(const TxnCounters& o) {
  l1 += o.l1;
  l2 += o.l2;
  dram_read += o.dram_read;
  dram_write += o.dram_write;
  atomics_compulsory += o.atomics_compulsory;
  atomics_conflict += o.atomics_conflict;
  return *this;
}

MemoryHierarchySim::MemoryHierarchySim(const MachineParams& params)
    : params_(params),
      l2_(params.l2_bytes, params.l2_ways, params.line_bytes) {
  l1_.reserve(static_cast<size_t>(params.concurrent_blocks));
  for (int w = 0; w < params.concurrent_blocks; ++w) {
    l1_.emplace_back(params.l1_bytes, params.l1_ways, params.line_bytes);
  }
}

u64 MemoryHierarchySim::allocate(const std::string& name, i64 bytes) {
  (void)name;  // names aid debugging; the model only needs disjoint ranges
  std::lock_guard<SpinLock> lock(mu_);
  BDL_CHECK(bytes >= 0);
  const u64 base = next_addr_;
  next_addr_ += static_cast<u64>(round_up(bytes, params_.line_bytes));
  // Guard line between allocations catches off-by-one range emissions.
  next_addr_ += static_cast<u64>(params_.line_bytes);
  return base;
}

bool MemoryHierarchySim::is_discarded(u64 line) const {
  // Dirty evictions cluster within one dead tensor, so remember the last
  // matching range before binary-searching. Ranges are never removed, so a
  // cached positive can never go stale. (Caller holds mu_.)
  if (line >= last_discard_hit_.first && line <= last_discard_hit_.second) {
    return true;
  }
  auto it = std::upper_bound(
      discarded_.begin(), discarded_.end(), line,
      [](u64 l, const std::pair<u64, u64>& range) { return l < range.first; });
  if (it != discarded_.begin() && line <= std::prev(it)->second) {
    last_discard_hit_ = *std::prev(it);
    return true;
  }
  return false;
}

void MemoryHierarchySim::l2_access(u64 line, bool write, bool fill_on_miss) {
  ++counters_.l2;
  const auto result = l2_.access(line, write);
  // Full-line writes validate in place (no fetch) — the GPU write-allocate
  // path does not read DRAM when the store covers the whole sector.
  if (!result.hit && fill_on_miss) ++counters_.dram_read;
  if (result.evicted_dirty && !is_discarded(result.evicted_line)) {
    ++counters_.dram_write;
  }
}

void MemoryHierarchySim::access(int worker, u64 addr, i64 bytes, bool write) {
  BDL_CHECK(worker >= 0 && worker < num_workers());
  std::lock_guard<SpinLock> lock(mu_);
  access_unlocked(worker, addr, bytes, write);
}

void MemoryHierarchySim::access_unlocked(int worker, u64 addr, i64 bytes,
                                         bool write) {
  if (bytes <= 0) return;
  const u64 lb = static_cast<u64>(params_.line_bytes);
  const u64 first = addr / lb;
  const u64 last = (addr + static_cast<u64>(bytes) - 1) / lb;
  CacheModel& l1 = l1_[static_cast<size_t>(worker)];
  // Lines in [full_lo, full_hi) are covered end-to-end by this access; a
  // write to such a line validates in place (no fetch). Hoisted out of the
  // loop: equivalent to checking addr <= line*lb && addr+bytes >= (line+1)*lb
  // per line.
  const u64 full_lo = write ? (addr + lb - 1) / lb : 0;
  const u64 full_hi = write ? (addr + static_cast<u64>(bytes)) / lb : 0;
  counters_.l1 += static_cast<i64>(last - first + 1);
  for (u64 line = first; line <= last; ++line) {
    if (line < last) {
      // Probe-ahead: both cache models' set metadata for the next line of
      // this run, hiding host-memory latency on the (multi-MB) L2 blocks.
      l1.prefetch(line + 1);
      l2_.prefetch(line + 1);
    }
    const bool full_line = write && line >= full_lo && line < full_hi;
    const auto r1 = l1.access(line, write);
    if (r1.evicted_dirty) {
      l2_access(r1.evicted_line, /*write=*/true, /*fill_on_miss=*/false);
    }
    if (!r1.hit && !full_line) l2_access(line, /*write=*/false, true);
  }
}

void MemoryHierarchySim::invocation_begin(int worker) {
  BDL_CHECK(worker >= 0 && worker < num_workers());
  std::lock_guard<SpinLock> lock(mu_);
  // Writebacks probe the L2 model at effectively random sets; an 8-deep
  // delay ring issues each line's metadata prefetch 8 lines before its
  // probe, hiding host-memory latency. The probe order is unchanged (FIFO).
  u64 ring[8];
  size_t head = 0, count = 0;
  l1_[static_cast<size_t>(worker)].flush_visit([&](u64 line) {
    l2_.prefetch(line);
    if (count == 8) {
      l2_access(ring[head], /*write=*/true, false);
      ring[head] = line;
      head = (head + 1) & 7;
    } else {
      ring[(head + count) & 7] = line;
      ++count;
    }
  });
  for (size_t i = 0; i < count; ++i) {
    l2_access(ring[(head + i) & 7], /*write=*/true, false);
  }
}

void MemoryHierarchySim::count_l2_resident_reads(i64 lines) {
  std::lock_guard<SpinLock> lock(mu_);
  counters_.l1 += lines;
  counters_.l2 += lines;
}

void MemoryHierarchySim::count_atomics(i64 compulsory, i64 conflict) {
  std::lock_guard<SpinLock> lock(mu_);
  counters_.atomics_compulsory += compulsory;
  counters_.atomics_conflict += conflict;
}

void MemoryHierarchySim::discard(u64 addr, i64 bytes) {
  if (bytes <= 0) return;
  std::lock_guard<SpinLock> lock(mu_);
  const u64 first = addr / static_cast<u64>(params_.line_bytes);
  const u64 last =
      (addr + static_cast<u64>(bytes) - 1) / static_cast<u64>(params_.line_bytes);
  const auto pos = std::upper_bound(
      discarded_.begin(), discarded_.end(), first,
      [](u64 l, const std::pair<u64, u64>& range) { return l < range.first; });
  discarded_.insert(pos, {first, last});
}

void MemoryHierarchySim::flush() {
  std::lock_guard<SpinLock> lock(mu_);
  for (auto& l1 : l1_) {
    l1.flush_visit([this](u64 line) { l2_access(line, /*write=*/true, false); });
  }
  l2_.flush_visit([this](u64 line) {
    if (!is_discarded(line)) ++counters_.dram_write;
  });
}

TxnCounters MemoryHierarchySim::counters() const {
  std::lock_guard<SpinLock> lock(mu_);
  return counters_;
}

void MemoryHierarchySim::reset_counters() {
  std::lock_guard<SpinLock> lock(mu_);
  counters_ = TxnCounters{};
}

}  // namespace brickdl
