// Shared pieces of the repository benchmark: run arguments, the metric
// report every workload fills, sample statistics, and the benchmark's own
// trace spans (with explicit parent links) around calls into the library.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/common.hpp"

namespace perfbench {

using brickdl::i64;
using brickdl::u64;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome JSON written by the traced run
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload (or the traced run) hands back to main(): operation
/// counts, the metrics BENCHMARK.json lists, and notes — workload-specific
/// figures printed by name for a reader but kept out of the result line.
struct Report {
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> notes;
  std::vector<std::string> errors;  ///< first few mismatches, for stderr

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    notes.push_back({name, value, unit});
  }
  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Set-ups per run. Each workload builds and warms its system this many
/// times and reports the fastest as setup_s.
constexpr size_t kSetups = 5;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linearly interpolated quantile of a sample set (q in [0, 1]); 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// A benchmark-side span around one call into the library. Spans carry
/// their own id and the id of the enclosing benchmark span on the same
/// thread ("parent", 0 at the root), so the exported Chrome trace keeps the
/// causal tree even where the library's own spans interleave. Records
/// nothing while the tracer is off.
class Span {
 public:
  explicit Span(std::string name, i64 key = -1)
      : active_(brickdl::obs::Tracer::enabled()) {
    if (!active_) return;
    name_ = std::move(name);
    key_ = key;
    id_ = next_id();
    parent_ = current();
    current() = id_;
    start_ns_ = brickdl::obs::Tracer::now_ns();
  }
  ~Span() {
    if (!active_) return;
    const u64 end_ns = brickdl::obs::Tracer::now_ns();
    current() = parent_;
    const brickdl::obs::TraceArg args[3] = {
        {"span", static_cast<i64>(id_)},
        {"parent", static_cast<i64>(parent_)},
        {"key", key_}};
    brickdl::obs::Tracer::record_complete("bench", name_, start_ns_,
                                          end_ns - start_ns_, args,
                                          key_ >= 0 ? 3 : 2);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static u64 next_id() {
    static std::atomic<u64> ids{0};
    return ids.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  static u64& current() {
    thread_local u64 id = 0;
    return id;
  }

  bool active_ = false;
  std::string name_;
  i64 key_ = -1;
  u64 id_ = 0;
  u64 parent_ = 0;
  u64 start_ns_ = 0;
};

// Workload entry points (one translation unit each). `run_*` measures the
// end-to-end metrics with tracing off; `trace_*` is the workload's segment of
// the traced run and adds per-layer metrics.
//
// The bounded latency metric is `latency_ms`. On sim_fig07 and
// numeric_resnet50 it is the fastest pass of the run (on sim_fig07, of each
// model, summed over the models): on a shared host other tenants slow single
// passes by up to 2x for seconds at a time, which moves a run's median by
// 20-40 % between identical runs while the fastest pass moves far less. On
// serve_mixed it is the steady-phase median, which includes queueing and
// coalescing. Medians and tails are printed as notes under the names the
// workloads' design gives them.
void run_sim_fig07(const Args& args, Report& report);
void run_numeric_resnet50(const Args& args, Report& report);
void run_serve_mixed(const Args& args, Report& report);
void trace_sim_fig07(const Args& args, Report& report);
void trace_numeric_resnet50(const Args& args, Report& report);
void trace_serve_mixed(const Args& args, Report& report);

}  // namespace perfbench
