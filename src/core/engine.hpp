// The BrickDL engine: partition → plan → execute.
//
// Ties together the partitioner (§3.3.1), the strategy and brick-size models
// (§3.3.2–3), the merged executors (§3.2), and the vendor fallback for tiny
// layers (§3.3.3). Runs against either backend: numerically for correctness,
// against the simulator for the paper's performance methodology.
//
// Resilience (DESIGN.md §7): `validate()` runs a pre-flight pass over the
// graph, options, and partition; `run_checked()` executes each subgraph
// through a graceful-degradation chain (memoized → padded → vendor), so a
// contained failure in an aggressive merged strategy degrades performance
// instead of killing the run. Every attempt and its classifying Status is
// recorded in the subgraph's report.
//
// Execution (DESIGN.md §14) is one loop over groups: a run of consecutive
// memoized subgraphs executes as one chained MemoizedExecutor with no
// inter-subgraph barrier, and any other subgraph is a group of one. A failed
// chain hands each member to its own ladder from the next rung.
#pragma once

#include <optional>

#include "baselines/vendor_tiled.hpp"
#include "core/memoized_executor.hpp"
#include "core/padded_executor.hpp"
#include "core/partitioner.hpp"
#include "obs/profile.hpp"
#include "util/status.hpp"

namespace brickdl {

struct EngineOptions {
  PartitionOptions partition;
  /// Force one strategy for every merged subgraph (benches compare P vs M).
  std::optional<Strategy> force_strategy;
  i64 force_brick_side = 0;  ///< 0 = model-chosen
  /// Workers of the memoized protocol, capped at the backend's worker
  /// count. They run on the backend's pool when it has one (a NumericBackend
  /// with more than one worker), else on the deterministic virtual scheduler.
  int memo_workers = 16;
  i64 vendor_tile_side = 32;
  /// Stall-watchdog tuning for memoized subgraphs (DESIGN.md §7).
  MemoizedExecutor::WatchdogOptions memo_watchdog;
  /// On a NumericBackend, scan every subgraph output for NaN/Inf and treat
  /// corruption as a kKernelFailure (triggering the fallback chain).
  bool verify_finite = false;
  /// Retry a failed subgraph with progressively safer strategies
  /// (memoized → padded → vendor). Off: the first failure is final, for a
  /// whole chained group too.
  bool graceful_fallback = true;
  /// Persistent plan cache directory (core/plan_cache.hpp, DESIGN.md §15).
  /// Non-empty: the constructor warm-starts the partition from a validated
  /// cache entry keyed by graph signature × rows × options fingerprint, and
  /// stores the freshly planned partition on a miss. Rejected or unreadable
  /// entries fall back to cold planning — warm and cold runs are
  /// bit-identical either way (the fingerprint pins every planning knob and
  /// planning is deterministic). Counters:
  /// `engine.plan_cache.{hits,misses,writes,rejects,write_failures}`.
  std::string plan_cache_dir;

  // ---- observability (DESIGN.md §8) ----
  /// Emit engine-level spans (run / subgraph / attempt / vendor layer) when
  /// the tracer is runtime-enabled. Executor and pool spans gate only on the
  /// tracer switch, so they still record when the engine is bypassed.
  bool trace = true;
  /// Publish engine.* counters/histograms on the shared metrics registry.
  bool metrics = true;
  /// Run the §4 cost model alongside execution: fill every report's
  /// `predicted`, and (on a ModelBackend) flush the simulator after each
  /// subgraph so buffered writebacks attribute to the subgraph that produced
  /// them instead of the end-of-run flush. The flush needs the barrier, so
  /// profiling runs every subgraph as a group of one (no chains).
  bool profile = false;
};

/// kInvalidOptions unless every knob is in range (memo_workers ≥ 1,
/// vendor_tile_side > 0, force_brick_side ∈ {0, 4, 8, 16, 32}, watchdog sane).
Status validate_engine_options(const EngineOptions& options);

/// One executed (or attempted) strategy for a subgraph.
struct StrategyAttempt {
  Strategy strategy = Strategy::kVendor;
  Status status;  ///< ok() for the attempt that ran to completion
  double wall_seconds = 0.0;  ///< host wall-clock time of this attempt
};

struct SubgraphReport {
  PlannedSubgraph plan;
  TxnCounters txns;    ///< model backend only (zeros numerically)
  ComputeTally tally;  ///< model backend only
  MemoizedExecutor::Stats memo;
  Strategy executed = Strategy::kVendor;  ///< strategy that actually ran
  std::vector<StrategyAttempt> attempts;  ///< degradation chain, in order
  /// Cost-model prediction for the planned strategy (EngineOptions::profile;
  /// `predicted.modeled` is false otherwise). Compare against txns/tally.
  obs::SubgraphPrediction predicted;
  double wall_seconds = 0.0;  ///< wall-clock time of the successful attempt
  /// True when this subgraph ran inside a chained group (DESIGN.md §14):
  /// `chain_len` members shared one executor, `wall_seconds` is the chain
  /// total (recorded on the first member, zero on the rest), and `memo`,
  /// `txns` and `tally` aggregate the whole chain on the first member. A
  /// member of a chain that failed records the failed memoized attempt and
  /// then runs alone (pipelined false).
  bool pipelined = false;
  int chain_len = 0;
};

struct EngineResult {
  std::vector<SubgraphReport> reports;
  TensorId output = -1;  ///< tensor of the graph's (single) output node
  TxnCounters total_txns;
  ComputeTally total_tally;
};

/// Serving context threaded into a batched run for request-scoped tracing
/// (DESIGN.md §13). When present, run_batched_checked opens a "batch" span
/// around the engine run and steps each request's flow ('t' phase, keyed by
/// request id) inside it, so the Perfetto arrows connect a request's submit
/// span to the engine run that served it across threads.
struct RunContext {
  u64 batch_id = 0;  ///< scheduler's flush sequence number
  /// Ids of the requests whose rows make up `parts`, in part order.
  /// May be null (no flow events are emitted then).
  const std::vector<u64>* request_ids = nullptr;
};

class Engine {
 public:
  explicit Engine(const Graph& graph, EngineOptions options = {});

  const Partition& partition() const { return partition_; }

  /// Pre-flight pass, run before any kernel: options in range, graph
  /// topologically sound with a single output (kInvalidGraph), node shapes
  /// agreeing with shape inference (kShapeMismatch), partition io-complete
  /// (kBadIoMap), and — unless a bench override forces plans past the model —
  /// every merged footprint within the L2 budget (kBudgetExceeded).
  Status validate() const;

  /// Execute the whole graph. With a NumericBackend, `input` (if given) is
  /// bound to the graph's single kInput node and `result.output` can be
  /// read back. With a ModelBackend, per-subgraph counter deltas and cost
  /// tallies are collected into the reports. Failures are classified, never
  /// fatal: a subgraph whose strategy faults is retried down the degradation
  /// chain, and only an unrecoverable subgraph fails the run (after printing
  /// a replay line to stderr).
  Result<EngineResult> run_checked(Backend& backend,
                                   const Tensor* input = nullptr);
  /// Throwing wrapper (legacy call sites).
  EngineResult run(Backend& backend, const Tensor* input = nullptr) {
    return run_checked(backend, input).take();
  }

  /// Batched-run entry point for the serving front-end (src/serve/): stack
  /// `parts` along the batch dimension, bind the stacked tensor to the
  /// graph's input node, run, and slice the output back into one tensor per
  /// part. The graph's input batch must equal the summed rows of `parts`
  /// (the serving layer rebatches the graph first; see rebatch_graph), and
  /// every part must agree with the input node on all non-batch dims —
  /// kShapeMismatch names the offending part otherwise. Per-row results are
  /// bit-identical to a solo run of the same rows: every kernel treats batch
  /// as an independent blocked dimension (DESIGN.md §10).
  ///
  /// `engine_result` (optional) receives the underlying EngineResult on
  /// success — the serving layer's circuit breaker (DESIGN.md §12) inspects
  /// the per-subgraph `attempts` chains to learn whether the planned
  /// strategy degraded, without re-running anything.
  ///
  /// `ctx` (optional) carries the serving request context: the batch span it
  /// opens is the anchor the per-request trace flows bind to.
  Result<std::vector<Tensor>> run_batched_checked(
      NumericBackend& backend, const std::vector<const Tensor*>& parts,
      EngineResult* engine_result = nullptr, const RunContext* ctx = nullptr);

 private:
  /// Simulator counters and compute tally at the start of a subgraph's
  /// ladder; a report's txns/tally are the difference at its end.
  struct ModelMark {
    TxnCounters txns;
    ComputeTally tally;
  };

  /// End of the group starting at partition_.subgraphs[begin]: a maximal
  /// run of consecutive memoized subgraphs sharing a blocked rank, or that
  /// one subgraph otherwise (always one under `profile`).
  size_t group_end(size_t begin) const;
  /// Execute group [begin, end) down the degradation ladder (DESIGN.md §14):
  /// the first rung runs the whole group under its planned strategy; if it
  /// fails, each member records that attempt and continues alone from the
  /// next rung of its own fallback chain. On success appends one report per
  /// member and publishes every terminal into `boundary`; an exhausted
  /// ladder prints a replay line and fails the run.
  Status run_group(Backend& backend, size_t begin, size_t end,
                   std::unordered_map<int, TensorId>& boundary,
                   EngineResult& result);
  /// One attempt of group [begin, end) under `strategy`: a chained
  /// MemoizedExecutor for several members, run_planned_subgraph_checked for
  /// one. Appends the attempt to `reports[0 .. end-begin)`; on success fills
  /// them (the lead carries wall time, memo stats and the delta since
  /// `before`) and publishes the terminals, on failure drops the outputs.
  Status run_attempt(Backend& backend, size_t begin, size_t end,
                     Strategy strategy, const ModelMark& before,
                     std::unordered_map<int, TensorId>& boundary,
                     SubgraphReport* reports);

  const Graph& graph_;
  EngineOptions options_;
  Partition partition_;
  Status preflight_;  ///< options validation, captured at construction
};

/// Execute one planned subgraph on `backend` with explicit io tensors.
/// Exposed for the microbenchmark harnesses that force partitions.
/// The io map must cover every producer outside the subgraph (kBadIoMap
/// names the offending node otherwise). On success `*stats_out` (if given)
/// holds the memoized protocol counters (zeros for other strategies).
Status run_planned_subgraph_checked(
    const Graph& graph, const PlannedSubgraph& planned, Backend& backend,
    const std::unordered_map<int, TensorId>& io, TensorId out,
    const EngineOptions& options,
    MemoizedExecutor::Stats* stats_out = nullptr);

/// Throwing wrapper (legacy call sites).
MemoizedExecutor::Stats run_planned_subgraph(
    const Graph& graph, const PlannedSubgraph& planned, Backend& backend,
    const std::unordered_map<int, TensorId>& io, TensorId out,
    const EngineOptions& options);

// ---- per-request batching hooks (serving front-end, DESIGN.md §10) ----

/// Concatenate canonical activation tensors along the batch dimension
/// (dim 0). Every part must agree on rank and all non-batch dims;
/// kShapeMismatch names the offending part otherwise.
Result<Tensor> stack_batch(const std::vector<const Tensor*>& parts);

/// Copy batch rows [row, row+rows) of a canonical tensor into a standalone
/// tensor (batch is outermost in row-major layout, so this is one contiguous
/// span). Bounds are BDL_CHECKed — callers slice by construction.
Tensor slice_batch(const Tensor& t, i64 row, i64 rows);

}  // namespace brickdl
