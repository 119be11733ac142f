// Serving front-end types (DESIGN.md §10).
//
// The serving layer turns the single-graph engine into a request server:
// concurrent callers submit input tensors for one model, a scheduler
// coalesces compatible in-flight requests into one batched engine run
// (stacking along the batch dimension the executors already treat as a
// blocked dim), and per-request outputs are sliced back out. Every request
// carries its own Status — admission rejects, batch failures, and solo
// fallbacks are all classified with the DESIGN.md §7 taxonomy, never
// silently dropped.
#pragma once

#include "core/engine.hpp"

namespace brickdl::serve {

struct ServeOptions {
  /// Coalescing knobs: a flush fires when `max_batch` requests are pending
  /// or the oldest pending request has waited `max_wait_us` microseconds.
  int max_batch = 8;
  i64 max_wait_us = 2000;

  /// Split knobs. A coalesced batch is recursively halved while its stacked
  /// row count exceeds `max_batch_rows` (0 = unlimited) or any merged
  /// subgraph of its stacked plan exceeds `footprint_budget` bytes
  /// (0 = the engine partition's L2 budget — the paper's 40 MB rule).
  i64 max_batch_rows = 0;
  i64 footprint_budget = 0;

  /// Worker count for the per-run NumericBackend. More than one runs each
  /// batch's invocations on the shared host pool (DESIGN.md §14), which
  /// pays only for batches large enough to amortize the thread hand-offs:
  /// on brickdl_serve's 3-layer 16² conv chain, 4 workers served fewer
  /// requests at a higher p50 than 1.
  int backend_workers = 1;

  /// Cross-batch pipelining (DESIGN.md §14): up to this many batched engine
  /// runs may execute concurrently on a runner pool, so request B's first
  /// subgraphs run while request A's tail drains. Dispatch is bounded by the
  /// footprint budget — the summed footprints of in-flight plans never exceed
  /// the same budget the planner splits against — and runs are reaped in
  /// dispatch order. 1 = the classic synchronous scheduler.
  int max_inflight_batches = 1;

  // ---- overload resilience (DESIGN.md §12) ----

  /// Bounded admission: submit() resolves immediately with kOverloaded when
  /// this many requests are already queued (0 = unbounded, the PR 5
  /// behaviour). When the queue is full and the incoming request has more
  /// deadline slack than the queued request with the earliest deadline, the
  /// earliest-deadline request is shed instead (oldest-deadline-first
  /// shedding under sustained overload).
  i64 max_queue_depth = 0;

  /// Deadline applied to submit(Tensor) calls that do not carry their own
  /// (0 = none). A request whose deadline passes before execution — or whose
  /// plan's EWMA-corrected §4 predicted latency cannot fit before it — is
  /// shed with kDeadlineExceeded instead of executed.
  i64 default_deadline_us = 0;

  /// Degradation circuit breaker: after this many consecutive runs in which
  /// a cached plan's planned strategy failed (forcing the engine down its §7
  /// fallback chain), route the plan straight to the next strategy tier
  /// (padded, then vendor) instead of re-walking the chain per request
  /// (0 = disabled).
  int breaker_failures = 3;

  /// Requests served at the degraded tier before a half-open probe retries
  /// the planned strategy (a clean probe closes the breaker).
  int breaker_cooldown = 16;

  /// Scan request inputs for NaN/Inf at admission, so one poisoned input is
  /// rejected alone instead of corrupting its whole batch.
  bool admission_finite_check = true;

  /// When a batched run fails, re-run each member solo so only the requests
  /// that fail on their own are failed (per-request degradation; the engine's
  /// own strategy fallback chain runs inside each attempt).
  bool solo_fallback = true;

  /// Engine configuration shared by every batched and solo run.
  EngineOptions engine;
};

/// kInvalidOptions unless every knob is in range.
Status validate_serve_options(const ServeOptions& options);

/// Per-request outcome, delivered through the future returned by
/// Server::submit(). `output` is valid only when `status.ok()`.
struct RequestResult {
  Status status;
  Tensor output;
  /// Occupancy of the engine run that served this request: how many
  /// requests (and how many stacked batch rows) shared the run. 1/rows for
  /// solo runs and admission rejects.
  i64 batch_requests = 0;
  i64 batch_rows = 0;
  /// True when the request was shed by an overload policy (admission
  /// rejection, oldest-deadline eviction, deadline expiry, predicted-latency
  /// miss, or drain-deadline shutdown) — i.e. it never executed. The status
  /// is one of kOverloaded / kDeadlineExceeded / kShuttingDown.
  bool shed = false;
};

}  // namespace brickdl::serve
