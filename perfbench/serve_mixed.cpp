// serve_mixed — open-loop serve::Server traffic on the conv-chain model that
// brickdl_serve serves (3 layers, 16², 2 channels).
//
// Why this workload: per-request compute is ~150 µs, so the serving layer
// dominates: queueing, coalescing, the BatchPlanner, shedding and per-run
// backend set-up. The engine runs many tiny rebatched graphs instead of one
// large graph, so a change that speeds kernels but adds per-run cost shows
// here as a regression.
//
// One generator thread sends tight and loose deadline classes alternately:
// a steady phase at a fixed rate well under capacity, then a burst phase at a
// fixed rate several times over it. Rates and deadlines are constants, never
// derived from a capacity probe, so the offered load does not move with the
// code under test (unlike `brickdl_serve --overload`). Every request is timed
// from its scheduled send time, so a stalled generator shows as latency and
// as generator lateness.
#include <atomic>
#include <future>
#include <thread>

#include "bench.hpp"
#include "layers.hpp"
#include "models/models.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace brickdl;

namespace {

// Burst-phase capacity is 7-9 k requests/s on a 4-vCPU Xeon VM (batches of 8).
constexpr double kSteadyRps = 1000.0;     ///< well under that capacity
constexpr double kBurstRps = 20000.0;     ///< 2-3x over it
constexpr i64 kTightDeadlineUs = 2000;    ///< even-numbered requests
constexpr i64 kLooseDeadlineUs = 20000;   ///< odd-numbered requests
constexpr double kSteadyShare = 0.5;      ///< of the run's seconds
constexpr int kInputPool = 64;            ///< distinct seeded inputs, cycled

/// Threads: the generator (the calling thread), the collector, the server's
/// scheduler, and one backend worker that the scheduler waits on while a
/// batch runs. Four threads fit a 4-vCPU machine without the benchmark
/// competing with the server for cores.
serve::ServeOptions serve_options() {
  serve::ServeOptions o;
  o.max_batch = 8;
  o.max_wait_us = 2000;
  o.max_queue_depth = 4 * o.max_batch;
  o.backend_workers = 1;
  return o;
}

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Request {
  std::future<serve::RequestResult> future;
  u64 due_ns = 0;
  bool burst = false;
  int cls = 0;  ///< 0 = tight, 1 = loose
  size_t input = 0;
  // Filled by the collector:
  bool served = false;
  bool shed = false;
  bool correct = false;
  u64 latency_ns = 0;  ///< ready time - due time
};

struct Traffic {
  std::vector<Request> requests;
  std::vector<double> late_ms;  ///< generator lateness per request
  double burst_seconds = 0.0;
  i64 failed = 0;
  std::vector<std::string> errors;
};

/// Drive the server with the two-phase schedule. The generator runs on the
/// calling thread; a collector thread waits on the futures in submission
/// order (served requests complete in queue order; sheds resolve at submit
/// or flush), checks each output against the solo reference, and drops it.
void drive(serve::Server& server, const std::vector<Tensor>& inputs,
           const std::vector<Tensor>& expected, double seconds,
           Traffic& traffic) {
  const size_t steady =
      static_cast<size_t>(kSteadyRps * seconds * kSteadyShare);
  const double burst_s = seconds * (1.0 - kSteadyShare);
  const size_t burst = static_cast<size_t>(kBurstRps * burst_s);
  const size_t total = steady + burst;
  traffic.requests = std::vector<Request>(total);
  traffic.late_ms.assign(total, 0.0);
  traffic.burst_seconds = burst_s;
  std::atomic<size_t> submitted{0};

  std::thread collector([&] {
    for (size_t i = 0; i < total; ++i) {
      while (submitted.load(std::memory_order_acquire) <= i) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      Request& r = traffic.requests[i];
      r.future.wait();
      r.latency_ns = now_ns() - r.due_ns;
      serve::RequestResult result = r.future.get();
      if (result.status.ok()) {
        r.served = true;
        r.correct = bit_equal(result.output, expected[r.input]);
      } else {
        r.shed = result.shed;
        if (!r.shed && traffic.errors.size() < 8) {
          traffic.errors.push_back(result.status.to_string());
        }
      }
    }
  });

  const u64 start = now_ns() + 1'000'000;  // 1 ms lead for the first send
  const double steady_gap_ns = 1e9 / kSteadyRps;
  const double burst_gap_ns = 1e9 / kBurstRps;
  const u64 burst_start =
      start + static_cast<u64>(static_cast<double>(steady) * steady_gap_ns);
  for (size_t i = 0; i < total; ++i) {
    Request& r = traffic.requests[i];
    r.burst = i >= steady;
    r.due_ns = r.burst ? burst_start + static_cast<u64>(
                                           static_cast<double>(i - steady) *
                                           burst_gap_ns)
                       : start + static_cast<u64>(static_cast<double>(i) *
                                                  steady_gap_ns);
    r.cls = static_cast<int>(i % 2);
    r.input = i % inputs.size();
    const u64 now = now_ns();
    if (now < r.due_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(r.due_ns - now));
    }
    const u64 sent = now_ns();
    traffic.late_ms[i] = static_cast<double>(sent - r.due_ns) * 1e-6;
    Span span("submit", static_cast<i64>(i));
    r.future = server.submit(Tensor(inputs[r.input]),
                             r.cls == 0 ? kTightDeadlineUs : kLooseDeadlineUs);
    submitted.store(i + 1, std::memory_order_release);
  }
  collector.join();
  for (const Request& r : traffic.requests) {
    if (r.served ? !r.correct : !r.shed) ++traffic.failed;
  }
}

struct Served {
  Graph model = build_conv_chain_2d(3, /*batch=*/1, /*spatial=*/16,
                                    /*channels=*/2);
  std::unique_ptr<WeightStore> weights;
  std::unique_ptr<serve::Server> server;
};

/// Set-up: server construction plus a warm-up wave of every stacked row
/// count up to max_batch, which fills lazy weights and the BatchPlanner's
/// per-row-count engines. False when a warm-up request fails.
bool set_up(Served& s, u64 seed, const std::vector<Tensor>& inputs) {
  s.server.reset();
  s.weights = std::make_unique<WeightStore>(seed);
  Span span("serve.setup");
  s.server = std::make_unique<serve::Server>(s.model, *s.weights,
                                             serve_options());
  for (int rows = 1; rows <= serve_options().max_batch; ++rows) {
    std::vector<std::future<serve::RequestResult>> wave;
    for (int i = 0; i < rows; ++i) {
      wave.push_back(s.server->submit(Tensor(inputs[static_cast<size_t>(i)])));
    }
    for (auto& f : wave) {
      if (!f.get().status.ok()) return false;
    }
  }
  return true;
}

struct PhaseStats {
  std::vector<double> steady_ms;  ///< served steady-phase latencies
  double slo_pct[2] = {0.0, 0.0};  ///< burst: within deadline / submitted
  double goodput_rps = 0.0;        ///< burst: within deadline per second
};

PhaseStats phase_stats(const Traffic& traffic) {
  PhaseStats s;
  i64 submitted[2] = {0, 0}, met[2] = {0, 0};
  const i64 deadline_ns[2] = {kTightDeadlineUs * 1000, kLooseDeadlineUs * 1000};
  for (const Request& r : traffic.requests) {
    if (!r.burst) {
      if (r.served) {
        s.steady_ms.push_back(static_cast<double>(r.latency_ns) * 1e-6);
      }
      continue;
    }
    ++submitted[r.cls];
    if (r.served && r.correct &&
        static_cast<i64>(r.latency_ns) <= deadline_ns[r.cls]) {
      ++met[r.cls];
    }
  }
  for (int c = 0; c < 2; ++c) {
    s.slo_pct[c] = submitted[c] > 0 ? 100.0 * static_cast<double>(met[c]) /
                                          static_cast<double>(submitted[c])
                                    : 0.0;
  }
  s.goodput_rps = static_cast<double>(met[0] + met[1]) / traffic.burst_seconds;
  return s;
}

void account(const Traffic& traffic, Report& report) {
  report.attempted += static_cast<i64>(traffic.requests.size());
  for (i64 i = 0; i < traffic.failed; ++i) {
    report.fail(i < static_cast<i64>(traffic.errors.size())
                    ? traffic.errors[static_cast<size_t>(i)]
                    : "served output differs from the solo reference");
  }
}

}  // namespace

void run_serve_mixed(const Args& args, Report& report) {
  Served s;
  WeightStore weights(args.seed);
  const std::vector<Tensor> inputs =
      make_inputs(s.model, args.seed, kInputPool);
  const std::vector<Tensor> expected =
      reference_outputs(s.model, weights, inputs, report);
  std::vector<double> setup_s;
  for (size_t rep = 0; rep < kSetups; ++rep) {
    const double t0 = now_s();
    ++report.attempted;
    if (!set_up(s, args.seed, inputs)) {
      report.fail("warm-up request failed");
      return;
    }
    setup_s.push_back(now_s() - t0);
  }

  Traffic traffic;
  drive(*s.server, inputs, expected, args.seconds, traffic);
  s.server->shutdown();
  account(traffic, report);
  const PhaseStats stats = phase_stats(traffic);

  report.add("setup_s", quantile(setup_s, 0.0), "s");
  report.add("latency_ms", quantile(stats.steady_ms, 0.5), "ms");
  Engine engine(s.model, serve_options().engine);
  report_modeled(s.model, s.model, engine, report);
  report.note("serve_p50_ms", quantile(stats.steady_ms, 0.5), "ms");
  report.note("serve_p99_ms", quantile(stats.steady_ms, 0.99), "ms");
  report.note("tight_slo_pct", stats.slo_pct[0], "%");
  report.note("loose_slo_pct", stats.slo_pct[1], "%");
  report.note("goodput_rps", stats.goodput_rps, "1/s");
}

void trace_serve_mixed(const Args& args, Report& report) {
  Served s;
  WeightStore weights(args.seed);
  const std::vector<Tensor> inputs =
      make_inputs(s.model, args.seed, kInputPool);
  const std::vector<Tensor> expected =
      reference_outputs(s.model, weights, inputs, report);
  ++report.attempted;
  if (!set_up(s, args.seed, inputs)) {
    report.fail("warm-up request failed");
    return;
  }
  obs::metrics().reset();
  Traffic traffic;
  drive(*s.server, inputs, expected, args.seconds, traffic);
  s.server->shutdown();
  account(traffic, report);
  const PhaseStats stats = phase_stats(traffic);

  obs::MetricsRegistry& m = obs::metrics();
  auto counter = [&](const char* name) {
    return static_cast<double>(m.counter(name).value());
  };
  report.add("serve.batches", counter("serve.batches"), "count");
  report.add("serve.occupancy_mean",
             m.histogram("serve.batch_occupancy").mean(), "requests");
  report.add("serve.coalesce_ms_p50",
             static_cast<double>(
                 m.histogram("serve.coalesce_us").percentile(0.5)) * 1e-3,
             "ms");
  report.add("serve.run_ms_p50",
             static_cast<double>(m.histogram("serve.run_us").percentile(0.5)) *
                 1e-3,
             "ms");
  report.add("serve.run_ms_p99",
             static_cast<double>(m.histogram("serve.run_us").percentile(0.99)) *
                 1e-3,
             "ms");
  report.add("serve.shed.overload", counter("serve.shed.overload"), "count");
  report.add("serve.shed.deadline", counter("serve.shed.deadline"), "count");
  report.add("serve.shed.predicted", counter("serve.shed.predicted"), "count");
  report.add("serve.served_late", counter("serve.deadline.missed"), "count");
  report.add("serve.breaker.opens", counter("serve.breaker.opens"), "count");
  report.add("serve.p99_ms", quantile(stats.steady_ms, 0.99), "ms");
  report.add("serve.tight_slo_pct", stats.slo_pct[0], "%");
  report.add("serve.loose_slo_pct", stats.slo_pct[1], "%");
  report.add("serve.goodput_rps", stats.goodput_rps, "1/s");
  report.add("gen.late_ms_p99", quantile(traffic.late_ms, 0.99), "ms");
}

}  // namespace perfbench
