// perfbench — the repository benchmark (see README.md in this directory).
//
//   perfbench --workload sim_fig07|numeric_resnet50|serve_mixed
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 runs the named workload with tracing off and reports its
// end-to-end metrics. --trace 1 is the separate traced run: the tracer is on,
// each workload runs a short traced segment (the same whichever workload is
// named), the per-layer metrics are reported, and the Chrome trace is
// validated and written to --trace-out. Human-readable lines come first; the
// last line of standard output is the JSON result. Exit status 1 when any
// operation failed or produced a wrong output, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace perfbench {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sim_fig07|numeric_resnet50|"
               "serve_mixed --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n");
  return 2;
}

/// Per-thread ring size for the traced run, in events. The traced segments
/// record about 55 k events on the main thread and up to about 100 k on the
/// serve scheduler thread (spans and per-request flow events), so every event
/// fits with room to spare; a ring that overflows fails the run.
constexpr size_t kRingEvents = size_t{1} << 18;

/// Seconds each traced segment measures.
constexpr double kTracedSeconds = 2.0;

void traced_run(const Args& args, Report& report) {
  brickdl::obs::Tracer& tracer = brickdl::obs::Tracer::instance();
  tracer.set_ring_capacity(kRingEvents);
  tracer.set_enabled(true);
  // The first event on a thread allocates its ring; do that here, outside
  // every timed interval.
  brickdl::obs::Tracer::instant("bench", "start");
  Args segment = args;
  segment.seconds = kTracedSeconds;
  {
    Span span("segment:sim_fig07");
    trace_sim_fig07(segment, report);
  }
  {
    Span span("segment:numeric_resnet50");
    trace_numeric_resnet50(segment, report);
  }
  {
    Span span("segment:serve_mixed");
    trace_serve_mixed(segment, report);
  }
  tracer.set_enabled(false);

  const u64 dropped = tracer.dropped_events();
  report.add("trace.dropped_events", static_cast<double>(dropped), "count");
  report.add("trace.events", static_cast<double>(tracer.event_count()),
             "count");
  if (dropped > 0) {
    report.fail("trace ring overflowed: " + std::to_string(dropped) +
                " events dropped");
  }
  const brickdl::obs::Json doc = tracer.export_chrome_trace();
  const brickdl::Status valid = brickdl::obs::validate_chrome_trace(doc);
  if (!valid.ok()) report.fail("trace does not validate: " + valid.to_string());
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out, std::ios::binary);
    out << doc.dump(0) << "\n";
    if (!out) report.fail("cannot write trace to " + args.trace_out);
  }
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false, have_seed = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(end && *end == '\0') || !(args.seconds > 0)) return usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_trace) {
    return usage();
  }

  using Runner = void (*)(const Args&, Report&);
  Runner runner = nullptr;
  if (args.workload == "sim_fig07") {
    runner = &run_sim_fig07;
  } else if (args.workload == "numeric_resnet50") {
    runner = &run_numeric_resnet50;
  } else if (args.workload == "serve_mixed") {
    runner = &run_serve_mixed;
  } else {
    return usage();
  }
  Report report;
  try {
    if (args.trace) {
      traced_run(args, report);
    } else {
      runner(args, report);
    }
  } catch (const std::exception& e) {
    report.fail(std::string("exception: ") + e.what());
  }
  if (!args.trace) report.add("peak_rss_mb", peak_rss_mb(), "MB");

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  for (const auto* list : {&report.metrics, &report.notes}) {
    for (const Metric& m : *list) {
      std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  const double error_frac =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  std::printf("  %-28s %14.6g %s\n", "error_frac", error_frac, "fraction");
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }

  std::string metrics;
  for (const Metric& m : report.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " +
               (std::isfinite(m.value) ? number(m.value) : "null") +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), metrics.c_str());
  return correct ? 0 : 1;
}
