#!/usr/bin/env python3
"""Perf-regression gate over the committed mb_kernels baseline.

Runs ``bench/mb_kernels --quick --json`` (or reads a pre-recorded result via
``--current``) and compares it against the committed ``BENCH_kernels.json``.

Absolute ns/call is host-dependent — a laptop and a CI runner disagree by
integer factors — so the gate compares *speedup ratios*, which the baseline
exists to defend:

  * ``<kernel>/<region>``: generic ns / fast ns — the fast-path speedup the
    PR 4 kernels claim. A fast path that silently falls back to the generic
    loop drives this toward 1x and fails the gate.
  * ``parallel_for/grainN``: grain1 ns / grainN ns — the chunking win over
    per-index dispatch.

A pair regresses when its current speedup drops below ``baseline * (1 -
tolerance)`` (default tolerance 0.25, i.e. +/-25 percent; improvements never
fail). On a shared host one ``--quick`` run moves a pair's ratio by about
+/-20 percent with no code change, so ``--bench`` runs the binary
``BENCH_RUNS`` (3) times and gates each pair's *median* speedup;
``--current`` gates the single pre-recorded run it is given. Exit status: 0
clean, 1 regression or missing pair, 2 usage/setup error.

``--serve-current`` additionally (or standalone) compares a
``brickdl-serve-bench-v1`` document — written by ``brickdl_serve --overload
... --json`` — against the committed ``BENCH_serve.json``. Serving latency is
even more host- and load-sensitive than kernel timings, so only
host-independent ratios are compared (per-class p99 normalized by the run's
own measured service time, and SLO attainment), and the serve gate is
**advisory**: verdicts are printed but never affect the exit status.

``--calibration`` additionally (or standalone) reads a
``brickdl-calibration-v1`` document — written by ``brickdl_cli
--calibrate-out`` — and reports the cost model's mean relative prediction
error at the stock constants vs the fitted ones (the ``residuals`` block the
fit certifies itself with). Like the serve gate this is **advisory**: the
fit's take-best selection already guarantees calibrated ≤ stock on its own
corpus, so a regression here means the artifact pipeline is broken, which
the schema validation (``brickdl_report_check --calibration``) hard-fails
elsewhere; this comparison just surfaces how much headroom calibration is
buying on the CI model.

Usage:
  tools/ci_bench_check.py --bench build/bench/mb_kernels
  tools/ci_bench_check.py --current run.json [--baseline BENCH_kernels.json]
  tools/ci_bench_check.py --serve-current stats.json [--serve-baseline BENCH_serve.json]
  tools/ci_bench_check.py --calibration cal.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

# mb_kernels --quick runs per --bench invocation; each pair's median is gated.
BENCH_RUNS = 3

def load_results(path):
    """Return {name: ns_per_call} from an mb_kernels JSON dump."""
    with open(path) as f:
        doc = json.load(f)
    results = {}
    for entry in doc.get("results", []):
        results[entry["name"]] = float(entry["ns_per_call"])
    if not results:
        raise ValueError(f"{path}: no results")
    return results


def speedup_pairs(results):
    """Yield (label, slow_ns, fast_ns) ratio pairs present in `results`."""
    for name, ns in sorted(results.items()):
        if name.endswith("/generic"):
            fast = name[: -len("generic")] + "fast"
            if fast in results:
                yield (name[: -len("/generic")], ns, results[fast])
        elif name.startswith("parallel_for/grain") and name != "parallel_for/grain1":
            base = results.get("parallel_for/grain1")
            if base is not None:
                yield (name, base, ns)


def median_speedups(runs):
    """{label: median speedup} over the pairs each run in `runs` measured.

    A pair missing from some runs takes the median of the runs that have it.
    """
    samples = {}
    for results in runs:
        for label, slow, fast in speedup_pairs(results):
            samples.setdefault(label, []).append(slow / fast)
    return {label: statistics.median(values)
            for label, values in samples.items()}


def load_serve(path):
    """Return a validated brickdl-serve-bench-v1 document."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "brickdl-serve-bench-v1":
        raise ValueError(f"{path}: expected schema brickdl-serve-bench-v1, "
                         f"got {doc.get('schema')!r}")
    return doc


def serve_ratios(doc):
    """Host-independent serving ratios from a brickdl-serve-bench-v1 doc.

    Latencies are normalized by the run's own measured per-request service
    time, so a slow CI runner shifts numerator and denominator together.
    ``slo_pct`` is already dimensionless. Ratios whose label ends in
    ``slo_pct`` are higher-is-better; the rest are lower-is-better.
    """
    service = float(doc.get("service_us", 0.0))
    ratios = {}
    for cls, stats in sorted(doc.get("classes", {}).items()):
        if service > 0.0 and int(stats.get("served", 0)) > 0:
            ratios[f"{cls}/p99_over_service"] = float(stats["p99_us"]) / service
        ratios[f"{cls}/slo_pct"] = float(stats.get("slo_pct", 0.0))
    req = doc.get("request_us", {})
    if service > 0.0 and int(req.get("count", 0)) > 0:
        ratios["all/p99_over_service"] = float(req["p99_us"]) / service
    return ratios


def check_serve(baseline_path, current_path, tolerance):
    """Advisory serve comparison: prints verdicts, never fails the gate."""
    baseline = serve_ratios(load_serve(baseline_path))
    current = serve_ratios(load_serve(current_path))
    labels = sorted(baseline)
    width = max(len(label) for label in labels) if labels else 0
    print(f"\nserve gate (advisory, vs {baseline_path}):")
    print(f"{'ratio':<{width}}  {'baseline':>9}  {'current':>9}  verdict")
    regressions = 0
    for label in labels:
        base = baseline[label]
        cur = current.get(label)
        if cur is None:
            print(f"{label:<{width}}  {base:>9.3f}  {'missing':>9}  ADVISORY")
            regressions += 1
            continue
        if label.endswith("slo_pct"):
            # Higher is better; absolute percentage-point slack scaled by
            # the tolerance (SLO near 0% would make a relative floor vacuous).
            ok = cur >= base - 100.0 * tolerance
        else:
            ok = cur <= base * (1.0 + tolerance)
        verdict = "ok" if ok else "ADVISORY regression"
        print(f"{label:<{width}}  {base:>9.3f}  {cur:>9.3f}  {verdict}")
        regressions += 0 if ok else 1
    if regressions:
        print(f"serve gate: {regressions} advisory regression(s) beyond "
              f"{tolerance:.0%} — not failing the build")
    else:
        print(f"serve gate clean: {len(labels)} ratio(s) within "
              f"{tolerance:.0%} of baseline")


def check_calibration(path):
    """Advisory calibrated-vs-stock prediction-error comparison.

    Reads the residuals a ``brickdl-calibration-v1`` fit certifies itself
    with. Prints the improvement; never affects the exit status.
    """
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "brickdl-calibration-v1":
        raise ValueError(f"{path}: expected schema brickdl-calibration-v1, "
                         f"got {doc.get('schema')!r}")
    residuals = doc.get("residuals", {})
    stock = float(residuals["stock_mean_rel_error"])
    calibrated = float(residuals["calibrated_mean_rel_error"])
    samples = int(doc.get("samples", 0))
    print(f"\ncalibration gate (advisory, {path}, {samples} sample(s)):")
    print(f"  mean relative prediction error: stock {stock:.4f} -> "
          f"calibrated {calibrated:.4f}")
    if calibrated <= stock:
        if stock > 0.0:
            print(f"  ok: calibration cuts prediction error by "
                  f"{(1.0 - calibrated / stock):.0%}")
        else:
            print("  ok: stock model already exact on this corpus")
    else:
        # The fit's take-best selection makes this unreachable from a healthy
        # pipeline; reaching it means the artifact was produced by something
        # else (or hand-edited), so flag loudly but stay advisory.
        print("  ADVISORY regression: calibrated residual exceeds stock — "
              "not failing the build")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", help="mb_kernels binary to run (--quick mode)")
    parser.add_argument(
        "--current",
        help="pre-recorded mb_kernels JSON result (skips running the bench)",
    )
    parser.add_argument(
        "--baseline",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_kernels.json"),
        help="committed baseline JSON (default: repo BENCH_kernels.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional speedup drop before failing (default 0.25)",
    )
    parser.add_argument(
        "--serve-current",
        help="brickdl-serve-bench-v1 JSON from brickdl_serve --overload --json "
             "(advisory comparison; may be the only input)",
    )
    parser.add_argument(
        "--serve-baseline",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_serve.json"),
        help="committed serve baseline JSON (default: repo BENCH_serve.json)",
    )
    parser.add_argument(
        "--calibration",
        help="brickdl-calibration-v1 JSON from brickdl_cli --calibrate-out "
             "(advisory calibrated-vs-stock residual report; may be the only "
             "input)",
    )
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")
    if args.bench and args.current:
        parser.error("at most one of --bench / --current is allowed")
    if not (args.bench or args.current or args.serve_current
            or args.calibration):
        parser.error("one of --bench / --current / --serve-current / "
                     "--calibration is required")

    if args.serve_current:
        check_serve(args.serve_baseline, args.serve_current, args.tolerance)
    if args.calibration:
        check_calibration(args.calibration)
    if not (args.bench or args.current):
        return 0

    current_paths = [args.current] if args.current else []
    tmp_paths = []
    try:
        if args.bench:
            for run in range(BENCH_RUNS):
                tmp = tempfile.NamedTemporaryFile(suffix=".json", delete=False)
                tmp.close()
                tmp_paths.append(tmp.name)
                cmd = [args.bench, "--quick", "--json", tmp.name]
                print(f"running ({run + 1}/{BENCH_RUNS}):", " ".join(cmd),
                      flush=True)
                proc = subprocess.run(cmd)
                if proc.returncode != 0:
                    print(f"FAIL: {args.bench} exited {proc.returncode}",
                          file=sys.stderr)
                    return 2
            current_paths = tmp_paths
        baseline = load_results(args.baseline)
        runs = [load_results(path) for path in current_paths]
    finally:
        for path in tmp_paths:
            os.unlink(path)

    base_pairs = {label: slow / fast for label, slow, fast in speedup_pairs(baseline)}
    cur_pairs = median_speedups(runs)
    if len(runs) > 1:
        print(f"median speedup of {len(runs)} runs per pair")

    failures = 0
    width = max(len(label) for label in base_pairs) if base_pairs else 0
    print(f"{'pair':<{width}}  {'baseline':>9}  {'current':>9}  verdict")
    for label, base_speedup in sorted(base_pairs.items()):
        cur_speedup = cur_pairs.get(label)
        if cur_speedup is None:
            print(f"{label:<{width}}  {base_speedup:>8.2f}x  {'missing':>9}  FAIL")
            failures += 1
            continue
        floor = base_speedup * (1.0 - args.tolerance)
        ok = cur_speedup >= floor
        verdict = "ok" if ok else f"FAIL (floor {floor:.2f}x)"
        print(f"{label:<{width}}  {base_speedup:>8.2f}x  {cur_speedup:>8.2f}x  {verdict}")
        failures += 0 if ok else 1

    if failures:
        print(f"\n{failures} speedup pair(s) regressed more than "
              f"{args.tolerance:.0%} vs {args.baseline}", file=sys.stderr)
        return 1
    print(f"\nbench gate clean: {len(base_pairs)} pair(s) within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
