#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/perfbench;
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. `--workload all` runs
every workload in its own process, then the traced run, and exits non-zero if
any of them failed.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sim_fig07", "numeric_resnet50", "serve_mixed")
RUN_TIMEOUT_S = 170  # one benchmark process must end within 180 s


def build(root: Path, build_dir: Path) -> bool:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_one(binary: Path, workload: str, seed: int, seconds: float,
            trace: int, trace_out: Path) -> int:
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out after {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: library sources not found under {root / 'src'}",
              file=sys.stderr)
        return 2
    build_dir = root / ".bench_build" / "perfbench"
    if not build(root, build_dir):
        return 1
    binary = build_dir / "perfbench"
    trace_out = build_dir / "trace.json"

    if args.workload != "all":
        return run_one(binary, args.workload, args.seed, args.seconds,
                       args.trace, trace_out)
    status = 0
    for workload in WORKLOADS:
        status |= run_one(binary, workload, args.seed, args.seconds, 0,
                          trace_out)
    status |= run_one(binary, WORKLOADS[0], args.seed, args.seconds, 1,
                      trace_out)
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
