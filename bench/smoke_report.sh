#!/usr/bin/env bash
# Observability smoke test (DESIGN.md §8): run a small model through
# brickdl_cli with tracing and profiling on, then schema-validate both
# artifacts with brickdl_report_check. Registered as the `obs_smoke` CTest
# (label: obs); also runnable by hand:
#
#   bench/smoke_report.sh [build-dir]
set -euo pipefail

build_dir="${1:-build}"
cli="$build_dir/tools/brickdl_cli"
check="$build_dir/tools/brickdl_report_check"
for bin in "$cli" "$check"; do
  if [[ ! -x "$bin" ]]; then
    echo "smoke_report: missing binary $bin (build the tree first)" >&2
    exit 1
  fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Small enough to simulate in seconds, deep enough to produce several merged
# subgraphs (and therefore several predicted-vs-observed rows).
"$cli" drn26 --batch 1 --spatial 64 \
  --trace="$tmp/trace.json" --report="$tmp/report.json"

"$check" --report "$tmp/report.json" --trace "$tmp/trace.json"

# The report must carry at least one subgraph with a modeled prediction.
grep -q '"schema": "brickdl-run-report-v1"' "$tmp/report.json"
grep -q '"modeled": true' "$tmp/report.json"
grep -q '"thread_name"' "$tmp/trace.json"

# Usage errors exit 2 with the usage text, never a crash: an unknown flag
# (the removed --partition-strategy among them) and a value flag given last
# without its value.
for args in "--partition-strategy paper" "--batch"; do
  status=0
  "$cli" drn26 $args 2>"$tmp/usage.txt" || status=$?
  if [[ $status -ne 2 ]] || ! grep -q '^usage: brickdl_cli' "$tmp/usage.txt"; then
    echo "smoke_report: 'brickdl_cli drn26 $args' exited $status," \
         "expected 2 with usage" >&2
    exit 1
  fi
done

echo "smoke_report: ok"
