#!/usr/bin/env bash
# Tier-2 benchmark-trajectory gate (referenced from ROADMAP.md).
#
# Runs scripts/bench_report.py over the pinned golden grid, writes a
# schema-versioned BENCH_<sha>.json into bench_out/, and checks the
# tracked series against the committed baseline
# (benchmarks/bench_baseline.json):
#
#   * makespan.geomean.<scheduler> — deterministic; >10% growth fails;
#   * sim.events_per_sec, runner.cells_per_sec and
#     runner.warm_cells_per_sec — calibration-normalized throughput;
#     a >10% drop fails;
#   * runner.peak_rss_mb — >10% growth fails;
#   * runner.retry_overhead_pct — fails above the larger of +10% and
#     +5 percentage points over the baseline;
#   * the other series (events total, wall seconds, sanitizer overhead,
#     calibration probe) — informational trajectory only.
#
# Tolerance override: REPRO_BENCH_TOLERANCE (fraction, default 0.10).
#
# Usage: bash scripts/check_bench.sh   (from the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== benchmark trajectory report vs committed baseline =="
python scripts/bench_report.py \
    --out-dir bench_out \
    --baseline benchmarks/bench_baseline.json

echo "bench gate: OK"
