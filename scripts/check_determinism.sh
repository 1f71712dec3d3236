#!/usr/bin/env bash
# Tier-2 determinism gate (referenced from ROADMAP.md).
#
# Proves the campaign-runner contract end to end:
#   1. the determinism suite — --jobs 4 == --jobs 1 == warm cache for the
#      representative experiments, plus runner/cache/spec unit properties;
#   2. the golden-regression grid — pinned suite x scheduler makespans;
#   3. a live CLI cross-check — `repro-flow exp t1`, `exp f5`, `exp f4`
#      and `exp t4` rendered under --jobs 1, --jobs 4 and a warm cache
#      must be byte-identical.  F5 repeats each static plan over several
#      run seeds, so this also covers plan reuse inline, across pool
#      workers and on a warm cache.  F4 runs static, dynamic and adaptive
#      HDWS on one workflow at several estimate errors, so it covers
#      context reuse across modes and the seeded bypass above zero error.
#      T4's HDWS ablation variants share contexts, and with them the
#      context's OCT (lookahead on and off) and both upward-rank tables
#      (affinity ranks on and off).
#
# Usage: bash scripts/check_determinism.sh   (from the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== determinism + runner + golden test suites =="
python -m pytest -q \
    tests/test_runner_determinism.py \
    tests/test_runner_pool.py \
    tests/test_runner_hashing.py \
    tests/test_runner_cache.py \
    tests/test_runner_specs.py \
    tests/test_suite_seeding.py \
    tests/test_golden_regression.py

echo "== CLI cross-check: jobs=1 vs jobs=4 vs warm cache =="
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

for exp in t1 f5 f4 t4; do
    echo "-- exp $exp"
    python -m repro.cli exp "$exp" --jobs 1 > "$workdir/$exp-serial.txt"
    python -m repro.cli exp "$exp" --jobs 4 --cache-dir "$workdir/cache" \
        > "$workdir/$exp-parallel.txt"
    python -m repro.cli exp "$exp" --jobs 4 --cache-dir "$workdir/cache" \
        > "$workdir/$exp-warm.txt"

    diff "$workdir/$exp-serial.txt" "$workdir/$exp-parallel.txt" \
        || { echo "FAIL: exp $exp --jobs 4 diverged from --jobs 1" >&2; exit 1; }
    diff "$workdir/$exp-serial.txt" "$workdir/$exp-warm.txt" \
        || { echo "FAIL: exp $exp warm-cache rerun diverged" >&2; exit 1; }
done

echo "determinism gate: OK"
