#!/usr/bin/env bash
# Tier-2 scale-smoke gate (referenced from ROADMAP.md).
#
# Runs scripts/scale_smoke.py: a ~5k-cell streaming campaign that is
# hard-killed ~60% of the way through, then resumed against the same
# shard-indexed cache.  Passes only if
#
#   * the resumed pass re-simulates at most the cells the crashed pass
#     never finished (each record is synced before the runner hands its
#     outcome on, so the warm start from the cache's shard index loses
#     nothing the crashed pass counted);
#   * every cell completes, streamed through O(1)-memory aggregates;
#   * peak RSS stays under 1536 MB (the flat-memory contract);
#   * the injected-failure phase (deterministic transient faults plus
#     poison cells) completes unattended under health-gated admission:
#     transients retry to success, exactly the poison cells are
#     quarantined, and resuming recalls every verdict from the cache
#     with zero re-simulations.
#
# A 4 GB address-space rlimit backstops the RSS assertion: a streaming
# regression that balloons memory dies loudly here instead of slowly on
# a production-sized campaign.
#
# Overrides: REPRO_SCALE_SMOKE_CELLS       (default 5000),
#            REPRO_SCALE_SMOKE_JOBS        (default 2),
#            REPRO_SCALE_SMOKE_INJECT_RATE (default 0.05),
#            REPRO_SCALE_SMOKE_POISON      (default 3).
#
# Usage: bash scripts/check_scale.sh   (from the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Address-space backstop (kB). Soft-fail if the sandbox forbids rlimits.
ulimit -v 4194304 2>/dev/null || echo "note: could not set ulimit -v"

echo "== scale smoke: crash + resume + injected faults =="
python scripts/scale_smoke.py \
    --cells "${REPRO_SCALE_SMOKE_CELLS:-5000}" \
    --jobs "${REPRO_SCALE_SMOKE_JOBS:-2}" \
    --inject-rate "${REPRO_SCALE_SMOKE_INJECT_RATE:-0.05}" \
    --poison-cells "${REPRO_SCALE_SMOKE_POISON:-3}" \
    --out bench_out/scale_smoke.json

echo "scale gate: OK"
