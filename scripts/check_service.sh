#!/usr/bin/env bash
# Tier-2 service-smoke gate (referenced from ROADMAP.md).
#
# Runs scripts/service_smoke.py: boots the campaign service API, submits
# a campaign over HTTP, SIGKILLs a worker mid-batch while it holds a
# live lease, and lets a second worker reclaim and finish.  Passes only
# if
#
#   * the dead worker's lease is reclaimed (logical-tick expiry) and the
#     campaign completes with no cell failed or quarantined;
#   * every final record is byte-identical to an uninterrupted inline
#     run of the same cells (the service path IS the campaign path);
#   * resubmitting the identical campaign resolves every cell from the
#     shared result cache, the crashed worker's completions included
#     (each record is durable before its cell turns terminal);
#   * after both campaigns the store holds one copy of each submitted
#     workflow document (the count is in service_smoke.json);
#   * the server shuts down cleanly on POST /api/stop.
#
# Artifacts for CI upload: bench_out/service_smoke.json (checks +
# metrics) and bench_out/service-smoke/store_dump.json (full store
# dump), plus the serve/worker logs under bench_out/service-smoke/.
#
# Overrides: REPRO_SERVICE_SMOKE_CELLS (default 12),
#            REPRO_SERVICE_SMOKE_STALL (default 4).
#
# Usage: bash scripts/check_service.sh   (from the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== service smoke: HTTP submit + worker SIGKILL + lease reclaim =="
python scripts/service_smoke.py \
    --cells "${REPRO_SERVICE_SMOKE_CELLS:-12}" \
    --stall-after "${REPRO_SERVICE_SMOKE_STALL:-4}" \
    --out bench_out/service_smoke.json

echo "service gate: OK"
