#!/usr/bin/env bash
# Tier-2 static-analysis gate (referenced from ROADMAP.md).
#
# Proves the plan-time checking layer end to end:
#   1. the staticcheck suites — mutation self-tests for every model check,
#      schedule-audit check, lint check and whole-program check (a check
#      that cannot catch its own seeded defect is worthless);
#   2. the determinism lint over src/repro — must be clean modulo the
#      packaged allowlist;
#   3. the deep whole-program pass over src/repro — interprocedural
#      determinism taint from the campaign-entry roots, pickle-boundary
#      safety of worker payloads, concurrency/lifecycle hazards — clean
#      modulo the allowlist, with JSON + SARIF findings reports left in
#      bench_out/ for CI upload;
#   4. the model checker + schedule audit over every golden suite x
#      scheduler cell — the pinned regression grid must be statically
#      sound, not merely numerically stable;
#   5. live CLI cross-checks — `repro-flow check` on a feasible and an
#      infeasible cell (exit codes 0 / 1), and a --precheck'ed run.
#
# Usage: bash scripts/check_staticcheck.sh   (from the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== staticcheck self-tests (model, schedule, lint, deep) =="
python -m pytest -q \
    tests/test_staticcheck_model.py \
    tests/test_staticcheck_schedule.py \
    tests/test_staticcheck_lint.py \
    tests/test_staticcheck_callgraph.py \
    tests/test_staticcheck_flow.py \
    tests/test_staticcheck_pickle.py \
    tests/test_staticcheck_concurrency.py \
    tests/test_workflow_validate.py

echo "== determinism lint over src/repro =="
python -m repro.cli lint src/repro

echo "== deep whole-program pass over src/repro =="
mkdir -p bench_out
python -m repro.cli lint src/repro --deep \
    --json bench_out/staticcheck_findings.json \
    --sarif bench_out/staticcheck_findings.sarif

echo "== model checker over the golden grid =="
python - <<'EOF'
from repro.runner.campaign import golden_jobs
from repro.staticcheck import precheck_job

bad = 0
jobs = golden_jobs()
for job in jobs:
    report = precheck_job(job)
    if not report.ok:
        bad += 1
        print(f"FAIL {job.label}:")
        print(report.render())
print(f"golden grid: {len(jobs) - bad}/{len(jobs)} cells statically sound")
raise SystemExit(1 if bad else 0)
EOF

echo "== CLI cross-check: repro-flow check exit codes =="
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

python -m repro.cli check --workflow montage --size 20 --cluster hybrid

python - "$workdir/gpu_only.json" <<'EOF'
import json, sys
from repro.workflows.generators import montage
from repro.workflows.serialize import workflow_to_json

doc = json.loads(workflow_to_json(montage(n_images=3, seed=0)))
for task in doc["tasks"]:
    task["affinity"] = {"gpu": 1.0, "cpu": 0.0}
open(sys.argv[1], "w", encoding="utf-8").write(json.dumps(doc))
EOF
if python -m repro.cli check --input "$workdir/gpu_only.json" --cluster cpu \
    > "$workdir/infeasible.txt"; then
    echo "FAIL: check exited 0 on an infeasible cell" >&2
    exit 1
fi
grep -q "stranded-task" "$workdir/infeasible.txt" \
    || { echo "FAIL: infeasible cell lacks stranded-task finding" >&2; exit 1; }

echo "-- run --precheck"
python -m repro.cli run --workflow montage --size 20 --precheck > /dev/null

echo "staticcheck gate: OK"
