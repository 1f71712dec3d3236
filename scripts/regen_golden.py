#!/usr/bin/env python
"""Regenerate the golden-regression fixtures under tests/golden/.

``makespans.json`` pins the static suite x scheduler grid's makespans;
``runtime_records.json`` pins the full records of the runtime-mode grid
(dynamic and adaptive HDWS, without and with device failures).

Run after an *intentional* change to scheduler numerics::

    PYTHONPATH=src python scripts/regen_golden.py

then eyeball the diff before committing — every changed number is a
behaviour change somebody must be able to defend in review.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.runner.campaign import (  # noqa: E402
    GOLDEN_DEVICE_MTBF,
    GOLDEN_NOISE_CV,
    GOLDEN_RUNTIME_MODES,
    GOLDEN_SCHEDULERS,
    GOLDEN_SEED,
    GOLDEN_SIZE,
    golden_jobs,
    golden_makespans,
    golden_runtime_jobs,
    golden_runtime_records,
)
from repro.staticcheck import precheck_job  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "golden")


def _write(name: str, doc: dict) -> str:
    path = os.path.normpath(os.path.join(GOLDEN_DIR, name))
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def main() -> int:
    # Never pin numbers from a statically unsound cell: model-check and
    # schedule-audit every cell before regenerating anything.
    jobs = golden_jobs() + golden_runtime_jobs()
    unsound = 0
    for job in jobs:
        report = precheck_job(job)
        if not report.ok:
            unsound += 1
            print(f"UNSOUND {job.label}:", file=sys.stderr)
            print(report.render(), file=sys.stderr)
    if unsound:
        print(
            f"refusing to regenerate: {unsound}/{len(jobs)} golden cells "
            f"failed the static check",
            file=sys.stderr,
        )
        return 1
    print(f"static check: {len(jobs)}/{len(jobs)} golden cells sound")

    doc = {
        "_comment": (
            "Pinned makespans of the golden suite x scheduler grid; "
            "regenerate with scripts/regen_golden.py after intentional "
            "numeric changes."
        ),
        "size": GOLDEN_SIZE,
        "seed": GOLDEN_SEED,
        "noise_cv": GOLDEN_NOISE_CV,
        "schedulers": list(GOLDEN_SCHEDULERS),
        "makespans": golden_makespans(),
    }
    path = _write("makespans.json", doc)
    n = sum(len(v) for v in doc["makespans"].values())
    print(f"wrote {n} golden makespans to {path}")

    runtime = {
        "_comment": (
            "Pinned records of the runtime-mode golden grid; regenerate "
            "with scripts/regen_golden.py after intentional numeric changes."
        ),
        "size": GOLDEN_SIZE,
        "seed": GOLDEN_SEED,
        "noise_cv": GOLDEN_NOISE_CV,
        "device_mtbf": GOLDEN_DEVICE_MTBF,
        "modes": GOLDEN_RUNTIME_MODES,
        "records": golden_runtime_records(),
    }
    path = _write("runtime_records.json", runtime)
    print(f"wrote {len(runtime['records'])} golden runtime records to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
