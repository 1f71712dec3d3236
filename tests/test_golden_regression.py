"""Golden-regression gate: pinned makespans of the suite×scheduler grid.

The fixture (``tests/golden/makespans.json``) pins the makespan of every
mainstream scheduler on every scientific suite at a small fixed size and
seed.  Any numeric drift in the scheduler stack — cost model, EFT loop,
tie-breaks, RNG plumbing — trips this test with a readable per-cell diff.

A second fixture (``tests/golden/runtime_records.json``) pins the full
record of every runtime-mode cell: dynamic HDWS with locality on and off
and adaptive HDWS on every suite, each without and with permanent device
failures that lose local data.  Those cells decide during the run, in
the policies and the executor, so it pins what the static grid cannot.

If a change is *intentional*, regenerate with::

    PYTHONPATH=src python scripts/regen_golden.py

and justify the diff in review.
"""

from __future__ import annotations

import json
import math
import os

from repro.runner.campaign import (
    GOLDEN_DEVICE_MTBF,
    GOLDEN_NOISE_CV,
    GOLDEN_RUNTIME_MODES,
    GOLDEN_SCHEDULERS,
    GOLDEN_SEED,
    GOLDEN_SIZE,
    golden_makespans,
    golden_runtime_records,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "makespans.json")
RUNTIME_FIXTURE = os.path.join(
    os.path.dirname(__file__), "golden", "runtime_records.json"
)

#: Relative tolerance: generous enough for cross-platform libm wiggle in
#: the simulation layer, tight enough that any algorithmic change trips.
REL_TOL = 1e-9


def _load_fixture(path=FIXTURE):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_matches_pinned_grid_constants():
    """The fixture was generated for the grid this repo currently pins."""
    doc = _load_fixture()
    assert doc["size"] == GOLDEN_SIZE
    assert doc["seed"] == GOLDEN_SEED
    assert doc["noise_cv"] == GOLDEN_NOISE_CV
    assert doc["schedulers"] == list(GOLDEN_SCHEDULERS)


def test_makespans_match_golden_fixture():
    """Every (suite, scheduler) makespan matches its pinned value."""
    expected = _load_fixture()["makespans"]
    actual = golden_makespans()

    assert sorted(actual) == sorted(expected), (
        f"suite set drifted: fixture has {sorted(expected)}, "
        f"run produced {sorted(actual)}"
    )

    diffs = []
    for suite in sorted(expected):
        assert sorted(actual[suite]) == sorted(expected[suite])
        for sched in GOLDEN_SCHEDULERS:
            want = expected[suite][sched]
            got = actual[suite][sched]
            if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
                rel = abs(got - want) / max(abs(want), 1e-300)
                diffs.append(
                    f"  {suite:12s} {sched:8s} "
                    f"expected {want:.9f}  got {got:.9f}  (rel {rel:.2e})"
                )
    assert not diffs, (
        "golden makespans drifted ({} of {} cells):\n{}\n"
        "if intentional: PYTHONPATH=src python scripts/regen_golden.py".format(
            len(diffs),
            sum(len(v) for v in expected.values()),
            "\n".join(diffs),
        )
    )


def test_runtime_fixture_matches_pinned_grid_constants():
    """The runtime fixture was generated for the grid pinned now."""
    doc = _load_fixture(RUNTIME_FIXTURE)
    assert doc["size"] == GOLDEN_SIZE
    assert doc["seed"] == GOLDEN_SEED
    assert doc["noise_cv"] == GOLDEN_NOISE_CV
    assert doc["device_mtbf"] == GOLDEN_DEVICE_MTBF
    assert doc["modes"] == GOLDEN_RUNTIME_MODES


def test_runtime_records_match_golden_fixture():
    """Every runtime-mode cell's full record matches its pinned one."""
    expected = _load_fixture(RUNTIME_FIXTURE)["records"]
    actual = golden_runtime_records()
    assert sorted(actual) == sorted(expected)

    diffs = []
    for label in sorted(expected):
        want, got = expected[label], actual[label]
        assert sorted(got) == sorted(want), f"{label}: record fields drifted"
        for name in sorted(want):
            a, b = want[name], got[name]
            same = (
                math.isclose(b, a, rel_tol=REL_TOL, abs_tol=0.0)
                if isinstance(a, float) else a == b
            )
            if not same:
                diffs.append(f"  {label:40s} {name:12s} expected {a!r}  got {b!r}")
    assert not diffs, (
        "golden runtime records drifted ({} fields):\n{}\n"
        "if intentional: PYTHONPATH=src python scripts/regen_golden.py".format(
            len(diffs), "\n".join(diffs)
        )
    )
