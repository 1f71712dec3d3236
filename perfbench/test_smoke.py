"""Tiny-size smoke test of the benchmark harness.

Runs every workload untraced and traced at smoke-test sizes and asserts
that each metric ``BENCHMARK.json`` names is emitted with its unit and a
sample count, that the outputs checked out, and that nothing failed::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import DEADLINE_S  # noqa: E402  (run.py does nothing at import)

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "3", "--trace", str(trace), "--tiny"],
        # Well past run.py's own deadline, so its clean-up runs first.
        cwd=ROOT, capture_output=True, text=True, timeout=DEADLINE_S + 60,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1]), done.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload: str, trace: int) -> None:
    info, result, report = _run(workload, trace)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], float), metric["name"]
        assert isinstance(info["samples"][metric["name"]], int), metric["name"]
        assert f"{metric['name']} " in report  # printed with its unit and n=
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
