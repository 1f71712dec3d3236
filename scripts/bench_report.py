#!/usr/bin/env python
"""Benchmark trajectory report: emit (and check) ``BENCH_<sha>.json``.

Runs the pinned golden grid (5 suites x 8 schedulers, the same cells the
golden-regression tests pin) through the campaign runner and distills the
run into a small, schema-versioned set of tracked series:

* ``makespan.geomean.<scheduler>`` — geometric-mean makespan of each
  scheduler over the five golden suites.  Deterministic: any drift is a
  behaviour change, not noise.
* ``sim.events_total``              — simulation events fired across the
  grid (deterministic).
* ``sim.events_per_sec``            — events divided by runner wall time
  (machine-dependent; normalized by the calibration probe when checked).
* ``runner.wall_s``                 — wall-clock of the grid run
  (machine-dependent, informational).
* ``runner.cells_per_sec``          — cold streaming-campaign throughput:
  512 cells over the persistent pool into a fresh cache (normalized by
  the calibration probe when checked; smaller = worse).
* ``runner.warm_cells_per_sec``     — the same campaign fully memoized:
  key computation + shard-index lookups only (normalized; smaller =
  worse).
* ``runner.peak_rss_mb``            — peak resident set of the report
  process (larger = worse; never calibration-normalized — memory does
  not scale with host speed).
* ``runner.retry_overhead_pct``     — percent wall overhead of a campaign
  with 5% injected transient failures retried to success over the same
  campaign clean (larger = worse; gated with an absolute slack because
  percent series hover near zero).
* ``sanitizer.overhead_pct``        — wall-time overhead of running one
  fixed cell with the simulation sanitizer attached (informational).
* ``calibration.probe_s``           — wall time of a fixed pure-Python
  workload; used to normalize machine speed when comparing wall-based
  series across hosts.

With ``--baseline`` the report is additionally *checked* against a prior
report, and any gated series that regresses by more than ``--tolerance``
(default 0.10, i.e. 10%) fails the run with exit code 1.  The gated
series:

* every ``makespan.geomean.*`` (larger = worse);
* ``sim.events_per_sec``, ``runner.cells_per_sec`` and
  ``runner.warm_cells_per_sec``, calibration-normalized (smaller =
  worse);
* ``runner.peak_rss_mb`` (larger = worse);
* ``runner.retry_overhead_pct`` (larger = worse, with 5 percentage
  points of absolute slack).

The other series (``sim.events_total``, ``runner.wall_s``,
``sanitizer.overhead_pct``, ``calibration.probe_s``) are trajectory
data for humans and never gate.

Usage::

    python scripts/bench_report.py --out-dir bench_out --jobs 4
    python scripts/bench_report.py --baseline benchmarks/bench_baseline.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SCHEMA = "repro.bench/v1"

#: Series that gate under --baseline (beyond the makespan.geomean.* set).
#: Calibration-normalized throughput: smaller = worse.
GATED_WALL_SERIES = (
    "sim.events_per_sec",
    "runner.cells_per_sec",
    "runner.warm_cells_per_sec",
)

#: Gated absolute series where larger = worse (never normalized).
GATED_LARGER_WORSE_SERIES = ("runner.peak_rss_mb", "runner.retry_overhead_pct")

#: Absolute slack (in the series' own unit, i.e. percentage points) for
#: gated ``*_pct`` series: relative tolerance alone would gate on noise
#: when the reference hovers near zero.
PCT_SERIES_SLACK = 5.0


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except Exception:
        return "unknown"


def calibration_probe() -> float:
    """Wall seconds for a fixed pure-Python workload (min of 3)."""
    def once() -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(400_000):
            acc += math.sqrt(i + 1.5) * 1.0000001
        assert acc > 0
        return time.perf_counter() - t0

    return min(once() for _ in range(3))


def sanitizer_overhead_pct() -> float:
    """Percent wall overhead of the sanitizer on one fixed cell (min of 3)."""
    from repro.core.api import run_workflow
    from repro.platform import presets
    from repro.workflows.generators import montage

    def once(sanitize: bool) -> float:
        wf = montage(size=120, seed=11)
        cluster = presets.hybrid_cluster(nodes=2, cores_per_node=4)
        t0 = time.perf_counter()
        run_workflow(
            wf, cluster, scheduler="heft", seed=11,
            noise_cv=0.1, sanitize=sanitize,
        )
        return time.perf_counter() - t0

    base = min(once(False) for _ in range(3))
    sane = min(once(True) for _ in range(3))
    return 100.0 * (sane - base) / base if base > 0 else 0.0


def run_grid(jobs: int) -> Dict[str, float]:
    """Run the golden grid; return the tracked series."""
    from repro.runner.campaign import GOLDEN_SCHEDULERS, golden_jobs
    from repro.runner.pool import CampaignRunner

    cells = golden_jobs()
    runner = CampaignRunner(jobs=jobs)
    # Min of 3 passes, like the calibration probe: a single cold pass
    # mixes scheduler/allocator noise into the recorded trajectory.
    wall = float("inf")
    records = None
    for _ in range(3):
        t0 = time.perf_counter()
        out = runner.run_sims(cells)
        wall = min(wall, time.perf_counter() - t0)
        if records is None:
            records = out

    by_sched: Dict[str, list] = {s: [] for s in GOLDEN_SCHEDULERS}
    events = 0.0
    for job, rec in zip(cells, records):
        sched = job.label.rsplit(":", 1)[-1]
        by_sched[sched].append(rec.makespan)
        events += rec.events

    series: Dict[str, float] = {}
    for sched, spans in sorted(by_sched.items()):
        series[f"makespan.geomean.{sched}"] = math.exp(
            sum(math.log(m) for m in spans) / len(spans)
        )
    series["sim.events_total"] = events
    series["sim.events_per_sec"] = events / wall if wall > 0 else 0.0
    series["runner.wall_s"] = wall
    return series


def runner_throughput(jobs: int) -> Dict[str, float]:
    """Cold/warm streaming-campaign throughput plus peak resident set.

    Replays a 16-batch x 32-cell campaign (one shared workflow document,
    seeds varying) through a fresh :class:`CampaignRunner` with a
    temporary shard-indexed cache: the cold pass pays pool spawn, cell
    simulation and cache writes; the warm passes (min of 3) exercise
    only key computation and batched index lookups.
    """
    import resource
    import tempfile

    from repro.experiments.common import make_job
    from repro.platform import presets
    from repro.runner.cache import ResultCache
    from repro.runner.pool import CampaignRunner
    from repro.runner.specs import factory_spec
    from repro.workflows.generators import random_dag
    from repro.workflows.serialize import workflow_to_dict

    doc = workflow_to_dict(random_dag(size=8, seed=3))
    cluster = factory_spec(
        presets.hybrid_cluster, nodes=2, cores_per_node=2, gpus_per_node=1
    )
    batches = [
        [
            make_job(doc, cluster, scheduler="heft", seed=b * 32 + i,
                     noise_cv=0.05, label=f"bench:b{b}:{i}")
            for i in range(32)
        ]
        for b in range(16)
    ]
    n_cells = sum(len(batch) for batch in batches)

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(os.path.join(tmp, "cache"))
        with CampaignRunner(jobs=jobs, cache=cache) as runner:
            t0 = time.perf_counter()
            for batch in batches:
                runner.run_sims(batch)
            cold_wall = time.perf_counter() - t0
            warm_wall = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                for batch in batches:
                    runner.run_sims(batch)
                warm_wall = min(warm_wall, time.perf_counter() - t0)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "runner.cells_per_sec": n_cells / cold_wall if cold_wall > 0 else 0.0,
        "runner.warm_cells_per_sec": (
            n_cells / warm_wall if warm_wall > 0 else 0.0
        ),
        "runner.peak_rss_mb": peak_rss_mb,
    }


def retry_overhead_pct(jobs: int) -> float:
    """Percent wall overhead of the fault-tolerant retry path.

    Runs one 256-cell campaign through fresh uncached runners (so both
    passes simulate every cell): a clean pass, then a pass with 5%
    deterministically injected transient failures retried to success
    under ``max_retries=2`` (min of 3 each).  The delta prices failure
    capture plus the retry rounds, not the failures themselves — every
    injected fault clears on its retry.
    """
    from repro.experiments.common import make_job
    from repro.platform import presets
    from repro.runner.pool import CampaignRunner
    from repro.runner.specs import factory_spec
    from repro.workflows.generators import random_dag
    from repro.workflows.serialize import workflow_to_dict

    doc = workflow_to_dict(random_dag(size=8, seed=5))
    cluster = factory_spec(
        presets.hybrid_cluster, nodes=2, cores_per_node=2, gpus_per_node=1
    )
    cells = [
        make_job(doc, cluster, scheduler="heft", seed=i, noise_cv=0.05,
                 label=f"retrybench:{i}")
        for i in range(256)
    ]

    def pass_wall(runner) -> float:
        t0 = time.perf_counter()
        for _ in runner.run_sims_iter(cells):
            pass
        return time.perf_counter() - t0

    with CampaignRunner(jobs=jobs) as runner:
        clean = min(pass_wall(runner) for _ in range(3))
    os.environ["REPRO_FAIL_INJECT"] = json.dumps({"rate": 0.05, "seed": 9})
    try:
        with CampaignRunner(
            jobs=jobs, max_retries=2, failure_mode="record"
        ) as runner:
            injected = min(pass_wall(runner) for _ in range(3))
    finally:
        os.environ.pop("REPRO_FAIL_INJECT", None)
    return 100.0 * (injected - clean) / clean if clean > 0 else 0.0


def build_report(jobs: int) -> Dict[str, object]:
    series = run_grid(jobs)
    series.update(runner_throughput(jobs))
    series["runner.retry_overhead_pct"] = retry_overhead_pct(jobs)
    series["sanitizer.overhead_pct"] = sanitizer_overhead_pct()
    series["calibration.probe_s"] = calibration_probe()
    return {
        "schema": SCHEMA,
        "git_sha": _git_sha(),
        "jobs": jobs,
        "series": {k: series[k] for k in sorted(series)},
    }


def check_against(report: Dict[str, object], baseline: Dict[str, object],
                  tolerance: float) -> int:
    """Compare gated series; print verdicts; return the regression count."""
    cur: Dict[str, float] = report["series"]  # type: ignore[assignment]
    base: Dict[str, float] = baseline["series"]  # type: ignore[assignment]
    if baseline.get("schema") != SCHEMA:
        print(f"FAIL: baseline schema {baseline.get('schema')!r} != {SCHEMA!r}")
        return 1

    # Wall-based series are machine-dependent: scale the baseline by the
    # calibration ratio so a slower host doesn't read as a regression.
    cal_cur = cur.get("calibration.probe_s", 0.0)
    cal_base = base.get("calibration.probe_s", 0.0)
    speed = cal_base / cal_cur if cal_cur > 0 and cal_base > 0 else 1.0

    failures = 0
    for name in sorted(base):
        if name not in cur:
            print(f"FAIL: series {name!r} missing from current report")
            failures += 1
            continue
        gated = name.startswith("makespan.geomean.")
        normalized = name in GATED_WALL_SERIES
        larger_worse = name in GATED_LARGER_WORSE_SERIES
        if not (gated or normalized or larger_worse):
            continue  # informational series never gate
        ref = base[name] * (speed if normalized else 1.0)
        val = cur[name]
        if gated or larger_worse:
            # Makespans and memory: worse = larger.  Percent-overhead
            # series additionally get an absolute slack, since their
            # reference can sit near zero.
            limit = ref * (1.0 + tolerance)
            if name.endswith("_pct"):
                limit = max(limit, ref + PCT_SERIES_SLACK)
            regressed = val > limit
        else:
            # Throughput: worse = smaller.
            regressed = val < ref * (1.0 - tolerance)
        verdict = "FAIL" if regressed else "ok"
        print(f"{verdict:4s} {name:28s} current={val:12.4f} ref={ref:12.4f}")
        failures += int(regressed)
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="bench_out",
                    help="directory for BENCH_<sha>.json (default bench_out)")
    ap.add_argument("--jobs", type=int, default=max(os.cpu_count() or 1, 1),
                    help="campaign-runner worker processes")
    ap.add_argument("--baseline", default=None,
                    help="prior BENCH_*.json to check the new report against")
    ap.add_argument("--tolerance", type=float,
                    default=float(os.environ.get("REPRO_BENCH_TOLERANCE", 0.10)),
                    help="allowed fractional regression (default 0.10)")
    args = ap.parse_args(argv)

    report = build_report(args.jobs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"BENCH_{report['git_sha']}.json"
    out_path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {out_path} ({len(report['series'])} series)")

    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        failures = check_against(report, baseline, args.tolerance)
        if failures:
            print(f"bench check: {failures} regression(s) beyond "
                  f"{args.tolerance:.0%} tolerance")
            return 1
        print("bench check: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
