#!/usr/bin/env python
"""Scale smoke: kill a streaming campaign mid-flight, resume, verify.

The checkpoint/resume contract of the campaign runner, exercised the
blunt way a cluster would: phase ``run`` executes a ``--cells`` campaign
of small random-DAG cells through a :class:`CampaignRunner` with an
on-disk shard-indexed cache, and ``--die-after K`` hard-exits the
process (``os._exit``, no cleanup, no atexit — morally a SIGKILL) once
K cells have been simulated.

The default driver phase runs the crash pass in a subprocess, then
*resumes* by re-running the identical campaign against the same cache
directory, and asserts:

* the resumed pass only simulates cells the crashed pass never
  finished — at most ``cells - die_after``, because the runner syncs
  each record before it hands the outcome on;
* every cell of the campaign completes, streamed through O(1)-memory
  aggregates, with peak RSS below ``--rss-limit-mb``;
* a schema-versioned JSON artifact records both passes for the CI log.

The driver then runs an **injected-failure pass** against a fresh cache:
``--inject-rate`` seeds deterministic transient faults (failed first
attempts that a retry clears) and ``--poison-cells`` marks cells that
fail permanently on every attempt.  The campaign runs unattended through
:meth:`CampaignRunner.run_batches` (health-gated feed-ahead admission)
and must finish with every surviving cell completed, exactly the poison
cells quarantined, gate decisions on the event log, and RSS still flat.
A resume of the same campaign must recall every verdict from the cache —
zero re-simulations, and quarantined cells recalled (not re-failed, not
double-counted in the checkpoint-window accounting).

Usage::

    python scripts/scale_smoke.py --cells 5000 --jobs 2 --out bench_out/scale_smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SCHEMA = "repro.scale-smoke/v2"
DIE_EXIT = 17
BATCH = 256


def _batches(cells: int, seed: int):
    """The campaign, batch by batch (shared documents within a batch)."""
    from repro.experiments.common import make_job
    from repro.platform import presets
    from repro.runner.specs import factory_spec
    from repro.workflows.generators import random_dag
    from repro.workflows.serialize import workflow_to_dict

    docs = [
        workflow_to_dict(random_dag(size=8, seed=seed + k)) for k in range(4)
    ]
    cluster = factory_spec(
        presets.hybrid_cluster, nodes=2, cores_per_node=2, gpus_per_node=1
    )
    n_batches = (cells + BATCH - 1) // BATCH
    for b in range(n_batches):
        start = b * BATCH
        count = min(BATCH, cells - start)
        yield [
            make_job(
                docs[b % len(docs)], cluster, scheduler="heft",
                seed=seed + start + i, noise_cv=0.05,
                label=f"smoke:b{b}:{i}",
            )
            for i in range(count)
        ]


def phase_run(args) -> int:
    """One streaming pass; optionally die mid-campaign."""
    from repro.analysis.stats import StreamingSummary
    from repro.runner.cache import ResultCache
    from repro.runner.pool import CampaignRunner

    cache = ResultCache(args.cache_dir)
    makespan = StreamingSummary()
    completed = 0
    t0 = time.perf_counter()
    with CampaignRunner(jobs=args.jobs, cache=cache) as runner:
        for jobs in _batches(args.cells, args.seed):
            for _i, record in runner.run_sims_iter(jobs):
                makespan.add(record.makespan)
                completed += 1
                if args.die_after and runner.simulated >= args.die_after:
                    # A crashed campaign does not sync, flush or close.
                    os._exit(DIE_EXIT)
        wall = time.perf_counter() - t0
        stats = {
            "cells": completed,
            "simulated": runner.simulated,
            "wall_s": wall,
            "cells_per_sec": completed / wall if wall > 0 else 0.0,
            "makespan_mean": makespan.result().mean,
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
        }
    print(json.dumps(stats, sort_keys=True))
    return 0


def phase_faults(args):
    """Injected-failure campaign + verdict-recall resume; returns checks.

    Runs against its own fresh cache directory so the crash/resume phase
    and the fault phase cannot contaminate each other's accounting.
    """
    from repro.runner.cache import ResultCache
    from repro.runner.pool import CampaignRunner

    cache_dir = os.path.join(args.work_dir, "smoke-cache-faults")
    shutil.rmtree(cache_dir, ignore_errors=True)
    poison = [f"smoke:b0:{i}" for i in range(args.poison_cells)]
    os.environ["REPRO_FAIL_INJECT"] = json.dumps({
        "rate": args.inject_rate, "seed": args.seed, "poison": poison,
    })
    try:
        completed = 0
        t0 = time.perf_counter()
        with CampaignRunner(
            jobs=args.jobs, cache=ResultCache(cache_dir),
            max_retries=2, failure_mode="record",
        ) as runner:
            for _b, _i, outcome in runner.run_batches(
                _batches(args.cells, args.seed), runway=2,
            ):
                completed += outcome.ok
            quarantined = sorted(f.label for f in runner.quarantine.values())
            retried = runner.retried
            simulated = runner.simulated
            gate_events = len(runner.health.events)
        wall = time.perf_counter() - t0

        # Resume the identical campaign: every verdict — success or
        # quarantine — must come back from the cache, with nothing
        # re-simulated and nothing re-quarantined (no double-counting).
        cache = ResultCache(cache_dir)
        with CampaignRunner(
            jobs=args.jobs, cache=cache, max_retries=2, failure_mode="record",
        ) as resumed:
            re_completed = sum(
                outcome.ok for _b, _i, outcome in resumed.run_batches(
                    _batches(args.cells, args.seed), runway=2,
                )
            )
            resumed_simulated = resumed.simulated
            resumed_failed = resumed.failed
            recalled = len(resumed.quarantine)
            failure_hits = cache.stats.failure_hits
    finally:
        os.environ.pop("REPRO_FAIL_INJECT", None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expect_retries = args.inject_rate > 0 and args.cells >= 200
    checks = {
        "faults: surviving cells completed":
            completed == args.cells - args.poison_cells,
        "faults: poison cells quarantined": quarantined == sorted(poison),
        "faults: transients retried": retried > 0 or not expect_retries,
        "faults: gate decisions emitted": gate_events > 0,
        "faults: resume recalled verdicts":
            resumed_simulated == 0 and re_completed == completed,
        "faults: quarantine not double-counted":
            resumed_failed == 0 and recalled == args.poison_cells
            and failure_hits == args.poison_cells,
        "faults: memory stayed flat": peak_rss_mb < args.rss_limit_mb,
    }
    artifact = {
        "inject_rate": args.inject_rate,
        "poison_cells": args.poison_cells,
        "completed": completed,
        "quarantined": quarantined,
        "simulated": simulated,
        "retry_dispatches": retried,
        "gate_events": gate_events,
        "wall_s": wall,
        "resumed_simulated": resumed_simulated,
        "resumed_failure_hits": failure_hits,
        "peak_rss_mb": peak_rss_mb,
    }
    return checks, artifact


def phase_drive(args) -> int:
    """Crash a campaign in a child process, resume it here, assert."""
    cache_dir = args.cache_dir or os.path.join(args.work_dir, "smoke-cache")
    # Cold start: a cache left by a previous smoke run would satisfy
    # every cell before --die-after ever fires.
    shutil.rmtree(cache_dir, ignore_errors=True)
    die_after = max(1, int(args.cells * 0.6))

    crash = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__),
            "--phase", "run",
            "--cells", str(args.cells),
            "--jobs", str(args.jobs),
            "--seed", str(args.seed),
            "--cache-dir", cache_dir,
            "--die-after", str(die_after),
        ],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    print(f"crash pass: exit {crash.returncode} "
          f"(expected {DIE_EXIT} after {die_after} cells)")
    if crash.returncode != DIE_EXIT:
        print(crash.stdout)
        print(crash.stderr, file=sys.stderr)
        print("FAIL: crash pass did not die where instructed")
        return 1

    # Resume: identical campaign, same cache directory, this process.
    from repro.analysis.stats import StreamingSummary
    from repro.runner.cache import ResultCache
    from repro.runner.pool import CampaignRunner

    cache = ResultCache(cache_dir)
    makespan = StreamingSummary()
    completed = 0
    t0 = time.perf_counter()
    with CampaignRunner(jobs=args.jobs, cache=cache) as runner:
        for jobs in _batches(args.cells, args.seed):
            for _i, record in runner.run_sims_ordered(jobs):
                makespan.add(record.makespan)
                completed += 1
        resumed_simulated = runner.simulated
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Every cell the crash pass simulated was synced before it was
    # counted; the resume may re-simulate only the remainder.
    max_resim = args.cells - die_after
    checks = {
        "resumed from checkpoint": resumed_simulated <= max_resim,
        "every cell completed": completed == args.cells,
        "memory stayed flat": peak_rss_mb < args.rss_limit_mb,
    }
    fault_checks, fault_artifact = phase_faults(args)
    checks.update(fault_checks)
    artifact = {
        "faults": fault_artifact,
        "schema": SCHEMA,
        "cells": args.cells,
        "jobs": args.jobs,
        "die_after": die_after,
        "crash_exit": crash.returncode,
        "resumed_simulated": resumed_simulated,
        "max_resimulated_allowed": max_resim,
        "completed": completed,
        "wall_s": wall,
        "cells_per_sec": completed / wall if wall > 0 else 0.0,
        "makespan_mean": makespan.result().mean,
        "peak_rss_mb": peak_rss_mb,
        "rss_limit_mb": args.rss_limit_mb,
        "passed": all(checks.values()),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")

    for name, ok in sorted(checks.items()):
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    print(f"resumed pass simulated {resumed_simulated}/{args.cells} cells "
          f"(<= {max_resim} allowed), peak RSS {peak_rss_mb:.1f} MB, "
          f"artifact -> {out}")
    return 0 if artifact["passed"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--phase", choices=("drive", "run", "faults"),
                    default="drive")
    ap.add_argument("--cells", type=int, default=5000)
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--work-dir", default="bench_out")
    ap.add_argument("--die-after", type=int, default=0,
                    help="(phase run) hard-exit after this many simulations")
    ap.add_argument("--inject-rate", type=float, default=0.05,
                    help="deterministic transient-failure rate for the "
                         "injected-failure phase")
    ap.add_argument("--poison-cells", type=int, default=3,
                    help="cells that fail permanently on every attempt")
    ap.add_argument("--rss-limit-mb", type=float, default=1536.0)
    ap.add_argument("--out", default="bench_out/scale_smoke.json")
    args = ap.parse_args(argv)
    if args.phase == "run":
        if not args.cache_dir:
            ap.error("--phase run requires --cache-dir")
        return phase_run(args)
    if args.phase == "faults":
        checks, artifact = phase_faults(args)
        for name, ok in sorted(checks.items()):
            print(f"{'ok  ' if ok else 'FAIL'} {name}")
        print(json.dumps(artifact, indent=2, sort_keys=True))
        return 0 if all(checks.values()) else 1
    return phase_drive(args)


if __name__ == "__main__":
    raise SystemExit(main())
