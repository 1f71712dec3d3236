"""X4 (extension) — streaming campaign scale and endurance.

Drives the streaming million-cell path end to end: cells are described
batch by batch, dispatched through the persistent worker pool, and the
records stream back in submission order into O(1)-memory Welford
aggregates (:class:`~repro.analysis.stats.StreamingSummary`) — the
campaign never exists as an in-memory list of records, so peak memory
is flat in the cell count.

Sizing: ``quick`` runs 512 cells (CI-friendly); the full run takes its
cell count from ``REPRO_SCALE_CELLS`` (default 100 000).  Because every
cell goes through the content-addressed cache, a killed run resumes by
simply re-running with the same cache directory: completed cells warm-
start and only the remainder simulates (see ``scripts/scale_smoke.py``).

Expected shape: aggregate makespan statistics are independent of the
``jobs`` setting and of cold/warm cache state (the determinism
contract), and throughput in cells/sec is the headline number the bench
gate tracks.
"""

from __future__ import annotations

import os
import resource
import time
from typing import Dict, Optional

from repro.analysis.stats import StreamingGeomean, StreamingSummary
from repro.experiments.common import ExperimentResult, make_job, stream_sims
from repro.platform import presets
from repro.runner.context import get_runner
from repro.runner.specs import factory_spec
from repro.workflows.generators import random_dag
from repro.workflows.serialize import workflow_to_dict

#: Distinct workflow documents cycled across batches — enough variety to
#: exercise the worker-side document memo, few enough that building them
#: is not the bottleneck at scale.
N_DOCS = 4

#: Default cell count of the full (non-quick) run.
FULL_CELLS_DEFAULT = 100_000


def _target_cells(quick: bool, cells: Optional[int]) -> int:
    if cells is not None:
        return max(1, int(cells))
    if quick:
        return 512
    return max(1, int(os.environ.get("REPRO_SCALE_CELLS", "")
                      or FULL_CELLS_DEFAULT))


def run(
    quick: bool = True,
    seed: int = 0,
    noise_cv: float = 0.05,
    cells: Optional[int] = None,
) -> ExperimentResult:
    """Run the X4 streaming scale campaign; throughput + aggregate stats."""
    n_cells = _target_cells(quick, cells)
    per_batch = 128 if quick else 1024

    docs = [
        workflow_to_dict(random_dag(size=8, seed=seed + k))
        for k in range(N_DOCS)
    ]
    cluster = factory_spec(
        presets.hybrid_cluster, nodes=2, cores_per_node=2, gpus_per_node=1
    )

    makespan = StreamingSummary()
    energy = StreamingSummary()
    geomean = StreamingGeomean()
    successes = 0

    runner = get_runner()
    simulated_before = runner.simulated
    n_batches = (n_cells + per_batch - 1) // per_batch
    #: Sampled running mean per batch — bounded at ~64 points however
    #: large the campaign grows.
    sample_every = max(1, n_batches // 64)
    running: Dict[float, float] = {}

    t0 = time.perf_counter()
    for b in range(n_batches):
        start = b * per_batch
        count = min(per_batch, n_cells - start)
        doc = docs[b % N_DOCS]
        jobs = [
            make_job(
                doc, cluster, scheduler="heft",
                seed=seed + start + i, noise_cv=noise_cv,
                label=f"x4:b{b}:{i}",
            )
            for i in range(count)
        ]
        for _i, record in stream_sims(jobs):
            makespan.add(record.makespan)
            energy.add(record.energy_j)
            geomean.add(record.makespan)
            successes += int(record.success)
        if b % sample_every == 0:
            running[float(b)] = makespan.mean
    wall = time.perf_counter() - t0

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return ExperimentResult(
        experiment="X4 streaming campaign scale",
        series={"running mean makespan (s)": running},
        notes={
            "cells": n_cells,
            "batches": n_batches,
            "simulated": runner.simulated - simulated_before,
            "cells_per_sec": n_cells / wall if wall > 0 else 0.0,
            "wall_s": wall,
            "peak_rss_mb": peak_rss_mb,
            "success_rate": successes / n_cells,
            "makespan": makespan.result().as_dict(),
            "makespan_geomean": geomean.result(),
            "energy_j_mean": energy.result().mean,
        },
    )
