"""``sweep``: cold same-shape batches through the campaign runner.

A closed loop submits one 55-cell batch at a time to a ``jobs=1``
``CampaignRunner`` on a fresh ``ResultCache`` and waits for its records
before building the next.  Every cell simulates: this is the cost of
reproducing the paper's tables.  The traced run adds a ``jobs=2``
pooled phase for the pool layer.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import breakdown
from common import (
    Outcome, Settings, digest_of, inline_records, is_good, median,
    percentile, pinned_digest, record_text, tree_peak_rss_mb,
)
from inputs import SweepInputs
from tracer import Phase, install_cell_layers, install_pool_layers, install_runner_layers

#: Batches whose records are compared with a ``jobs=1`` inline run.
CHECKED_BATCHES = 2
#: The timed cells run in this one process.  The two vCPUs act as two
#: cores at some times and as one at others, so a ``jobs=2`` pool's
#: throughput flipped between ~85 and ~150 cells/s within minutes (a
#: spread of 0.5 over 40 s windows) where one process read 0.19.
JOBS = 1
#: Workers of the traced run's pooled phase, one per vCPU.
POOL_JOBS = 2


@dataclass
class State:
    inputs: SweepInputs
    runner: object
    next_batch: int = 0
    #: Record texts of the checked batches, in submission order.
    kept: List[str] = field(default_factory=list)


def setup(settings: Settings) -> State:
    from repro.runner import CampaignRunner, ResultCache

    inputs = SweepInputs(settings.seed, settings.sizes)
    runner = CampaignRunner(
        jobs=JOBS, cache=ResultCache(os.path.join(settings.work_dir, "cache")),
        failure_mode="record",
    )
    runner.run_sims(SweepInputs.warmup_cells())  # the simulation path imported
    return State(inputs, runner)


def teardown(state: State) -> None:
    state.runner.close()


def _streamed(runner, jobs) -> Tuple[list, List[float]]:
    """Records in submission order, and the time before each arrived.

    ``run_sims_ordered`` is the stream ``run_sims`` collects; with one
    process each gap is one cell's simulation and bookkeeping.
    """
    records, gaps = [], []
    last = time.perf_counter()
    for _index, record in runner.run_sims_ordered(jobs):
        now = time.perf_counter()
        gaps.append(now - last)
        last = now
        records.append(record)
    return records, gaps


def _batch(state: State, runner, outcome: Outcome,
           phase: Optional[Phase] = None, installers: tuple = ()) -> tuple:
    """Run the next batch; its wall time, cell count and per-cell gaps.

    Untraced, the records are streamed and timed one by one.  With a
    phase, the batch is one ``run_sims`` call as a root span with the
    given layer wrappers installed (no gaps); records are checked after
    they are removed.
    """
    index = state.next_batch
    state.next_batch += 1
    jobs = state.inputs.batch(index)
    gaps: List[float] = []
    if phase is None:
        t0 = time.perf_counter()
        records, gaps = _streamed(runner, jobs)
        wall = time.perf_counter() - t0
    else:
        with phase.installed(*installers):
            wall, records = phase.unit("unit", lambda: runner.run_sims(jobs))
    dicts = [r.to_dict() for r in records]
    if index < CHECKED_BATCHES:
        state.kept.extend(record_text(d) for d in dicts)
    outcome.attempted += len(jobs)
    outcome.failed += sum(1 for d in dicts if not is_good(d))
    return wall, len(jobs), gaps


def _check(settings: Settings, state: State, outcome: Outcome) -> None:
    """Pooled records are byte-identical to a ``jobs=1`` inline run."""
    jobs = [job for b in range(CHECKED_BATCHES) for job in state.inputs.batch(b)]
    outcome.check(len(state.kept) == len(jobs), "fewer than the checked batches ran")
    reference = inline_records(jobs)
    outcome.check(state.kept == reference, "pooled records differ from inline jobs=1")
    pinned = pinned_digest("sweep", settings.seed, settings.sizes)
    if pinned is not None:
        outcome.check(digest_of(reference) == pinned, "records differ from the pinned digest")
    outcome.info["pinned_digest"] = pinned is not None


def measure(settings: Settings, state: State, outcome: Outcome) -> None:
    runner = state.runner
    simulated_before = runner.simulated
    walls: List[float] = []
    gaps: List[float] = []
    deadline = time.perf_counter() + settings.seconds
    while time.perf_counter() < deadline or len(walls) < CHECKED_BATCHES:
        wall, _cells, cell_gaps = _batch(state, runner, outcome)
        walls.append(wall)
        gaps.extend(cell_gaps)
    rss, procs = tree_peak_rss_mb()
    outcome.check(runner.simulated - simulated_before == outcome.attempted,
                  "a sweep cell was not simulated")
    outcome.check(runner.cache.stats.hits == 0, "a cold sweep cell hit the cache")
    _check(settings, state, outcome)

    outcome.put("cells_per_s", outcome.attempted / sum(walls), "cells/s", outcome.attempted,
                f"cells simulated / time in the runner ({len(walls)} batches)")
    # Per cell, not per batch: the host holds one of two speeds for
    # ten seconds or more, so same-shape batch times split into two
    # modes and their median jumped between them from run to run; cell
    # costs vary enough among themselves to blur the two modes.
    outcome.put("p50_ms", median(gaps) * 1e3, "ms", len(gaps), "cell latency")
    outcome.put("tail_ms", percentile(gaps, 99) * 1e3, "ms", len(gaps), "cell latency p99")
    outcome.put("peak_rss_mb", rss, "MB", procs, "processes summed")


def measure_traced(settings: Settings, state: State, outcome: Outcome) -> None:
    """Pooled batches for the pool layer, then inline untraced/traced pairs.

    Pool workers are not instrumented: the first third of the window
    runs batches through a ``jobs=2`` pool for the parent side of the
    pooled run, and the rest executes the same batch shape in this
    process so every simulation layer is visible.  The inline phase
    leaves ``run_sims`` unwrapped, so the runner's own bookkeeping there
    is unattributed time, not a layer.  Alternating untraced and traced
    inline batches gives the tracing overhead from neighbouring batches.
    """
    from repro.runner import CampaignRunner, ResultCache

    start = time.perf_counter()
    pooled = Phase()
    pool_cells = 0
    with CampaignRunner(
        jobs=POOL_JOBS, cache=ResultCache(os.path.join(settings.work_dir, "pool-cache")),
        failure_mode="record",
    ) as pool_runner:
        t0 = time.perf_counter()
        pool_runner.run_sims(SweepInputs.warmup_cells())  # spawned and answering
        ready_s = time.perf_counter() - t0
        while time.perf_counter() < start + settings.seconds / 3 or pool_cells == 0:
            pool_cells += _batch(state, pool_runner, outcome, pooled,
                                 (install_pool_layers, install_runner_layers))[1]

    traced = Phase()
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    traced_cells = 0
    while time.perf_counter() < start + settings.seconds or not traced_walls:
        plain_walls.append(_batch(state, state.runner, outcome)[0])
        wall, cells, _gaps = _batch(state, state.runner, outcome, traced,
                                    (install_runner_layers, install_cell_layers))
        traced_walls.append(wall)
        traced_cells += cells
    _check(settings, state, outcome)

    tracer = traced.tracer
    breakdown.cell_layers(outcome, tracer, traced_cells)
    breakdown.runner_layers(outcome, tracer, traced_cells, len(traced_walls))
    breakdown.pool_layers(outcome, pooled.tracer, pool_cells, ready_s=ready_s)
    breakdown.coverage(outcome, tracer, sum(traced_walls))
    breakdown.overhead(outcome, plain_walls, traced_walls)
