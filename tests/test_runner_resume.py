"""Checkpoint/resume: a failed campaign continues where it stopped."""

from __future__ import annotations

import pytest

from repro.experiments.common import make_job, preset_spec
from repro.runner import CampaignRunner, ResultCache
from repro.workflows.generators import montage

CLUSTER = preset_spec("hybrid", nodes=2, cores_per_node=2, gpus_per_node=1)


def _jobs(n=6, seed=5):
    wf = montage(size=12, seed=seed)
    return [
        make_job(wf, CLUSTER, scheduler="heft", seed=seed + i, noise_cv=0.1,
                 label=f"resume:{i}")
        for i in range(n)
    ]


def _failing_job(seed=5):
    """A cell that raises inside the worker (unknown RunConfig field)."""
    return make_job(
        montage(size=12, seed=seed), CLUSTER, scheduler="heft",
        seed=seed, bogus_config_field=1, label="resume:injected-failure",
    )


def test_resume_after_injected_failure_only_resimulates_incomplete(tmp_path):
    """Cells completed before a mid-campaign failure never re-simulate.

    A batch with a failing cell injected at index 3 crashes the run;
    cells 0-2 completed first (serial dispatch is submission-ordered)
    and the error-path sync checkpointed them.  The rerun with the
    repaired batch re-simulates exactly the cells the crashed run never
    finished, and the assembled records are identical to a clean
    never-crashed campaign.
    """
    jobs = _jobs()
    broken = list(jobs)
    broken[3] = _failing_job()

    crashed = CampaignRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    with pytest.raises(RuntimeError, match="injected-failure"):
        crashed.run_sims(broken)
    assert crashed.simulated == 3  # cells 0..2 finished before the crash

    resumed = CampaignRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    records = resumed.run_sims(jobs)
    assert resumed.simulated == 3  # only cells 3..5 re-simulate
    assert resumed.cache.stats.hits == 3

    clean = CampaignRunner(jobs=1).run_sims(jobs)
    assert records == clean  # bit-identical to a never-crashed campaign


def test_resume_is_identical_under_parallel_rerun(tmp_path):
    """The resumed pass may be parallel: records still match exactly."""
    jobs = _jobs()
    broken = list(jobs)
    broken[3] = _failing_job()

    crashed = CampaignRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    with pytest.raises(RuntimeError):
        crashed.run_sims(broken)

    resumed = CampaignRunner(jobs=2, cache=ResultCache(str(tmp_path)))
    try:
        records = resumed.run_sims(jobs)
    finally:
        resumed.close()
    assert records == CampaignRunner(jobs=1).run_sims(jobs)


def test_unclosed_runner_still_checkpoints_completed_batches(tmp_path):
    """Batch-end syncs make a kill between batches lose nothing."""
    jobs = _jobs()
    first = CampaignRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    first.run_sims(jobs[:3])
    # No close(), no sync() call: simulate an abrupt exit after a batch.
    resumed = CampaignRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    resumed.run_sims(jobs)
    assert resumed.simulated == 3  # the first three cells warm-start


def test_cli_resume_requires_cache_dir():
    from repro.cli import _campaign_runner, build_parser

    args = build_parser().parse_args(["exp", "x2", "--resume"])
    with pytest.raises(SystemExit, match="cache-dir"):
        _campaign_runner(args)
