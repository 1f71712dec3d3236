"""Campaign driver: run many experiments through one shared runner.

A *campaign* is an ordered set of experiment ids executed with a single
:class:`~repro.runner.pool.CampaignRunner`, so all their simulation cells
share the process pool and the memoization cache.  The driver reports
per-experiment wall-clock plus the cache economics of the whole sweep —
the numbers the ``repro-flow campaign`` CLI prints.

Also home to the *golden cell* enumeration: the small, pinned
suite×scheduler grid whose makespans are checked into
``tests/golden/`` as the regression fixture for scheduler drift.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.runner.context import get_runner, use_runner
from repro.runner.pool import CampaignRunner

#: The pinned golden grid: every mainstream scheduler family at a small,
#: fast size.  Changing this list invalidates the golden fixtures.
GOLDEN_SCHEDULERS = ("hdws", "heft", "peft", "cpop", "minmin", "maxmin", "mct", "olb")
GOLDEN_SIZE = 30
GOLDEN_SEED = 7
GOLDEN_NOISE_CV = 0.1


@dataclass
class CampaignReport:
    """Outcome of one campaign run."""

    results: Dict[str, object] = field(default_factory=dict)
    seconds: Dict[str, float] = field(default_factory=dict)
    total_seconds: float = 0.0
    simulated: int = 0
    cache_stats: Optional[Dict[str, int]] = None
    #: Fault-tolerance accounting (see :class:`CampaignRunner`).
    failed: int = 0
    retried: int = 0
    #: One diagnostic line per quarantined cell.
    quarantined: List[str] = field(default_factory=list)
    #: Health state and gate decisions at campaign end.
    health: str = "healthy"
    gate_events: List[Dict[str, object]] = field(default_factory=list)

    def render_summary(self) -> str:
        """The timing/cache footer the CLI prints after a campaign."""
        lines = ["=== campaign summary ==="]
        for exp_id, secs in self.seconds.items():
            lines.append(f"{exp_id:6s} {secs:8.2f}s")
        lines.append(f"total  {self.total_seconds:8.2f}s")
        lines.append(f"cells simulated: {self.simulated}")
        if self.failed or self.retried:
            lines.append(
                f"cells quarantined: {self.failed} "
                f"(retry dispatches: {self.retried})"
            )
            for entry in self.quarantined:
                lines.append(f"  quarantine: {entry}")
        if self.health != "healthy":
            lines.append(f"campaign health: {self.health}")
        if self.cache_stats is not None:
            s = dict(self.cache_stats)
            line = "cache: {hits} hits, {misses} misses, {puts} puts".format(**s)
            if s.get("failure_hits"):
                line += f" ({s['failure_hits']} recalled failures)"
            lines.append(line)
        return "\n".join(lines)


def run_campaign(
    experiment_ids: Sequence[str],
    runner: Optional[CampaignRunner] = None,
    quick: bool = True,
    seed: int = 0,
) -> CampaignReport:
    """Run the listed experiments through one shared runner.

    Experiments execute sequentially (their cells fan out in parallel),
    preserving each experiment's internal determinism while the pool
    keeps all cores busy within each batch of cells.
    """
    from repro.experiments import REGISTRY

    unknown = [e for e in experiment_ids if e not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown experiments {unknown}; available: {sorted(REGISTRY)}")

    runner = runner or get_runner()
    report = CampaignReport()
    t_campaign = time.perf_counter()
    with use_runner(runner):
        for exp_id in experiment_ids:
            t0 = time.perf_counter()
            report.results[exp_id] = REGISTRY[exp_id](quick=quick, seed=seed)
            report.seconds[exp_id] = time.perf_counter() - t0
    report.total_seconds = time.perf_counter() - t_campaign
    report.simulated = runner.simulated
    report.failed = runner.failed
    report.retried = runner.retried
    report.quarantined = runner.quarantine_report()
    report.health = runner.health.health()[0]
    report.gate_events = list(runner.health.events)
    if runner.cache is not None:
        report.cache_stats = runner.cache.stats.as_dict()
    return report


def golden_jobs() -> List[object]:
    """The pinned golden-regression cells (see tests/golden/)."""
    from repro.experiments.common import make_job, preset_spec, suite_workflows

    from repro.workflows.serialize import workflow_to_dict

    workflows = suite_workflows(size=GOLDEN_SIZE, seed=GOLDEN_SEED)
    cluster = preset_spec(
        "hybrid", nodes=4, cores_per_node=4, gpus_per_node=1
    )
    jobs = []
    for wname, wf in workflows.items():
        # One shared document per workflow: the in-process worker memoizes
        # deserialization by document identity, so the 8 scheduler cells
        # of a suite reuse one Workflow instance (and its graph caches).
        doc = workflow_to_dict(wf)
        for sched in GOLDEN_SCHEDULERS:
            jobs.append(
                make_job(
                    doc,
                    cluster,
                    scheduler=sched,
                    seed=GOLDEN_SEED,
                    noise_cv=GOLDEN_NOISE_CV,
                    label=f"golden:{wname}:{sched}",
                )
            )
    return jobs


#: The runtime-mode golden grid: each golden suite's HDWS cell in every
#: mode that decides during the run, fault-free and under permanent
#: device failures that lose local data (so outputs regenerate).
GOLDEN_RUNTIME_MODES = {
    "dynamic": {"mode": "dynamic", "locality_aware": True},
    "dynamic-nolocality": {"mode": "dynamic", "locality_aware": False},
    "adaptive": {"mode": "adaptive"},
}
GOLDEN_DEVICE_MTBF = 4.0


def golden_runtime_jobs() -> List[object]:
    """The pinned runtime-mode cells (see tests/golden/)."""
    from repro.experiments.common import make_job
    from repro.faults.models import FaultModel
    from repro.runner.specs import factory_spec

    faults = {"clean": {}, "devfail": {"fault_model": factory_spec(
        FaultModel, device_mtbf=GOLDEN_DEVICE_MTBF, device_data_loss=True
    )}}
    return [
        make_job(cell.workflow, cell.cluster, scheduler="hdws",
                 seed=GOLDEN_SEED, noise_cv=GOLDEN_NOISE_CV,
                 label=f"{cell.label}:{mode}:{tag}", **config, **fault)
        for cell in golden_jobs() if cell.scheduler == "hdws"
        for mode, config in GOLDEN_RUNTIME_MODES.items()
        for tag, fault in faults.items()
    ]


def golden_runtime_records() -> Dict[str, Dict[str, object]]:
    """label -> full SimRecord dict for the runtime-mode golden grid."""
    from repro.experiments.common import run_sims

    jobs = golden_runtime_jobs()
    return {job.label: rec.to_dict() for job, rec in zip(jobs, run_sims(jobs))}


def golden_makespans() -> Dict[str, Dict[str, float]]:
    """suite -> scheduler -> makespan for the pinned golden grid."""
    from repro.experiments.common import run_sims, suite_workflows

    suites = list(suite_workflows(size=GOLDEN_SIZE, seed=GOLDEN_SEED))
    records = run_sims(golden_jobs())
    out: Dict[str, Dict[str, float]] = {}
    i = 0
    for wname in suites:
        out[wname] = {}
        for sched in GOLDEN_SCHEDULERS:
            out[wname][sched] = records[i].makespan
            i += 1
    return out
