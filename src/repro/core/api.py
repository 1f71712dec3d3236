"""Stable public entry points.

Most users need exactly two calls::

    from repro import run_workflow
    from repro.workflows.generators import montage
    from repro.platform import presets

    result = run_workflow(montage(size=100), presets.hybrid_cluster())
    print(result.makespan, result.energy.total_joules)

and, for studies, :func:`compare_schedulers`, which runs a list of
schedulers on the same (workflow, cluster, seed) triple and returns their
results keyed by name.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

from repro.core.orchestrator import Orchestrator, RunConfig, RunResult
from repro.platform.cluster import Cluster
from repro.platform import presets
from repro.schedulers.base import Scheduler, SchedulingContext
from repro.schedulers.schedule import Schedule
from repro.workflows.graph import Workflow


def run_workflow(
    workflow: Workflow,
    cluster: Optional[Cluster] = None,
    scheduler: Union[str, Scheduler] = "hdws",
    mode: str = "static",
    seed: int = 0,
    plan: Optional[Schedule] = None,
    context: Optional[SchedulingContext] = None,
    **config_kwargs,
) -> RunResult:
    """Run one workflow on one cluster and return the full result.

    Args:
        workflow: The workflow to execute.
        cluster: Target platform; defaults to the single-node workstation
            preset (quickstart-friendly).
        scheduler: Scheduler registry name or instance.
        mode: ``static``, ``dynamic``, or ``adaptive``.
        seed: Master seed for all run randomness.
        plan: A static plan made earlier from the same inputs; the run
            executes it instead of planning (see
            :meth:`Orchestrator.run`).
        context: A scheduling context built earlier for this workflow and
            cluster with the same planning inputs; the run plans from it
            instead of building its own (see :meth:`Orchestrator.run`).
        **config_kwargs: Any further :class:`RunConfig` field.
    """
    cluster = cluster or presets.single_node_workstation()
    config = RunConfig(
        scheduler=scheduler, mode=mode, seed=seed, **config_kwargs
    )
    return Orchestrator(config).run(
        workflow, cluster, plan=plan, context=context
    )


def compare_schedulers(
    workflow: Workflow,
    cluster: Cluster,
    schedulers: Iterable[Union[str, Scheduler]],
    seed: int = 0,
    **config_kwargs,
) -> Dict[str, RunResult]:
    """Run several schedulers on identical inputs; results by name.

    The cluster is reset between runs, and every run uses the same seed,
    so runtime noise and fault sequences are identical across schedulers —
    differences in the results are pure policy.
    """
    out: Dict[str, RunResult] = {}
    for sched in schedulers:
        name = sched if isinstance(sched, str) else sched.name
        out[name] = run_workflow(
            workflow, cluster, scheduler=sched, seed=seed, **config_kwargs
        )
    return out
