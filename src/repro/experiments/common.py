"""Shared infrastructure for the experiment runners.

Since the campaign-runner port, experiments do not call the simulator
directly: they enumerate their ``(workflow, cluster, scheduler, config)``
cells as :class:`~repro.runner.jobs.SimJob` descriptions upfront and
submit the whole batch via :func:`run_sims`.  The active
:class:`~repro.runner.pool.CampaignRunner` fans the batch over a process
pool and memoizes completed cells in the on-disk cache — and because
every cell is rebuilt from its data description through one construction
path, results are bit-identical for any ``jobs`` setting and cache state.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Union

from repro.platform import presets
from repro.platform.cluster import Cluster
from repro.runner import specs as runner_specs
from repro.runner.context import get_runner
from repro.runner.jobs import SimJob, TimingJob
from repro.runner.record import SimRecord, TimingRecord
from repro.schedulers.base import Scheduler
from repro.workflows.generators import SCIENTIFIC_SUITES
from repro.workflows.graph import Workflow
from repro.workflows.serialize import workflow_to_dict

#: Canonical suite order used in every table.
SUITES = ("montage", "cybershake", "epigenomics", "ligo", "sipht")

#: Stable per-suite seed offsets.  Offsets are a property of the suite
#: *name* (its position in the canonical order), never of its position in
#: whatever subset a caller passes, so requesting ("ligo",) yields the
#: same LIGO workflow as requesting all five suites.  Suites added later
#: get deterministic offsets after the canonical block.
SUITE_SEED_OFFSETS: Dict[str, int] = {name: i for i, name in enumerate(SUITES)}
for _i, _name in enumerate(sorted(set(SCIENTIFIC_SUITES) - set(SUITES))):
    SUITE_SEED_OFFSETS[_name] = len(SUITES) + _i

#: Default scheduler line-up of the T1 comparison, best-first by family.
T1_SCHEDULERS = (
    "hdws",
    "heft",
    "peft",
    "cpop",
    "minmin",
    "maxmin",
    "mct",
    "levelwise",
    "met",
    "olb",
    "roundrobin",
    "random",
)


def suite_workflows(
    size: int = 100, seed: int = 0, names: Iterable[str] = SUITES
) -> Dict[str, Workflow]:
    """The scientific workflow suite at a given approximate size.

    Each suite's generator seed is ``seed`` plus the suite's *canonical*
    offset, so the workflows are independent of which subset (or order)
    of suites is requested.
    """
    # Import repro.core so the HDWS registry hook runs before any
    # experiment resolves schedulers by name.
    import repro.core  # noqa: F401

    return {
        name: SCIENTIFIC_SUITES[name](size=size, seed=seed + SUITE_SEED_OFFSETS[name])
        for name in names
    }


def default_cluster() -> Cluster:
    """The mixed CPU+GPU evaluation platform (4 nodes, 4 CPU + 1 GPU each)."""
    return presets.hybrid_cluster(nodes=4, cores_per_node=4, gpus_per_node=1)


# ---------------------------------------------------------------------- #
# cell construction                                                      #
# ---------------------------------------------------------------------- #

def preset_spec(name: str, **kwargs) -> Dict[str, Any]:
    """Factory spec for a named platform preset (picklable/hashable)."""
    return runner_specs.factory_spec(presets.PRESETS[name], **kwargs)


#: The default T1 evaluation platform as a cell spec.
DEFAULT_CLUSTER_SPEC = runner_specs.factory_spec(
    presets.hybrid_cluster, nodes=4, cores_per_node=4, gpus_per_node=1
)


def scheduler_spec(scheduler: Union[str, Scheduler, Dict[str, Any]]):
    """Normalize a scheduler argument into a cell description.

    Registry names pass through; factory specs pass through; live
    instances are rejected (they cannot cross the process boundary with a
    stable hash) — describe them with :func:`repro.runner.specs.factory_spec`.
    """
    if isinstance(scheduler, str) or runner_specs.is_spec(scheduler):
        return scheduler
    raise TypeError(
        f"scheduler {scheduler!r} must be a registry name or a factory spec; "
        "use repro.runner.specs.factory_spec(Class, **params)"
    )


#: Process-wide RunConfig overrides merged into every cell built by
#: :func:`make_job` (overrides win).  Set via :func:`use_run_overrides`.
_RUN_OVERRIDES: Dict[str, Any] = {}


@contextmanager
def use_run_overrides(**overrides: Any) -> Iterator[None]:
    """Force RunConfig fields onto every cell described inside the block.

    The CLI uses this to thread cross-cutting flags (``--sanitize``)
    through experiment runners without changing their signatures.  Note
    the overrides become part of each cell's config and therefore of its
    cache key: sanitized and unsanitized runs never share cache entries.
    """
    previous = dict(_RUN_OVERRIDES)
    _RUN_OVERRIDES.update(overrides)
    try:
        yield
    finally:
        _RUN_OVERRIDES.clear()
        _RUN_OVERRIDES.update(previous)


def make_job(
    workflow: Union[Workflow, Dict[str, Any]],
    cluster: Dict[str, Any],
    scheduler: Union[str, Dict[str, Any]] = "hdws",
    label: str = "",
    **config: Any,
) -> SimJob:
    """Describe one simulation cell.

    ``workflow`` may be a live :class:`Workflow` (serialized here) or an
    already-serialized document; ``cluster`` must be a factory spec;
    ``config`` takes any :class:`~repro.core.orchestrator.RunConfig`
    field, with object values (fault_model, recovery, governor) given as
    factory specs.
    """
    doc = workflow if isinstance(workflow, dict) else workflow_to_dict(workflow)
    if _RUN_OVERRIDES:
        config = {**config, **_RUN_OVERRIDES}
    return SimJob(
        workflow=doc,
        cluster=cluster,
        scheduler=scheduler_spec(scheduler),
        config=config,
        label=label,
    )


def make_timing_job(
    workflow: Union[Workflow, Dict[str, Any]],
    cluster: Dict[str, Any],
    scheduler: Union[str, Dict[str, Any]],
    label: str = "",
) -> TimingJob:
    """Describe one scheduling-overhead measurement cell (T5)."""
    doc = workflow if isinstance(workflow, dict) else workflow_to_dict(workflow)
    return TimingJob(
        workflow=doc, cluster=cluster, scheduler=scheduler_spec(scheduler),
        label=label,
    )


def run_sims(jobs: List[SimJob]) -> List[SimRecord]:
    """Fan a batch of cells through the active campaign runner."""
    return get_runner().run_sims(jobs)


def stream_sims(jobs: List[SimJob]) -> Iterator["tuple[int, SimRecord]"]:
    """Stream ``(index, record)`` pairs in submission order.

    The O(1)-memory path for campaigns too large to hold as record
    lists: records are yielded as the pool completes them (reordered to
    submission order), so callers can fold them into streaming
    aggregates (:mod:`repro.analysis.stats`) while later cells still
    simulate.
    """
    return get_runner().run_sims_ordered(jobs)


def run_timings(jobs: List[TimingJob]) -> List[TimingRecord]:
    """Fan a batch of timing cells through the active campaign runner."""
    return get_runner().run_timings(jobs)


@dataclass
class ExperimentResult:
    """Uniform return type of every experiment runner.

    ``tables`` maps a table label to a rendered-able object (usually a
    :class:`~repro.analysis.compare.ComparisonTable`); ``series`` maps a
    curve label to an x->y dict; ``notes`` collects shape observations the
    benchmarks assert on.
    """

    experiment: str
    tables: Dict[str, object] = field(default_factory=dict)
    series: Dict[str, Dict[float, float]] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable rendering of all tables and series."""
        chunks: List[str] = [f"=== {self.experiment} ==="]
        for label, table in self.tables.items():
            render = getattr(table, "render", None)
            chunks.append(f"-- {label} --")
            chunks.append(render() if callable(render) else str(table))
        for label, series in self.series.items():
            chunks.append(f"-- {label} --")
            pts = ", ".join(
                f"{x:g}: {y:.3f}" for x, y in sorted(series.items())
            )
            chunks.append(pts)
        if self.notes:
            chunks.append("-- notes --")
            for k, v in self.notes.items():
                chunks.append(f"{k}: {v}")
        return "\n".join(chunks)


def quick_params(quick: bool) -> Dict[str, int]:
    """Workload sizing shared by the runners (quick for CI, full for paper)."""
    if quick:
        return {"size": 40, "reps": 1}
    return {"size": 100, "reps": 3}
