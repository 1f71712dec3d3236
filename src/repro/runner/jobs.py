"""Simulation cells and the worker entry points that execute them.

A :class:`SimJob` is the *data* description of one simulation: the
serialized workflow document, a cluster factory spec, a scheduler name or
factory spec, and the run-config dict (seed, noise, fault model, recovery
policy, governor, mode — object values as factory specs).  Workers
rebuild everything from the description, so executing a cell inline, in a
forked pool worker or from a cache-warmed rerun goes through the *same*
construction path and therefore yields bit-identical numbers.

The module-level ``execute_*`` functions are the ``multiprocessing``
entry points; payloads are plain dicts so both fork and spawn start
methods can ship them.

**Failure is data**: :func:`execute_sim` never lets a cell exception
cross the pool boundary.  It returns a serialized
:class:`~repro.runner.record.CellFailure` instead — error class,
message, the fully formatted chained traceback (exception chains do not
survive pickling; the text does), failure category and attempt count —
so one poison cell cannot tear down a streaming campaign, and the
parent can decide to retry, quarantine or raise with full context.

**A worker plans each repeated static cell once**: a static plan is a
pure function of its planning inputs — the workflow, the platform and
the release times — plus its scheduler, and it reads the run seed only
through the estimate-error draw (``estimate_error_cv > 0``).  Grids
repeat one plan over many run seeds, fault models and noise levels, so
:func:`execute_sim` keeps static plans in a per-process LRU memo keyed
by exactly those inputs (:func:`_memo_keys`) and hands a hit to
``run_workflow(plan=)``, which skips the ``SchedulingContext`` and
``schedule()`` but still validates (and, under precheck, audits) the
plan.  Dynamic and adaptive cells plan inside the run, and timing cells
measure planning itself, so they bypass the memo.  A hit is the very
plan a miss would make and a run only reads its plan, so records stay
byte-identical.  The memo holds at most ``_PLAN_MEMO_TASKS`` task
assignments, whatever the plans' sizes.

**A worker builds each grid row's platform and context once**: a row
runs many schedulers and modes on one workflow and one platform.  The
orchestrator resets a cluster before every run, so the worker keeps the
most recent ``Cluster`` and reuses it for every cell with the same
canonical cluster spec.  At zero estimate error a ``SchedulingContext``
is a pure function of the planning inputs: it reads the platform's
runtime state only when built and its lazy tables are content-equal
whichever scheduler fills them, so the worker keeps the most recent
context and hands it to ``run_workflow(context=)`` for the next cell
with the same inputs, in any mode.  A shared context also shares the
tables it fills once: its optimistic cost table and its upward ranks,
so a row's HDWS and PEFT cells compute one OCT, and its HEFT, CPOP and
dynamic cells one rank table.  Cells with estimate error draw their
context from the run seed, and bypass it.  Each memo holds one entry,
so a process retains at most one platform and one context.

Payloads may carry three out-of-band keys the cache key never sees
(they are runner policy, not cell content): ``attempt`` (1-based
execution count, stamped by the retry loop), ``cell_key`` (the cell's
content hash, used by deterministic failure injection) and ``inject``
(the parsed ``REPRO_FAIL_INJECT`` spec — threading it through the
payload instead of worker-side environment reads keeps injection
working under every start method).
"""

from __future__ import annotations

import hashlib
import time
import traceback as traceback_module
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from repro.runner import specs
from repro.runner.hashing import canonical_json
from repro.runner.health import TransientCellError, classify_exception
from repro.runner.record import CellFailure, SimRecord, TimingRecord


@dataclass(frozen=True)
class SimJob:
    """One ``(workflow, cluster, scheduler, config)`` simulation cell.

    Attributes:
        workflow: Serialized workflow document
            (:func:`repro.workflows.serialize.workflow_to_dict` output).
        cluster: Factory spec for the platform.
        scheduler: Scheduler registry name, or a factory spec for a
            parameterized instance.
        config: Extra :class:`~repro.core.orchestrator.RunConfig` fields;
            object-valued fields (fault_model, recovery, governor) as
            factory specs.
        label: Human-readable tag for diagnostics; not part of the key.
    """

    workflow: Dict[str, Any]
    cluster: Dict[str, Any]
    scheduler: Union[str, Dict[str, Any]]
    config: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    kind = "sim"

    def payload(self) -> Dict[str, Any]:
        """Picklable dict handed to the pool worker.

        Carries a content fingerprint of the workflow document so the
        worker can recognise the same document across payload copies
        (pickling gives every copy a fresh identity) and rebuild the
        Workflow once per document, not once per cell.
        """
        from repro.runner.hashing import workflow_fingerprint

        return {
            "kind": self.kind,
            "workflow": self.workflow,
            "workflow_fp": workflow_fingerprint(self.workflow),
            "cluster": self.cluster,
            "scheduler": self.scheduler,
            "config": self.config,
            "label": self.label,
        }


@dataclass(frozen=True)
class TimingJob(SimJob):
    """A scheduling-call wall-clock measurement (experiment T5).

    The same fields and payload as :class:`SimJob`; the payload's
    ``kind`` routes it to :func:`execute_timing`.  Timing cells are never
    cached — a stored wall-clock time is not a property of the inputs —
    and their absolute values are only comparable within one ``--jobs``
    setting.
    """

    kind = "timing"


def _build_scheduler(spec: Union[str, Dict[str, Any]]):
    """Registry name → name (resolved by RunConfig); factory spec → instance."""
    if isinstance(spec, str):
        return spec
    return specs.build(spec)


#: Deserialized workflows keyed by content fingerprint (the key survives
#: pickling across the process boundary).  Campaign builders share one
#: document across the cells of a grid row (e.g. the 8 golden scheduler
#: cells per suite), so workers rebuild each workflow once per distinct
#: document — keeping its lazily-built graph caches warm — instead of
#: once per cell.
_workflow_memo: Dict[str, Any] = {}
_WORKFLOW_MEMO_MAX = 16


def _workflow_for(doc: Dict[str, Any], fingerprint: str):
    """The Workflow for ``doc``, memoized by its content fingerprint."""
    from repro.workflows.serialize import workflow_from_dict

    wf = _workflow_memo.get(fingerprint)
    if wf is None:
        wf = workflow_from_dict(doc)
        if len(_workflow_memo) >= _WORKFLOW_MEMO_MAX:
            _workflow_memo.clear()
        _workflow_memo[fingerprint] = wf
    return wf


#: Static-mode plans by plan key (:func:`_memo_keys`), least recently
#: used first.  Each entry is a pure function of its key, so the memo's
#: *content* is the same in every process; only planning work differs.
#: Retained plans cost ~0.3–0.4 KB per task, so the bound is a budget of
#: task assignments (``_plan_memo_tasks`` counts them), not an entry
#: count.
_plan_memo: "OrderedDict[tuple, Any]" = OrderedDict()
_PLAN_MEMO_TASKS = 2048
_plan_memo_tasks = 0

#: The most recent cell's platform, as ``(canonical cluster spec,
#: Cluster)``.  Every run resets the cluster first, so the instance is
#: the same as a freshly built one for every cell that names the spec.
_platform_memo: Optional[tuple] = None

#: The most recent context a cell built or used, as ``(context key,
#: SchedulingContext)``.  A row's cells run back to back, so one entry
#: serves the row and the next row's first cell replaces it.
_context_memo: Optional[tuple] = None


def _memo_keys(
    payload: Dict[str, Any], cluster_key: str
) -> Tuple[Optional[tuple], Optional[tuple]]:
    """The cell's ``(plan key, context key)``; ``None`` bypasses a memo.

    The context key is the planning inputs: the workflow fingerprint,
    the canonical cluster spec and the release times.  The plan key adds
    the scheduler spec, and with ``estimate_error_cv > 0`` the error and
    the run seed, since the context then draws each task's estimate
    error from the seed; such a cell bypasses the context memo.  Noise,
    faults, recovery and the rest of the config never reach
    ``schedule()``.  Only static cells plan before the run.
    """
    config = payload["config"]
    inputs = (
        payload["workflow_fp"],
        cluster_key,
        canonical_json(config.get("release_times") or {}),
    )
    error_cv = config.get("estimate_error_cv")
    plan_key = None
    if config.get("mode", "static") == "static":
        plan_key = inputs + (canonical_json(payload["scheduler"]),)
        if error_cv:
            plan_key += (error_cv, config.get("seed", 0))
    return plan_key, None if error_cv else inputs


def _platform_for(spec: Dict[str, Any], key: str):
    """The cluster ``spec`` builds: the retained one if ``key`` matches."""
    global _platform_memo
    if _platform_memo is None or _platform_memo[0] != key:
        _platform_memo = (key, specs.build(spec))
    return _platform_memo[1]


def _recall_context(key: Optional[tuple], wf, cluster):
    """The retained context for ``key`` if built on these objects, or None.

    The identity test matters when the workflow or platform memo has
    rebuilt an equal object since the context was made: the orchestrator
    refuses a context built for another workflow or cluster object.
    """
    if key is None or _context_memo is None or _context_memo[0] != key:
        return None
    context = _context_memo[1]
    if context.workflow is wf and context.cluster is cluster:
        return context
    return None


def _remember_context(key: tuple, context) -> None:
    """Retain ``context`` as the one context of this process."""
    global _context_memo
    _context_memo = (key, context)


def _recall_plan(key: Optional[tuple]):
    """The memoized plan for ``key`` (marked recently used), or ``None``."""
    plan = _plan_memo.get(key)
    if plan is not None:
        _plan_memo.move_to_end(key)
    return plan


def _remember_plan(key: tuple, plan) -> None:
    """Memoize ``plan``, evicting least recently used plans to the budget."""
    global _plan_memo_tasks
    if plan.n_tasks > _PLAN_MEMO_TASKS:
        return
    _plan_memo[key] = plan
    _plan_memo_tasks += plan.n_tasks
    while _plan_memo_tasks > _PLAN_MEMO_TASKS:
        _key, old = _plan_memo.popitem(last=False)
        _plan_memo_tasks -= old.n_tasks


def _maybe_inject_failure(payload: Dict[str, Any]) -> None:
    """Deterministic failure injection, driven by the payload's spec.

    The parent stamps the parsed ``REPRO_FAIL_INJECT`` spec into each
    payload (see :func:`repro.runner.pool.inject_spec_from_env`).  Two
    fault shapes, both decided without any ambient entropy:

    * **poison** — cells whose label is listed fail every attempt with a
      permanent error (they must end up quarantined, never retried to
      success);
    * **transient** — a seeded hash draw over ``(cell key, seed)`` fails
      the matching fraction of cells *on their first attempt only*, so a
      retried cell deterministically succeeds and its record is
      byte-identical to an injection-free run.
    """
    spec = payload.get("inject")
    if not spec:
        return
    label = payload.get("label", "")
    if label and label in spec.get("poison", ()):
        raise RuntimeError(f"injected poison cell {label}")
    rate = float(spec.get("rate", 0.0) or 0.0)
    if rate <= 0.0 or int(payload.get("attempt", 1)) != 1:
        return
    token = f"{payload.get('cell_key') or label}:{spec.get('seed', 0)}"
    draw = int(hashlib.sha256(token.encode("utf-8")).hexdigest()[:8], 16)
    if draw / float(0xFFFFFFFF) < rate:
        raise TransientCellError(
            f"injected transient failure ({label or 'unlabeled cell'})"
        )


def _failure_dict(
    exc: Exception, payload: Dict[str, Any], wall_s: float
) -> Dict[str, Any]:
    """Serialize a worker exception as a CellFailure dict (never raises)."""
    return CellFailure(
        error_type=type(exc).__qualname__,
        message=str(exc),
        traceback=traceback_module.format_exc(),
        category=classify_exception(exc),
        attempts=int(payload.get("attempt", 1)),
        wall_s=wall_s,
        label=payload.get("label", ""),
    ).to_dict()


def execute_sim(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker: rebuild the cell's objects, run it, return the record dict.

    A failing cell returns a serialized
    :class:`~repro.runner.record.CellFailure` instead of raising: the
    exception's class, message and *formatted chained traceback* are
    captured here, on the worker side of the pickle boundary, where the
    chain still exists.  The parent decides whether that failure is
    retried, quarantined or re-raised.
    """
    # The import registers HDWS in the scheduler registry inside workers.
    import repro.core  # noqa: F401
    from repro.core.api import run_workflow

    t0 = time.perf_counter()
    try:
        _maybe_inject_failure(payload)
        wf = _workflow_for(payload["workflow"], payload["workflow_fp"])
        cluster_key = canonical_json(payload["cluster"])
        cluster = _platform_for(payload["cluster"], cluster_key)
        scheduler = _build_scheduler(payload["scheduler"])
        config = {k: specs.build(v) for k, v in payload["config"].items()}
        plan_key, context_key = _memo_keys(payload, cluster_key)
        plan = _recall_plan(plan_key)
        context = None
        if plan is None:
            context = _recall_context(context_key, wf, cluster)
        result = run_workflow(
            wf, cluster, scheduler=scheduler, plan=plan, context=context,
            **config,
        )
        if plan_key is not None and plan is None:
            _remember_plan(plan_key, result.plan)
        if context_key is not None and result.context is not None:
            _remember_context(context_key, result.context)
        return SimRecord.from_run(result).to_dict()
    except Exception as exc:
        return _failure_dict(exc, payload, time.perf_counter() - t0)


def execute_timing(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker: build the context, time the scheduling call itself."""
    import repro.core  # noqa: F401
    from repro.schedulers.base import SchedulingContext

    try:
        wf = _workflow_for(payload["workflow"], payload["workflow_fp"])
        cluster = specs.build(payload["cluster"])
        scheduler = _build_scheduler(payload["scheduler"])
        if isinstance(scheduler, str):
            from repro.schedulers import REGISTRY

            scheduler = REGISTRY[scheduler]()
        context = SchedulingContext(wf, cluster)
        t0 = time.perf_counter()
        schedule = scheduler.schedule(context)
        elapsed = time.perf_counter() - t0
        schedule.validate_against(wf)
        return TimingRecord(elapsed_s=elapsed, n_tasks=wf.n_tasks).to_dict()
    except Exception as exc:
        # Chain the original (debuggable in-process) *and* embed the
        # formatted traceback: the chain does not survive the pickle
        # boundary back to the parent, the text does.
        raise RuntimeError(
            f"timing cell {payload.get('label') or '<unlabeled>'} failed: "
            f"{exc}\n--- worker traceback ---\n"
            f"{traceback_module.format_exc()}"
        ) from exc


def execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Dispatch a payload to its executor by kind (the pool map target)."""
    if payload["kind"] == "sim":
        return execute_sim(payload)
    if payload["kind"] == "timing":
        return execute_timing(payload)
    raise ValueError(f"unknown job kind {payload['kind']!r}")
