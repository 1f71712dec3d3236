"""In-memory span tracer and the wrappers that put it around each layer.

The benchmark never edits the program to trace it.  Instead it replaces
the functions at each layer boundary with thin wrappers (and puts the
originals back afterwards), so an untraced measurement always runs the
pristine code.  A wrapper opens a span on entry and closes it on exit:

* every span records ``(id, name, start, end, parent id, trace id)`` and
  stays in memory until the run writes it out;
* a layer's *self time* is its span duration minus the time its child
  spans cover, accumulated per span name as spans close, so the layers'
  self times partition the traced wall time;
* the trace id is the cell key (simulation layers) or campaign id
  (service layers) that caused the span.

Layer names follow the program's module names (``schedulers.plan``,
``runner.cache.get``, ``service.store.lease`` ...).  Each ``install_*``
function wraps one group of boundaries into a :class:`Patches` set,
which a :class:`Phase` undoes when its traced phase ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

clock = time.perf_counter


class _Stack(threading.local):
    def __init__(self) -> None:
        self.frames: list = []


#: Frame slots: name, start, child seconds, span id, trace id, parent id,
#: child spans, child events.
_NAME, _START, _CHILD, _ID, _TRACE, _PARENT, _NSPANS, _NEVENTS = range(8)


class Tracer:
    """Spans, per-layer self time and counters, all kept in memory.

    Measuring costs time the clock cannot see from inside a span: the
    wrapper's call and bookkeeping land in the *parent's* interval.  The
    cost per child span and per child event is calibrated once per
    process and moved from the parent's self time to ``harness``, so a
    layer with many small children (the event loop) is not charged for
    the tracer.
    """

    def __init__(self, calibrated: bool = True) -> None:
        self.spans: List[Tuple[int, str, float, float, int, Optional[str]]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        #: Timestamped facts with fields (lease and completion times ...).
        self.events: List[Dict[str, Any]] = []
        self._local = _Stack()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.span_cost, self.event_cost = _calibration() if calibrated else (0.0, 0.0)

    # -- spans ----------------------------------------------------------- #

    def enter(self, name: str, trace_id: Optional[str] = None) -> list:
        stack = self._local.frames
        parent = stack[-1] if stack else None
        if trace_id is None and parent is not None:
            trace_id = parent[_TRACE]
        frame = [name, 0.0, 0.0, next(self._ids), trace_id,
                 parent[_ID] if parent is not None else 0, 0, 0]
        stack.append(frame)
        frame[_START] = clock()
        return frame

    def exit(self, frame: list) -> float:
        end = clock()
        stack = self._local.frames
        stack.pop()
        duration = end - frame[_START]
        if stack:
            stack[-1][_CHILD] += duration
            stack[-1][_NSPANS] += 1
        cost = frame[_NSPANS] * self.span_cost + frame[_NEVENTS] * self.event_cost
        name = frame[_NAME]
        with self._lock:
            self.self_s[name] += duration - frame[_CHILD] - cost
            self.self_s["harness"] += cost
            self.calls[name] += 1
            self.spans.append((frame[_ID], name, frame[_START], end,
                               frame[_PARENT], frame[_TRACE]))
        return end

    def timed_event(self, callback: Callable, name: str = "core.events") -> Callable:
        """``callback`` timed as an event: aggregated, never recorded.

        An event loop fires hundreds of callbacks per cell, so events
        keep only their count and self time, at a fraction of a span's
        cost.  Only for single-threaded code, and only inside a span.
        """
        stack = self._local.frames
        self_s = self.self_s
        calls = self.calls
        tracer = self

        def timed(*args):
            parent = stack[-1]
            frame = [name, 0.0, 0.0, 0, parent[_TRACE], parent[_ID], 0, 0]
            stack.append(frame)
            start = frame[_START] = clock()
            try:
                return callback(*args)
            finally:
                duration = clock() - start
                stack.pop()
                cost = frame[_NSPANS] * tracer.span_cost + frame[_NEVENTS] * tracer.event_cost
                self_s[name] += duration - frame[_CHILD] - cost
                self_s["harness"] += cost
                calls[name] += 1
                parent[_CHILD] += duration
                parent[_NEVENTS] += 1

        return timed

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def event(self, kind: str, **fields: Any) -> None:
        fields["kind"] = kind
        fields.setdefault("t", clock())
        with self._lock:
            self.events.append(fields)

    # -- persistence (service processes hand their trace back) -- #

    def dump(self, path: str) -> None:
        doc = {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "events": self.events,
            "spans": [list(span) for span in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    @classmethod
    def load(cls, paths) -> "Tracer":
        """Merge the dumps of several processes into one tracer."""
        merged = cls()
        for path in paths:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            for name, value in doc["self_s"].items():
                merged.self_s[name] += value
            for name, value in doc["calls"].items():
                merged.calls[name] += value
            for name, value in doc["counters"].items():
                merged.counters[name] += value
            merged.events.extend(doc["events"])
            merged.spans.extend(tuple(span) for span in doc["spans"])
        return merged


@functools.lru_cache(maxsize=None)
def _calibration() -> Tuple[float, float]:
    """Seconds a parent is charged per child span and per child event.

    Measured here, on this host, as the median over a few rounds of a
    parent whose only children are empty spans or empty events.
    """
    probe = Tracer(calibrated=False)
    rounds = 7
    per_span, per_event = [], []
    noop = lambda: None  # noqa: E731
    for _ in range(rounds):
        for costs, child in ((per_span, None), (per_event, probe.timed_event(noop))):
            parent = probe.enter("calibrate")
            for _ in range(2000):
                if child is None:
                    probe.exit(probe.enter("child"))
                else:
                    child()
            probe.exit(parent)
            costs.append(probe.self_s.pop("calibrate") / 2000)
    probe.spans.clear()
    return sorted(per_span)[rounds // 2], sorted(per_event)[rounds // 2]


def _patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``owner.attr`` with ``make(original)``; returns the undo."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, (classmethod, staticmethod)):
        replacement: Any = type(raw)(make(raw.__func__))
    else:
        replacement = make(raw)
    setattr(owner, attr, replacement)
    return lambda: setattr(owner, attr, raw)


def spanned(tracer: Tracer, name: str, trace_of: Optional[Callable] = None):
    """Wrapper factory: run the original inside a span called ``name``."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(
                name, trace_of(*args, **kwargs) if trace_of else None
            )
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        return wrapper

    return make


class Patches:
    """A set of installed wrappers, undone in reverse order."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    def span(self, owner: Any, attr: str, name: str, trace_of=None) -> None:
        self._undo.append(_patch(owner, attr, spanned(self.tracer, name, trace_of)))

    def custom(self, owner: Any, attr: str, make: Callable) -> None:
        self._undo.append(_patch(owner, attr, make))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


class Phase:
    """A tracer plus the wrappers installed for one traced phase."""

    def __init__(self) -> None:
        self.tracer = Tracer()

    @contextlib.contextmanager
    def installed(self, *installers: Callable[[Patches], None]) -> Iterator[None]:
        patches = Patches(self.tracer)
        try:
            for install in installers:
                install(patches)
            yield
        finally:
            patches.undo()

    def unit(self, name: str, fn: Callable[[], Any]) -> Tuple[float, Any]:
        """Run ``fn`` as one root span; its wall time and result."""
        frame = self.tracer.enter(name)
        try:
            result = fn()
        finally:
            end = self.tracer.exit(frame)
        return end - frame[_START], result


# ---------------------------------------------------------------------- #
# layer groups                                                           #
# ---------------------------------------------------------------------- #

def install_cell_layers(patches: Patches) -> None:
    """Simulation-side layers: what executing one cell costs, by layer."""
    import repro.core  # noqa: F401  (registers hdws)
    import repro.core.orchestrator as orchestrator
    import repro.runner.jobs as jobs
    import repro.workflows.serialize as serialize
    from repro.core.adaptive import AdaptivePolicy
    from repro.core.policies import DynamicMctPolicy, StaticPolicy
    from repro.platform import presets
    from repro.platform.cluster import Cluster
    from repro.runner.record import SimRecord
    from repro.schedulers import REGISTRY
    from repro.schedulers.base import SchedulingContext
    from repro.sim.engine import Simulator

    tracer = patches.tracer
    patches.span(jobs, "execute_sim", "runner.jobs",
                 trace_of=lambda payload: payload.get("cell_key"))
    patches.span(serialize, "workflow_from_dict", "workflows.decode")
    for fn_name in sorted({fn.__name__ for fn in presets.PRESETS.values()}):
        patches.span(presets, fn_name, "platform.build")
    patches.span(Cluster, "reset", "platform.build")
    patches.span(orchestrator.Orchestrator, "run", "core.orchestrate")
    patches.span(SchedulingContext, "__init__", "schedulers.context")
    seen = set()
    for cls in REGISTRY.values():
        for klass in cls.__mro__:
            if "schedule" in klass.__dict__ and klass not in seen:
                seen.add(klass)
                patches.span(klass, "schedule", "schedulers.plan")
    for policy in (StaticPolicy, DynamicMctPolicy, AdaptivePolicy):
        for hook in ("prepare", "select", "on_task_done", "on_device_failure"):
            if hook in policy.__dict__:
                patches.span(policy, hook, "core.callbacks")
    patches.span(Simulator, "run", "sim.loop")
    patches.custom(Simulator, "schedule_at", lambda fn: _timed_callbacks(tracer, fn))
    patches.span(orchestrator, "account_energy", "energy.account")
    patches.span(SimRecord, "from_run", "runner.record.encode")
    patches.span(SimRecord, "to_dict", "runner.record.encode")


def _timed_callbacks(tracer: Tracer, schedule_at: Callable) -> Callable:
    """``Simulator.schedule_at`` that times each event's callback."""

    @functools.wraps(schedule_at)
    def wrapper(self, time_, callback, *args, priority=0):
        return schedule_at(self, time_, tracer.timed_event(callback), *args,
                           priority=priority)

    return wrapper


def install_pool_layers(patches: Patches) -> None:
    """Parent side of the pool: runner bookkeeping, waits, payload bytes."""
    import multiprocessing.pool as mp_pool
    from multiprocessing.reduction import ForkingPickler

    import repro.runner.pool as pool

    tracer = patches.tracer
    patches.span(pool.CampaignRunner, "run_sims", "runner.pool")
    patches.span(mp_pool.IMapIterator, "next", "runner.pool.wait")
    patches.span(mp_pool.IMapIterator, "__next__", "runner.pool.wait")

    def measure_payloads(imap_unordered):
        @functools.wraps(imap_unordered)
        def wrapper(self, func, iterable, chunksize=1):
            items = list(iterable)
            frame = tracer.enter("harness")
            try:
                size = sum(len(ForkingPickler.dumps(item)) for item in items)
            finally:
                tracer.exit(frame)
            tracer.count("pool.payload_bytes", size)
            tracer.count("pool.dispatched", len(items))
            return imap_unordered(self, func, items, chunksize)

        return wrapper

    patches.custom(mp_pool.Pool, "imap_unordered", measure_payloads)


def install_runner_layers(patches: Patches) -> None:
    """Runner layers every workload crosses: hashing, cache, records."""
    import repro.runner.hashing as hashing
    import repro.runner.pool as pool
    import repro.service.store as store
    from repro.runner.cache import ResultCache
    from repro.runner.record import CellFailure, SimRecord

    tracer = patches.tracer
    patches.span(pool, "cache_key", "runner.hashing")
    patches.span(store, "cache_key", "runner.hashing")
    patches.span(hashing, "workflow_fingerprint", "runner.hashing")
    patches.custom(ResultCache, "_load_index", lambda fn: _index_load(tracer, fn))
    patches.custom(ResultCache, "get", lambda fn: _lookup(tracer, fn))
    patches.custom(ResultCache, "get_many", lambda fn: _lookup(tracer, fn))
    patches.span(ResultCache, "put", "runner.cache.put")
    patches.span(ResultCache, "sync", "runner.cache.sync")
    patches.span(SimRecord, "from_dict", "runner.record.decode")
    patches.span(CellFailure, "from_dict", "runner.record.decode")


def _index_load(tracer: Tracer, load: Callable) -> Callable:
    """Time only the calls that actually read the manifest from disk."""

    @functools.wraps(load)
    def wrapper(self):
        if self._index is not None:
            return load(self)
        frame = tracer.enter("runner.cache.index_load")
        try:
            return load(self)
        finally:
            tracer.exit(frame)

    return wrapper


#: Cache counters a lookup moves, counted as ``cache.<name>``.
LOOKUP_COUNTS = ("hits", "misses", "errors")


def _lookup(tracer: Tracer, lookup: Callable) -> Callable:
    """A cache lookup as a ``runner.cache.get`` span, with its hits and misses."""

    @functools.wraps(lookup)
    def wrapper(self, *args):
        before = [getattr(self.stats, name) for name in LOOKUP_COUNTS]
        frame = tracer.enter("runner.cache.get")
        try:
            return lookup(self, *args)
        finally:
            tracer.exit(frame)
            for name, old in zip(LOOKUP_COUNTS, before):
                tracer.count(f"cache.{name}", getattr(self.stats, name) - old)

    return wrapper


#: Job-store operations timed per call (``service.store.<op>``).
STORE_OPS = (
    "submit", "lease", "mark_running", "heartbeat", "complete",
    "release", "tick", "reclaim_expired",
)


def install_store_layers(patches: Patches) -> None:
    """Service layers: every store transaction, with campaign ids."""
    from repro.service.store import JobStore

    tracer = patches.tracer

    def op(name: str) -> Callable:
        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(self, *args, **kwargs):
                frame = tracer.enter(f"service.store.{name}")
                try:
                    result = fn(self, *args, **kwargs)
                finally:
                    end = tracer.exit(frame)
                _store_event(tracer, name, args, result, end)
                return result

            return wrapper

        return make

    for name in STORE_OPS:
        patches.custom(JobStore, name, op(name))


def _store_event(tracer: Tracer, name: str, args: tuple, result: Any, end: float) -> None:
    """Record the campaign-level facts the latency breakdown needs."""
    if name == "submit":
        tracer.event("submit", t=end, campaign=result)
    elif name == "lease":
        if result is None:
            tracer.count("worker.idle_polls")
            return
        campaigns = sorted({cell.campaign_id for cell in result.cells})
        tracer.count("worker.leased_cells", len(result.cells))
        tracer.event("lease", t=end, campaigns=campaigns)
    elif name == "complete":
        campaign_id, _key, _token, state = args[:4]
        tracer.count(f"worker.state.{state}")
        tracer.event("complete", t=end, campaign=campaign_id, state=state)
