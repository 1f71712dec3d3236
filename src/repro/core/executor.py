"""Event-driven workflow executor.

Runs a workflow on a simulated heterogeneous cluster under a pluggable
:class:`~repro.core.policies.ExecutionPolicy`.  The executor owns the
*mechanism* — dependency tracking, input staging through the replica
catalog and node stores, noisy execution sampling, fault handling with
retries/checkpoints/replication, output registration/archiving — while the
policy owns the *decisions* (which ready task goes to which free device, in
what DVFS state).

Execution of one task attempt proceeds through *clones*: the policy's
chosen device always runs one, and under a replication policy
(``RecoveryPolicy.replicate_tasks > 1``) up to k-1 additional idle eligible
devices run hot copies.  Each clone independently:

1. **stages** — every input is located via the catalog; remote replicas
   reserve contention-aware transfers (so schedulers that ignored locality
   pay here), are stored and catalog-registered only when the transfer
   *arrives*, and concurrent clones join in-flight transfers instead of
   paying twice; inputs are pinned in the node store for the duration;
2. **executes** — the runtime is sampled from the execution model (the
   policy planned with *estimates*; the sample is the noisy truth), then
   stretched by checkpoint overhead and DVFS; the fault injector may crash
   it partway through;
3. **finishes or dies** — the first clone to finish wins: outputs are
   registered locally (and archived under the archiving policy), sibling
   clones are preempted (their burnt busy time still counts toward
   energy), and successors may become ready.

An attempt whose every clone crashed loses work per the recovery policy
and the task re-enters the ready set (possibly for different devices)
until its retry budget is exhausted — at which point the run is marked
failed (the task appears in ``ExecutionResult.dead_tasks``) but keeps
draining so partial metrics stay meaningful.

With ``sanitize=True`` (or ``REPRO_SANITIZE=1`` in the environment) a
:class:`repro.sanitizer.Sanitizer` audits the run live through trace
hooks and raises on any violated accounting invariant.  With
``metrics=True`` (or ``REPRO_METRICS=1``) a
:class:`repro.observe.MetricsRegistry` observes the run through the same
hooks; its snapshot lands in ``ExecutionResult.metrics``.  Both are pure
observers — they never change a simulated outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.data.cache import EvictionError, NodeStore
from repro.data.catalog import ReplicaCatalog
from repro.data.staging import choose_source
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultModel
from repro.faults.recovery import RecoveryPolicy
from repro.platform.cluster import Cluster
from repro.platform.devices import Device
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder
from repro.workflows.graph import Workflow

#: Task lifecycle states.
PENDING = "pending"
READY = "ready"
RUNNING = "running"
DONE = "done"
DEAD = "dead"  # retry budget exhausted


@dataclass
class TaskRecord:
    """Execution history of one task.

    ``start`` is the *earliest* execution start across every clone and
    attempt (retries and hot replicas never overwrite it), ``finish`` the
    winning clone's completion time, and ``winner_duration`` the winning
    clone's own execution time — so ``finish - start`` includes staging
    waits and retry churn while ``winner_duration`` is pure compute.
    """

    name: str
    _state: str = PENDING
    attempts: int = 0
    device: Optional[str] = None
    start: Optional[float] = None
    finish: Optional[float] = None
    #: Execution seconds of the clone that completed the task.
    winner_duration: Optional[float] = None
    #: Fraction of the task's work already secured by checkpoints.
    progress_fraction: float = 0.0
    faults: int = 0
    #: Clones launched across all attempts (== attempts without replication).
    clones_launched: int = 0

    # Audit hook (class attribute, not a dataclass field): the sanitizer
    # installs a per-instance callback to observe state transitions.
    _observer = None

    @property
    def state(self) -> str:
        """Lifecycle state; assignments notify the sanitizer's observer.

        A property rather than a ``__setattr__`` hook so that writes to
        every *other* field skip the interception cost — records are
        updated on each clone transition, which made the hook hot.
        """
        return self._state

    @state.setter
    def state(self, value: str) -> None:
        observer = self._observer
        if observer is not None:
            observer(self, self._state, value)
        self._state = value


@dataclass
class _Clone:
    """Book-keeping for one in-flight copy of a task."""

    device: Device
    node: str
    dvfs_name: Optional[str]
    pins: List[str] = field(default_factory=list)
    event: Optional[object] = None  # pending EventHandle
    exec_start: Optional[float] = None


@dataclass
class ExecutionResult:
    """Outcome of one executed run."""

    success: bool
    makespan: float
    records: Dict[str, TaskRecord]
    trace: TraceRecorder
    task_faults: int = 0
    device_faults: int = 0
    retries: int = 0
    regenerations: int = 0
    preemptions: int = 0
    network_mb: float = 0.0
    staging_mb: float = 0.0
    evictions: int = 0
    #: Tasks whose retry budget was exhausted (sorted); non-empty implies
    #: ``success`` is False.
    dead_tasks: List[str] = field(default_factory=list)
    #: Simulation events fired over the run (deterministic).
    events: int = 0
    #: Metrics snapshot (:meth:`repro.observe.MetricsRegistry.snapshot`)
    #: when the run was instrumented; None otherwise.
    metrics: Optional[Dict[str, Any]] = None

    @property
    def completed_tasks(self) -> int:
        """Number of tasks that reached DONE."""
        return sum(1 for r in self.records.values() if r.state == DONE)

    def record(self, task: str) -> TaskRecord:
        """The record for a task name."""
        return self.records[task]


class WorkflowExecutor:
    """Discrete-event execution of one workflow on one cluster."""

    def __init__(
        self,
        workflow: Workflow,
        cluster: Cluster,
        policy: "object",
        seed: int = 0,
        recovery: Optional[RecoveryPolicy] = None,
        fault_model: Optional[FaultModel] = None,
        failure_horizon: Optional[float] = None,
        trace: Optional[TraceRecorder] = None,
        release_times: Optional[Dict[str, float]] = None,
        sanitize: Optional[bool] = None,
        metrics: Union[None, bool, "object"] = None,
    ) -> None:
        self.workflow = workflow
        self.cluster = cluster
        self.policy = policy
        self.release_times: Dict[str, float] = dict(release_times or {})
        self.recovery = recovery or RecoveryPolicy()
        self.fault_model = fault_model or FaultModel()
        self.failure_horizon = failure_horizon
        self.trace = trace if trace is not None else TraceRecorder()

        self.sim = Simulator()
        self.rng = RngStreams(seed)
        self.injector = FaultInjector(self.fault_model, self.rng)

        self.catalog = ReplicaCatalog()
        self.stores: Dict[str, NodeStore] = {
            n.name: NodeStore(n.name, n.spec.disk_capacity_gb * 1024.0)
            for n in cluster.nodes
        }

        self.records: Dict[str, TaskRecord] = {
            name: TaskRecord(name) for name in workflow.tasks
        }
        self.unfinished_preds: Dict[str, Set[str]] = {
            name: set(workflow.predecessors(name)) for name in workflow.tasks
        }
        self.ready: Set[str] = set()
        self.busy_devices: Set[str] = set()
        self._running_on: Dict[str, str] = {}  # device uid -> task
        self._clones: Dict[str, Dict[str, _Clone]] = {}  # task -> uid -> clone
        #: In-flight replica pulls: (node, file) -> arrival time.  Clones
        #: needing a file already on the wire join the pending transfer
        #: instead of paying for (and double-counting) a second one.
        self._inflight: Dict[Tuple[str, str], float] = {}
        self._run_failed = False
        self._retries = 0
        self._regenerations = 0
        self._task_faults = 0
        self._device_faults = 0
        self._preemptions = 0

        if sanitize is None:
            from repro.observe import env_flag

            sanitize = env_flag("REPRO_SANITIZE")
        self.sanitizer = None
        if sanitize:
            from repro.sanitizer import Sanitizer

            self.sanitizer = Sanitizer(self)
            self.sanitizer.attach()

        # Metrics: None defers to REPRO_METRICS; True builds a fresh
        # registry; a MetricsRegistry instance is used as-is (the
        # orchestrator passes one so planning wall-time lands in the same
        # snapshot).  Disabled runs carry self.metrics = None, so the hot
        # path pays a single attribute test.
        if metrics is None:
            from repro.observe import env_metrics

            metrics = env_metrics()
        self.metrics = None
        self._collector = None
        if metrics is not False:
            from repro.observe import MetricsCollector, MetricsRegistry

            self.metrics = (
                MetricsRegistry() if metrics is True else metrics
            )
            self._collector = MetricsCollector(self.metrics)
            self._collector.attach(self)

    # ------------------------------------------------------------------ #
    # public API                                                         #
    # ------------------------------------------------------------------ #

    def run(self, max_time: Optional[float] = None) -> ExecutionResult:
        """Execute the workflow to completion (or failure/timeout)."""
        for f in self.workflow.initial_files():
            if f.location is not None:
                # Born on a node: resolve it (fail loudly on bad names) and
                # seed both the catalog and the node store.
                node = self.cluster.node(f.location).name
                self.catalog.register(f.name, node)
                self.stores[node].put(f.name, f.size_mb)
            else:
                self.catalog.register(f.name, ReplicaCatalog.STORAGE)
        for name, preds in self.unfinished_preds.items():
            if not preds:
                self._maybe_ready(name)

        if self.fault_model.device_mtbf is not None:
            horizon = self.failure_horizon or 1e7
            alive = [d.uid for d in self.cluster.alive_devices()]
            for fault in self.injector.plan_device_failures(
                alive, horizon, max_failures=max(0, len(alive) - 1)
            ):
                self.sim.schedule_at(
                    fault.time, self._on_device_failure, fault, priority=-1
                )

        if hasattr(self.policy, "prepare"):
            self.policy.prepare(self)
        self._dispatch()
        self.sim.run(until=max_time)

        done = [r for r in self.records.values() if r.state == DONE]
        makespan = max((r.finish for r in done), default=0.0)
        dead = sorted(
            name for name, r in self.records.items() if r.state == DEAD
        )
        success = not dead and len(done) == len(self.records)
        result = ExecutionResult(
            success=success,
            makespan=makespan,
            records=self.records,
            trace=self.trace,
            task_faults=self._task_faults,
            device_faults=self._device_faults,
            retries=self._retries,
            regenerations=self._regenerations,
            preemptions=self._preemptions,
            network_mb=self.cluster.interconnect.total_traffic_mb(),
            staging_mb=self.cluster.storage_bytes_served_mb,
            evictions=sum(s.evictions for s in self.stores.values()),
            dead_tasks=dead,
            events=self.sim.events_fired,
        )
        if self.sanitizer is not None:
            self.sanitizer.finalize(result)
        if self._collector is not None:
            self._collector.finalize(result)
            result.metrics = self.metrics.snapshot()
        return result

    # ------------------------------------------------------------------ #
    # state helpers the policies consult                                 #
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    def free_devices(self) -> List[Device]:
        """Alive devices with no task assigned right now."""
        return [
            d for d in self.cluster.alive_devices()
            if d.uid not in self.busy_devices
        ]

    def ready_tasks(self) -> List[str]:
        """Currently ready task names, sorted for determinism."""
        return sorted(self.ready)

    def eligible(self, task_name: str, device: Device) -> bool:
        """Whether the task may run on the device right now."""
        task = self.workflow.tasks[task_name]
        return (
            not device.failed
            and self.cluster.execution_model.eligible(task, device.spec)
            and device.spec.memory_gb >= task.memory_gb
        )

    # ------------------------------------------------------------------ #
    # dispatch                                                           #
    # ------------------------------------------------------------------ #

    def _mark_ready(self, name: str) -> None:
        rec = self.records[name]
        if rec.state in (RUNNING, DONE, DEAD):
            return
        if self._device_faults and self._stranded(name):
            self._mark_dead(name, cause="stranded")
            return
        rec.state = READY
        self.ready.add(name)

    def _stranded(self, name: str) -> bool:
        """Whether no alive device can ever run the task."""
        return not any(
            self.eligible(name, d) for d in self.cluster.alive_devices()
        )

    def _mark_dead(self, name: str, cause: str) -> None:
        """Surface a task that can never complete; the run has failed."""
        self.ready.discard(name)
        self.records[name].state = DEAD
        self._run_failed = True
        self.trace.record(self.now, "task.dead", task=name, cause=cause)

    def _maybe_ready(self, name: str) -> None:
        """Mark ready now, or at the task's release time (online arrivals)."""
        release = self.release_times.get(name, 0.0)
        if release > self.now:
            self.sim.schedule_at(release, self._on_release, name, priority=0)
        else:
            self._mark_ready(name)

    def _on_release(self, name: str) -> None:
        if not self.unfinished_preds[name] and self.records[name].state == PENDING:
            self._mark_ready(name)
            self._dispatch()

    def _dispatch(self) -> None:
        """Ask the policy for assignments until it has none to give.

        Re-selects after every productive round: beginning a task can make
        *new* work ready in the same instant (a missing input sends the
        task to PENDING and marks its regenerated producer READY), and
        that work must get a dispatch opportunity now — the event queue
        may hold nothing else to trigger one later.
        """
        while self.ready:
            decisions = self.policy.select(self)
            progress = False
            for decision in decisions:
                task_name, device = decision[0], decision[1]
                dvfs = decision[2] if len(decision) > 2 else None
                if task_name not in self.ready:
                    continue
                if device.uid in self.busy_devices or device.failed:
                    continue
                self._begin_task(task_name, device, dvfs)
                progress = True
            if not progress:
                return

    def _begin_task(self, name: str, device: Device, dvfs_name: Optional[str]) -> None:
        # Missing inputs (lost to a node failure) force regeneration of the
        # producers; the task returns to PENDING until they finish again.
        missing = [
            fname for fname in self.workflow.tasks[name].inputs
            if not self.catalog.exists(fname)
        ]
        if missing:
            self.ready.discard(name)
            self.records[name].state = PENDING
            for fname in missing:
                self._regenerate_producer(fname, waiting_consumer=name)
            return

        self.ready.discard(name)
        rec = self.records[name]
        rec.state = RUNNING
        rec.attempts += 1
        rec.device = device.uid
        # rec.start is deliberately NOT reset: it keeps the true first
        # execution start across retries and replication.

        devices = [device]
        for extra in self._replica_devices(name, exclude=device):
            devices.append(extra)
        self._clones[name] = {}
        for d in devices:
            self._launch_clone(name, d, dvfs_name)

    def _replica_devices(self, name: str, exclude: Device) -> List[Device]:
        """Extra idle devices for hot replication (may be empty)."""
        want = self.recovery.replicate_tasks - 1
        if want <= 0:
            return []
        idle = [
            d for d in self.free_devices()
            if d.uid != exclude.uid and self.eligible(name, d)
        ]
        task = self.workflow.tasks[name]
        model = self.cluster.execution_model
        idle.sort(key=lambda d: (model.estimate(task, d.spec), d.uid))
        return idle[:want]

    # ------------------------------------------------------------------ #
    # clone lifecycle                                                    #
    # ------------------------------------------------------------------ #

    def _launch_clone(self, name: str, device: Device, dvfs_name: Optional[str]) -> None:
        node = device.node.name
        self.busy_devices.add(device.uid)
        self._running_on[device.uid] = name
        clone = _Clone(device=device, node=node, dvfs_name=dvfs_name)
        self._clones[name][device.uid] = clone
        self.records[name].clones_launched += 1

        arrival = self.now
        catalog = self.catalog
        store = self.stores[node]
        for fname, size_mb in self.workflow.io_sizes(name)[0]:
            if catalog.has(fname, node):
                store.touch(fname)
                if store.has(fname):
                    store.pin(fname)
                    clone.pins.append(fname)
                continue
            # Remote replica: the file only becomes local when the transfer
            # *arrives* — registration and storage happen then, never at
            # reservation time (a sibling clone launched in between must
            # not see the file as already present).  A transfer already on
            # the wire for this (node, file) is joined, not duplicated;
            # only a new reservation needs a source.
            end = self._inflight.get((node, fname))
            if end is None:
                source = choose_source(
                    catalog, self.cluster, fname, size_mb, node
                ).source
                if source == ReplicaCatalog.STORAGE:
                    _s, end = self.cluster.reserve_staging(
                        node, self.now, size_mb
                    )
                else:
                    _s, end = self.cluster.reserve_transfer(
                        source, node, self.now, size_mb
                    )
                self._inflight[(node, fname)] = end
                self.trace.record(
                    self.now, "transfer.start", file=fname,
                    src=source, dst=node, size_mb=size_mb, arrives=end,
                )
            arrival = max(arrival, end)
            self.sim.schedule_at(
                end, self._on_transfer_arrival, name, device.uid, node,
                fname, size_mb, priority=0,
            )

        self.trace.record(
            self.now, "task.stage", task=name, device=device.uid,
            until=arrival,
        )
        clone.event = self.sim.schedule_at(
            arrival, self._start_clone, name, device.uid, priority=1
        )

    def _on_transfer_arrival(
        self, name: str, device_uid: str, node: str, fname: str, size_mb: float
    ) -> None:
        """A reserved transfer delivered its bytes to the node.

        The file lands regardless of whether the requesting clone is still
        alive — the transfer was already paid for.  The clone (if alive)
        pins its input now that it is resident.
        """
        self._inflight.pop((node, fname), None)
        self._store_file(node, fname, size_mb)
        clone = self._clones.get(name, {}).get(device_uid)
        if (
            clone is not None
            and fname not in clone.pins
            and self.stores[node].has(fname)
        ):
            self.stores[node].pin(fname)
            clone.pins.append(fname)

    def _store_file(self, node: str, fname: str, size_mb: float) -> None:
        """Insert a replica into a node store, maintaining the catalog."""
        try:
            evicted = self.stores[node].put(fname, size_mb)
        except EvictionError:
            # The store cannot hold the file even after eviction; fall back
            # to streaming without caching (no catalog registration).
            self.trace.record(self.now, "store.overflow", node=node, file=fname)
            return
        for victim in evicted:
            self.catalog.unregister(victim, node)
            self.trace.record(self.now, "store.evict", node=node, file=victim)
        self.catalog.register(fname, node)

    def _start_clone(self, name: str, device_uid: str) -> None:
        clone = self._clones.get(name, {}).get(device_uid)
        if clone is None:  # pragma: no cover - cancelled before start
            return
        device = clone.device
        rec = self.records[name]
        if device.failed:
            # The device died between staging and start.
            self._clone_failed(name, device_uid, progress=0.0, cause="device")
            return
        task = self.workflow.tasks[name]
        model = self.cluster.execution_model
        dvfs = (
            device.spec.power.state(clone.dvfs_name)
            if clone.dvfs_name else None
        )
        full = model.sample(task, device.spec, self.rng.stream("exec-noise"), dvfs)
        remaining = full * (1.0 - rec.progress_fraction)
        duration = self.recovery.effective_duration(remaining)

        clone.exec_start = self.now
        if rec.start is None or self.now < rec.start:
            rec.start = self.now
        self.trace.record(
            self.now, "task.start", task=name, device=device.uid,
            attempt=rec.attempts, duration=duration,
        )

        crash_at = self.injector.task_failure_at(duration)
        if crash_at is not None:
            clone.event = self.sim.schedule(
                crash_at, self._on_clone_crash, name, device_uid, duration,
                crash_at, priority=0,
            )
        else:
            clone.event = self.sim.schedule(
                duration, self._on_clone_finish, name, device_uid, duration,
                priority=2,
            )

    def _clone_energy(self, clone: _Clone, busy_seconds: float) -> float:
        """Joules this clone burnt while executing."""
        device = clone.device
        dvfs = (
            device.spec.power.state(clone.dvfs_name)
            if clone.dvfs_name else None
        )
        return device.spec.power.busy_power(dvfs) * busy_seconds

    def _on_clone_finish(self, name: str, device_uid: str, duration: float) -> None:
        clone = self._clones.get(name, {}).get(device_uid)
        if clone is None:  # pragma: no cover - stale event
            return
        rec = self.records[name]
        device = clone.device

        rec.state = DONE
        rec.finish = self.now
        rec.device = device_uid
        # Keep rec.start as the earliest exec start (set in _start_clone);
        # the winner's own execution time is recorded separately.
        rec.winner_duration = duration
        rec.progress_fraction = 1.0
        # Account the true busy interval from the clone's recorded start:
        # reconstructing it as now - duration reintroduces float error that
        # can overlap the previous task's interval on this device.
        busy_from = (
            clone.exec_start if clone.exec_start is not None
            else self.now - duration
        )
        device.occupy(device.earliest_slot()[0], busy_from, self.now)
        self.trace.record(
            self.now, "task.finish", task=name, device=device.uid,
            duration=duration, energy_j=self._clone_energy(clone, duration),
            category=self.workflow.tasks[name].category,
        )
        self._release_clone(name, device_uid)

        # Preempt every sibling clone: the work is done.
        for sibling_uid in list(self._clones.get(name, {})):
            self._preempt_clone(name, sibling_uid)
        self._clones.pop(name, None)

        node = device.node.name
        for fname, size_mb in self.workflow.io_sizes(name)[1]:
            self._store_file(node, fname, size_mb)
            if self.recovery.archive_outputs:
                self.catalog.register(fname, ReplicaCatalog.STORAGE)
                self.trace.record(
                    self.now, "archive", file=fname, size_mb=size_mb
                )

        for child in self.workflow.successors(name):
            waiting = self.unfinished_preds[child]
            waiting.discard(name)
            if not waiting and self.records[child].state == PENDING:
                self._maybe_ready(child)
        if hasattr(self.policy, "on_task_done"):
            self.policy.on_task_done(self, name, device)
        self._dispatch()

    def _on_clone_crash(
        self, name: str, device_uid: str, duration: float, crash_at: float
    ) -> None:
        clone = self._clones.get(name, {}).get(device_uid)
        if clone is None:  # pragma: no cover - stale event
            return
        self._task_faults += 1
        self.records[name].faults += 1
        self.trace.record(
            self.now, "fault.task", task=name, device=device_uid,
            at_offset=crash_at,
            energy_j=self._clone_energy(clone, crash_at),
        )
        # Secure checkpointed progress: of the crash offset, only the part
        # up to the last checkpoint boundary survives.
        rec = self.records[name]
        if self.recovery.checkpointing and duration > 0:
            kept_seconds = crash_at - self.recovery.lost_work(crash_at)
            gained = (kept_seconds / duration) * (1.0 - rec.progress_fraction)
            rec.progress_fraction = min(1.0, rec.progress_fraction + gained)
        busy_from = (
            clone.exec_start if clone.exec_start is not None
            else self.now - crash_at
        )
        clone.device.occupy(
            clone.device.earliest_slot()[0], busy_from, self.now
        )
        self._clone_failed(name, device_uid, progress=crash_at, cause="fault")

    def _clone_failed(
        self, name: str, device_uid: str, progress: float, cause: str
    ) -> None:
        """Remove a dead clone; exhaust the attempt when none remain."""
        self._release_clone(name, device_uid)
        remaining = self._clones.get(name, {})
        if remaining:
            return  # siblings are still racing; the attempt survives
        self._clones.pop(name, None)
        rec = self.records[name]
        if rec.attempts > self.recovery.max_retries:
            self._mark_dead(name, cause="retries")
        elif self._device_faults and self._stranded(name):
            # Retries remain, but no alive device can run the task.
            self._mark_dead(name, cause="stranded")
        else:
            self._retries += 1
            rec.state = READY
            rec.device = None
            self.ready.add(name)
        self._dispatch()

    def _preempt_clone(self, name: str, device_uid: str) -> None:
        """Stop a losing clone; its burnt time still costs energy."""
        clone = self._clones.get(name, {}).get(device_uid)
        if clone is None:
            return
        if clone.event is not None:
            clone.event.cancel()
        if clone.exec_start is not None and self.now > clone.exec_start:
            burnt = self.now - clone.exec_start
            clone.device.occupy(
                clone.device.earliest_slot()[0], clone.exec_start, self.now
            )
            self.trace.record(
                self.now, "task.preempt", task=name, device=device_uid,
                duration=burnt, energy_j=self._clone_energy(clone, burnt),
            )
        self._preemptions += 1
        self._release_clone(name, device_uid)

    def _release_clone(self, name: str, device_uid: str) -> None:
        """Unpin, free the device and drop the clone entry."""
        clone = self._clones.get(name, {}).pop(device_uid, None)
        if clone is None:
            return
        if clone.event is not None:
            clone.event.cancel()
        for fname in clone.pins:
            if self.stores[clone.node].has(fname):
                self.stores[clone.node].unpin(fname)
        self.busy_devices.discard(device_uid)
        if self._running_on.get(device_uid) == name:
            self._running_on.pop(device_uid, None)

    # ------------------------------------------------------------------ #
    # failures & regeneration                                            #
    # ------------------------------------------------------------------ #

    def _on_device_failure(self, fault) -> None:
        try:
            device = self.cluster.device(fault.device_uid)
        except KeyError:  # pragma: no cover - defensive
            return
        if device.failed:
            return
        alive = [d for d in self.cluster.alive_devices() if d.uid != device.uid]
        if not alive:
            return  # never kill the last device
        device.failed = True
        self._device_faults += 1
        self.trace.record(self.now, "fault.device", device=device.uid)

        running = self._running_on.get(device.uid)
        if running is not None:
            clone = self._clones.get(running, {}).get(device.uid)
            progress = 0.0
            if clone is not None and clone.exec_start is not None:
                progress = self.now - clone.exec_start
                if progress > 0:
                    device.occupy(
                        device.earliest_slot()[0], clone.exec_start, self.now
                    )
            self.records[running].faults += 1
            self._task_faults += 1
            self.trace.record(
                self.now, "fault.task", task=running, device=device.uid,
                at_offset=progress, cause="device",
                energy_j=(
                    self._clone_energy(clone, progress) if clone else 0.0
                ),
            )
            self._clone_failed(running, device.uid, progress, cause="device")

        if fault.loses_local_data:
            node = device.node.name
            others_alive = any(
                not d.failed for d in device.node.devices if d.uid != device.uid
            )
            if not others_alive:
                for fname in self.stores[node].files():
                    if self.stores[node].is_pinned(fname):
                        continue
                    self.stores[node].remove(fname)
                    self.catalog.unregister(fname, node)
                    self.trace.record(
                        self.now, "data.lost", node=node, file=fname
                    )
        # Ready tasks stranded by this failure (no alive eligible device
        # left) can never run; surface the dead run instead of leaving
        # them READY forever.
        for name in sorted(self.ready):
            if self._stranded(name):
                self._mark_dead(name, cause="stranded")

        if hasattr(self.policy, "on_device_failure"):
            self.policy.on_device_failure(self, device)
        self._dispatch()

    def _regenerate_producer(self, fname: str, waiting_consumer: str) -> None:
        """Re-run the producer of a lost file; re-arm the dependency."""
        producer = self.workflow.producer_of(fname)
        if producer is None:
            # An initial file can never be lost (storage is durable), so
            # this indicates a logic error upstream.
            raise LookupError(f"initial file {fname!r} reported missing")
        self.unfinished_preds[waiting_consumer].add(producer)
        prec = self.records[producer]
        if prec.state == DONE:
            self._regenerations += 1
            prec.state = PENDING
            prec.progress_fraction = 0.0
            prec.finish = None
            self.trace.record(self.sim.now, "task.regenerate", task=producer)
            # Rebuild the producer's own dependency view lazily: preds are
            # DONE unless their outputs are also gone, which _begin_task
            # will discover when the producer is dispatched.
            self.unfinished_preds[producer] = set()
            self._mark_ready(producer)
        # If the producer is PENDING/READY/RUNNING it will complete anyway.
