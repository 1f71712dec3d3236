"""Execution policies: who decides what runs where at runtime.

The executor (mechanism) consults a policy (decision maker) whenever state
changes.  Three families:

* :class:`StaticPolicy` — follow a precomputed :class:`Schedule` in plan
  order, with *repair* when devices die (queued tasks of a dead device
  are redistributed).  Plan-order dispatch is deadlock-free even
  under runtime noise: per-device plan order is consistent with a global
  schedule, so any circular wait would contradict the plan's own
  start/finish ordering.
* :class:`DynamicMctPolicy` — ignore any plan; map ready tasks to free
  devices just-in-time by greedy minimum completion time (optionally
  locality-aware: the staging cost of inputs, looked up in the live
  replica catalog, joins the estimate).
* :class:`~repro.core.adaptive.AdaptivePolicy` — start from a plan, but
  monitor progress and reschedule the not-yet-started frontier when
  reality diverges (stragglers, faults).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple

from repro.data.staging import choose_source
from repro.platform.devices import Device
from repro.schedulers.base import SchedulingContext
from repro.schedulers.schedule import Schedule

#: A dispatch decision: (task name, device, optional DVFS state name).
Decision = Tuple[str, Device, Optional[str]]


class ExecutionPolicy(abc.ABC):
    """Interface the executor consults for dispatch decisions."""

    def prepare(self, executor) -> None:
        """One-time hook before execution starts."""

    @abc.abstractmethod
    def select(self, executor) -> List[Decision]:
        """Dispatch decisions for the current (ready tasks, free devices)."""

    def on_task_done(self, executor, task_name: str, device: Device) -> None:
        """Hook fired after every task completion."""

    def on_device_failure(self, executor, device: Device) -> None:
        """Hook fired after a permanent device failure."""


class StaticPolicy(ExecutionPolicy):
    """Execute a precomputed schedule in plan order (with repair)."""

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule
        self._queues: Dict[str, List[str]] = {}
        self._dvfs = dict(schedule.dvfs_choice)
        self._uids: List[str] = []
        self._queued: set = set()

    def prepare(self, executor) -> None:
        """Build per-device FIFO queues from the planned timelines."""
        self._queues = {
            uid: self.schedule.tasks_on(uid)
            for uid in self.schedule.timelines
        }
        # Select runs on every state change; the device order and the
        # queued-task membership are maintained incrementally instead of
        # being rebuilt per call.
        self._uids = sorted(self._queues)
        self._queued = {t for q in self._queues.values() for t in q}

    def select(self, executor) -> List[Decision]:
        """Dispatch every device whose queue head is ready."""
        self._requeue_orphans(executor)
        decisions: List[Decision] = []
        for uid in self._uids:
            queue = self._queues[uid]
            if not queue:
                continue
            try:
                device = executor.cluster.device(uid)
            except KeyError:  # pragma: no cover - defensive
                continue
            if device.failed or uid in executor.busy_devices:
                continue
            head = queue[0]
            if head in executor.ready:
                decisions.append((head, device, self._dvfs.get(head)))
        return decisions

    def _requeue_orphans(self, executor) -> None:
        """Put ready-but-unqueued tasks back into a plan queue.

        A regenerated producer (its output was lost to a node failure) was
        popped from its queue when it first completed; without requeueing
        it would never dispatch again and the run would stall.  It goes to
        the head of its planned device's queue — its planned start lies in
        the past and a consumer is already waiting on it.
        """
        if executor.ready <= self._queued:
            return
        for name in executor.ready_tasks():
            if name in self._queued:
                continue
            planned = self.schedule.assignments.get(name)
            uid = planned.device if planned is not None else None
            queue = None
            if uid is not None and uid in self._queues:
                try:
                    if not executor.cluster.device(uid).failed:
                        queue = self._queues[uid]
                except KeyError:  # pragma: no cover - defensive
                    queue = None
            if queue is None:
                candidates = [
                    d for d in executor.cluster.alive_devices()
                    if executor.eligible(name, d)
                ]
                if not candidates:
                    continue
                target = min(candidates, key=lambda d: d.uid)
                if target.uid not in self._queues:
                    self._queues[target.uid] = []
                    self._uids = sorted(self._queues)
                queue = self._queues[target.uid]
            queue.insert(0, name)
            self._queued.add(name)

    def on_task_done(self, executor, task_name: str, device: Device) -> None:
        """Pop the completed task from its queue."""
        self._queued.discard(task_name)
        queue = self._queues.get(device.uid)
        if queue and queue[0] == task_name:
            queue.pop(0)
        else:  # repaired tasks may complete on a different device
            for q in self._queues.values():
                if task_name in q:
                    q.remove(task_name)
                    break

    def on_device_failure(self, executor, device: Device) -> None:
        """Redistribute the dead device's remaining queue."""
        dead_queue = self._queues.pop(device.uid, [])
        self._uids = sorted(self._queues)
        self._queued.difference_update(dead_queue)
        if not dead_queue:
            return
        load: Dict[str, float] = {
            uid: sum(
                self.schedule.assignments[t].duration
                for t in q if t in self.schedule.assignments
            )
            for uid, q in self._queues.items()
        }
        for task_name in dead_queue:
            candidates = [
                d for d in executor.cluster.alive_devices()
                if executor.eligible(task_name, d) and d.uid in self._queues
            ]
            if not candidates:
                candidates = [
                    d for d in executor.cluster.alive_devices()
                    if executor.eligible(task_name, d)
                ]
                for d in candidates:
                    self._queues.setdefault(d.uid, [])
                    load.setdefault(d.uid, 0.0)
            if not candidates:
                continue  # task is DEAD-ended; executor will report failure
            target = min(candidates, key=lambda d: (load.get(d.uid, 0.0), d.uid))
            self._queues.setdefault(target.uid, []).append(task_name)
            self._queued.add(task_name)
            planned = self.schedule.assignments.get(task_name)
            load[target.uid] = load.get(target.uid, 0.0) + (
                planned.duration if planned else 0.0
            )
        # Re-sort every queue by planned start time.  Appending to tails
        # can put a task behind its own descendant in one queue, and the
        # head-of-line dispatch would then deadlock; planned starts are a
        # valid topological order (plan: start(child) >= finish(parent)).
        def planned_start(task_name: str) -> float:
            a = self.schedule.assignments.get(task_name)
            return a.start if a is not None else float("inf")

        for uid in self._queues:
            self._queues[uid].sort(key=lambda t: (planned_start(t), t))
        self._uids = sorted(self._queues)


class DynamicMctPolicy(ExecutionPolicy):
    """Just-in-time greedy minimum-completion-time mapping.

    Ready tasks are considered in decreasing upward rank (so the critical
    path keeps priority); each is matched to the free eligible device
    minimizing estimated completion, optionally including live staging
    costs from the replica catalog.  Estimates come from ``context``,
    built for the run's workflow and cluster (estimate error included).
    """

    def __init__(
        self,
        context: SchedulingContext,
        locality_aware: bool = False,
    ) -> None:
        self.locality_aware = locality_aware
        self._context = context
        self._ranks: Dict[str, float] = {}

    def prepare(self, executor) -> None:
        """Precompute task priorities."""
        self._ranks = self._context.upward_ranks()

    def select(self, executor) -> List[Decision]:
        """Greedy match of ready tasks to free devices.

        Free devices are alive, so the context's estimate row decides
        eligibility.  Staging is priced once per (task, node): the
        catalog cannot change inside a call.
        """
        free = sorted((d.uid, d) for d in executor.free_devices())
        if not free:
            return []
        decisions: List[Decision] = []
        order = sorted(
            executor.ready_tasks(), key=lambda n: (-self._ranks[n], n)
        )
        for name in order:
            if not free:
                break
            row = self._context.exec_row(name)
            staging: Dict[str, float] = {}
            best = None
            for i, (uid, device) in enumerate(free):
                cost = row.get(uid)
                if cost is None:
                    continue
                if self.locality_aware:
                    node = device.node.name
                    node_cost = staging.get(node)
                    if node_cost is None:
                        node_cost = staging[node] = self._staging_cost(
                            executor, name, node
                        )
                    cost += node_cost
                if best is None or cost < best[0] - 1e-15:
                    best = (cost, i, device)
            if best is not None:
                _cost, i, device = best
                decisions.append((name, device, None))
                del free[i]
        return decisions

    def _staging_cost(self, executor, name: str, node: str) -> float:
        """Estimated cost of pulling the task's inputs to ``node``."""
        total = 0.0
        for fname, size_mb in executor.workflow.io_sizes(name)[0]:
            try:
                total += choose_source(
                    executor.catalog, executor.cluster, fname, size_mb, node
                ).cost
            except LookupError:
                # Not produced yet/lost; regeneration is the executor's job.
                continue
        return total
