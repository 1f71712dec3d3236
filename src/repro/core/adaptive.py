"""Runtime adaptivity: monitor execution, re-plan the unstarted frontier.

:class:`AdaptivePolicy` starts from a static plan (HDWS by default) and
follows it like :class:`~repro.core.policies.StaticPolicy` — but it
watches actual completions.  When a task's real finish time drifts from
the plan by more than ``drift_threshold`` of the planned makespan (a
straggler, a fault retry, a mis-estimate), or when a device dies, every
task that has not started yet is re-planned from the current true state:
completed/running tasks are pinned at their actual placements and times,
device timelines are floored at *now*, and the frontier is re-scored with
the same heterogeneity-aware machinery the initial plan used.

This is the mechanism that makes HDWS degrade gracefully under estimate
error (F4): static plans inherit every profiling mistake, dynamic greedy
forgets the global structure, and frontier re-planning keeps both.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.hdws import HdwsScheduler
from repro.core.policies import Decision, ExecutionPolicy
from repro.platform.devices import Device
from repro.schedulers.base import Scheduler, SchedulingContext
from repro.schedulers.schedule import Schedule


class AdaptivePolicy(ExecutionPolicy):
    """Static plan + drift-triggered frontier rescheduling.

    The initial plan and every re-plan price placements through
    ``context``, built for the run's workflow and cluster (estimate
    error included).  The policy only reads it: its ranks and its
    optimistic cost table are the context's, shared with the planner.
    """

    def __init__(
        self,
        context: SchedulingContext,
        planner: Optional[Scheduler] = None,
        drift_threshold: float = 0.10,
        max_replans: int = 50,
        steal_tolerance: float = 1.5,
    ) -> None:
        self.planner = planner or HdwsScheduler()
        self.drift_threshold = drift_threshold
        self.max_replans = max_replans
        self.steal_tolerance = steal_tolerance
        self.replans = 0
        self.steals = 0
        self._context = context
        self._plan: Optional[Schedule] = None
        self._scale = 1e-9  # the drift test's: the plan's makespan, floored
        self._queues: Dict[str, List[str]] = {}
        self._dvfs: Dict[str, str] = {}
        self._oct: Optional[Dict[str, Dict[str, float]]] = None
        self._ranks: Dict[str, float] = {}
        self._topo_index: Dict[str, int] = {}
        #: Class-pressure cache; invalidated on device failure (the only
        #: event that changes the alive set it is computed from).
        self._pressure: Optional[Dict] = None

    # ------------------------------------------------------------------ #
    # policy interface                                                   #
    # ------------------------------------------------------------------ #

    def prepare(self, executor) -> None:
        """Compute the initial full plan."""
        self._plan = self.planner.schedule(self._context)
        self._scale = max(self._plan.makespan, 1e-9)
        self._dvfs = dict(self._plan.dvfs_choice)
        self._ranks = self._context.upward_ranks(use_best=True)
        self._topo_index = {
            n: i
            for i, n in enumerate(executor.workflow.topological_order())
        }
        self._rebuild_queues(self._plan)

    def select(self, executor) -> List[Decision]:
        """Dispatch plan-order queue heads, then steal for idle devices.

        Head dispatch follows the plan.  Work stealing then lets a free
        device take a ready task whose planned device is busy, provided the
        thief runs it within ``steal_tolerance`` of the planned device's
        estimate — bounded opportunism that removes the idle-wait penalty
        static plans pay under estimate error, without handing accelerator
        work to wildly unsuitable devices.
        """
        decisions: List[Decision] = []
        claimed_devices = set()
        claimed_tasks = set()
        for uid in sorted(self._queues):
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
                claimed_devices.add(uid)
                claimed_tasks.add(head)
        decisions.extend(self._steal(executor, claimed_devices, claimed_tasks))
        decisions.extend(self._rescue_orphans(executor, decisions))
        return decisions

    def _rescue_orphans(self, executor, decisions) -> List[Decision]:
        """Dispatch ready tasks that dropped out of every plan queue.

        A task can be queued nowhere: a re-plan treats RUNNING tasks as
        placed, so one whose clones all crash afterwards returns to READY
        with no queue holding it.  Head dispatch and stealing only serve
        queued tasks, so without this pass such a task would never run
        again and the simulation would stall with work still ready.
        """
        dispatched = {d[0] for d in decisions}
        used_devices = {d[1].uid for d in decisions}
        queued = {t for q in self._queues.values() for t in q}
        orphans = sorted(
            (t for t in executor.ready_tasks()
             if t not in dispatched and t not in queued),
            key=lambda t: (-self._ranks.get(t, 0.0), t),
        )
        if not orphans:
            return []
        rescued: List[Decision] = []
        idle = [
            d for d in executor.free_devices() if d.uid not in used_devices
        ]
        for task in orphans:
            row = self._context.exec_row(task)
            best = None
            for device in idle:
                est = row.get(device.uid)
                if est is None:
                    continue
                if best is None or est < best[0]:
                    best = (est, device)
            if best is not None:
                _est, device = best
                rescued.append((task, device, None))
                idle.remove(device)
        return rescued

    def _steal(self, executor, claimed_devices, claimed_tasks) -> List[Decision]:
        """Match idle devices with ready tasks stuck behind busy devices."""
        idle = [
            d for d in executor.free_devices()
            if d.uid not in claimed_devices
        ]
        if not idle:
            return []
        planned_on = {
            task: uid for uid, queue in self._queues.items() for task in queue
        }
        stealable = sorted(
            (t for t in executor.ready_tasks()
             if t not in claimed_tasks
             and planned_on.get(t) is not None
             and planned_on[t] not in claimed_devices
             and (planned_on[t] in executor.busy_devices
                  or executor.cluster.device(planned_on[t]).failed)),
            key=lambda t: (-self._ranks.get(t, 0.0), t),
        )
        decisions: List[Decision] = []
        ctx = self._context
        for task in stealable:
            if not idle:
                break
            row = ctx.exec_row(task)
            # A planned device the context does not price steals freely.
            planned_est = row.get(planned_on[task], float("inf"))
            best = None
            for device in idle:
                est = row.get(device.uid)
                if est is None:
                    continue
                if est <= planned_est * self.steal_tolerance:
                    if best is None or est < best[0]:
                        best = (est, device)
            if best is not None:
                _est, device = best
                decisions.append((task, device, None))
                idle.remove(device)
                self.steals += 1
                # The stolen task stays in its planned queue: the executor
                # may still reject this decision (e.g. the device was taken
                # by a replica fan-out this round), and eager removal would
                # orphan the task from every queue.  ``on_task_done``
                # removes it from wherever it lives once it completes, and
                # while RUNNING it is not in ``ready`` so head dispatch
                # cannot double-issue it.
        return decisions

    def on_task_done(self, executor, task_name: str, device: Device) -> None:
        """Pop the queue; re-plan when reality drifted from the plan."""
        queue = self._queues.get(device.uid)
        if queue and queue[0] == task_name:
            queue.pop(0)
        else:
            for q in self._queues.values():
                if task_name in q:
                    q.remove(task_name)
                    break
        planned = self._plan.assignments.get(task_name)
        if planned is None or self.replans >= self.max_replans:
            return
        actual = executor.records[task_name].finish
        if abs(actual - planned.finish) > self.drift_threshold * self._scale:
            self._replan(executor)

    def on_device_failure(self, executor, device: Device) -> None:
        """A dead device always forces a re-plan."""
        self._queues.pop(device.uid, None)
        self._pressure = None  # alive set changed; recompute on next use
        if self.replans < self.max_replans:
            self._replan(executor)

    # ------------------------------------------------------------------ #
    # frontier re-planning                                               #
    # ------------------------------------------------------------------ #

    def _replan(self, executor) -> None:
        """Re-score every unstarted task from the current true state."""
        self.replans += 1
        now = executor.now
        wf = executor.workflow
        ctx = self._context

        seeded = Schedule()
        unstarted: List[str] = []
        for name, rec in executor.records.items():
            if rec.state == "done":
                # rec.start is the task's *first* execution start, which
                # after a retry may lie on a different device; seed the
                # winning clone's own interval on the recorded device.
                if rec.winner_duration is not None:
                    started = rec.finish - rec.winner_duration
                else:
                    started = rec.start
                seeded.add(name, rec.device, min(started, rec.finish), rec.finish)
            elif rec.state == "running":
                # Seed the *current* attempt's interval: rec.start keeps
                # the task's first execution start, which after a retry
                # belongs to an earlier attempt (possibly on another
                # device).  A clone still staging inputs has no execution
                # start yet; treat `now` as its start.
                clones = executor._clones.get(name, {})
                clone = clones.get(rec.device)
                if clone is None and clones:
                    clone = next(iter(clones.values()))
                if clone is not None and clone.exec_start is not None:
                    started = clone.exec_start
                else:
                    started = now
                expected = self._expected_finish(executor, rec, started)
                seeded.add(name, rec.device, min(started, expected), expected)
                seeded.dvfs_choice.update(
                    {name: self._dvfs[name]} if name in self._dvfs else {}
                )
            elif rec.state == "dead":
                continue  # exhausted its retry budget; not plannable
            else:
                unstarted.append(name)

        # The past is not placeable: fill every device's idle time before
        # `now` with blocker intervals so gap-insertion cannot use it.
        for device in executor.cluster.devices:
            tl = seeded.timeline(device.uid)
            cursor = 0.0
            for s, e, _t in tl.intervals:
                gap_end = min(s, now)
                if gap_end > cursor + 1e-12:
                    tl.add(cursor, gap_end, "<blocked>")
                cursor = max(cursor, e)
            if now > cursor + 1e-12:
                tl.add(cursor, now, "<blocked>")

        # Ranks and topological indices only depend on the (immutable)
        # context, so every re-plan reuses the ones computed in prepare()
        # instead of re-ranking the whole DAG from scratch; the class
        # pressure is likewise reused until a device failure changes the
        # alive set it is derived from.
        ranks = self._ranks
        topo_index = self._topo_index
        unstarted.sort(key=lambda n: (-ranks[n], topo_index[n]))

        hdws = self.planner if isinstance(self.planner, HdwsScheduler) else HdwsScheduler()
        if self._pressure is None:
            self._pressure = (
                hdws._class_pressure(ctx) if hdws.use_scarcity else {}
            )
        contended = self._pressure
        if self._oct is None and hdws.use_lookahead:
            self._oct = hdws.lookahead_table(ctx)
        replica_node: Dict[str, Optional[str]] = {}
        for name, rec in executor.records.items():
            if rec.state == "done" and rec.device is not None:
                node = executor.cluster.device(rec.device).node.name
                for fname in wf.tasks[name].outputs:
                    replica_node[fname] = node

        alive = {d.uid for d in executor.cluster.alive_devices()}
        for name in unstarted:
            # EFT placement needs every predecessor's finish; a pred that
            # is dead (or was itself unplaceable) has no assignment, so
            # this task cannot be planned either.
            if any(
                pred not in seeded.assignments
                for pred in wf.predecessors(name)
            ):
                continue
            candidates = [
                cand
                for cand in hdws._candidates(
                    ctx, seeded, name, contended, replica_node, self._oct
                )
                if cand[0].uid in alive
            ]
            if not candidates:  # no alive eligible device remains
                continue
            device, start, finish = hdws._pick(candidates)
            seeded.add(name, device.uid, start, finish)
            node = executor.cluster.device(device.uid).node.name
            for fname in wf.tasks[name].outputs:
                replica_node[fname] = node

        # Keep the original DVFS choices for unstarted tasks if the planner
        # recorded any (HDWS itself does not).
        self._plan = seeded
        self._scale = max(seeded.makespan, 1e-9)
        self._rebuild_queues(seeded, skip_done_running=executor)

    def _expected_finish(self, executor, rec, started: float) -> float:
        """Best guess at a running task's finish for seeding the re-plan."""
        est = self._context.exec_time(rec.name, rec.device)
        expected = started + est
        if expected <= executor.now:
            # Already overdue: assume it needs as much again as planned.
            expected = executor.now + est * 0.5
        return expected

    def _rebuild_queues(self, plan: Schedule, skip_done_running=None) -> None:
        self._queues = {}
        for uid in plan.timelines:
            tasks = [t for t in plan.tasks_on(uid) if t != "<blocked>"]
            if skip_done_running is not None:
                tasks = [
                    t for t in tasks
                    if skip_done_running.records[t].state
                    not in ("done", "running", "dead")
                ]
            if tasks:
                self._queues[uid] = tasks
