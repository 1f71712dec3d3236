"""Schedule representation: assignments plus per-device timelines.

A :class:`Schedule` is the contract between schedulers and the executor —
which device runs each task and the *estimated* start/finish times the
scheduler planned for.  Each device owns a :class:`DeviceTimeline` of
non-overlapping intervals supporting insertion-based gap search (the
"insertion policy" of HEFT-class algorithms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.intervals import IntervalError, IntervalIndex


@dataclass(frozen=True)
class Assignment:
    """One task's planned placement."""

    task: str
    device: str
    start: float
    finish: float

    def __post_init__(self) -> None:
        if self.finish < self.start:
            raise ValueError(
                f"assignment for {self.task!r} ends before it starts"
            )

    @property
    def duration(self) -> float:
        """Planned execution time."""
        return self.finish - self.start


class DeviceTimeline:
    """Sorted, non-overlapping occupation intervals on one device slot set.

    The timeline models a *serial* device (one task at a time), matching the
    single-slot devices used throughout the evaluation; multi-slot devices
    are represented by one timeline per slot at the scheduler layer.
    """

    def __init__(self, device: str) -> None:
        self.device = device
        self._index = IntervalIndex()

    def __len__(self) -> int:
        return len(self._index)

    @property
    def intervals(self) -> List[Tuple[float, float, str]]:
        """(start, end, task) triples in time order."""
        return self._index.intervals

    def free_at(self) -> float:
        """End of the last occupied interval (0 when empty)."""
        return self._index.last_end()

    def earliest_fit(
        self, ready: float, duration: float, allow_insertion: bool = True
    ) -> float:
        """Earliest start >= ready where ``duration`` fits.

        With insertion enabled the search considers gaps between existing
        intervals (bisect-indexed — see
        :meth:`repro.sim.intervals.IntervalIndex.earliest_fit`); otherwise
        only the tail of the timeline.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        return self._index.earliest_fit(ready, duration, allow_insertion)

    def add(self, start: float, end: float, task: str) -> None:
        """Occupy [start, end]; raises on overlap with an existing interval."""
        if end < start:
            raise ValueError(f"interval reversed for task {task!r}")
        try:
            self._index.add(start, end, task)
        except IntervalError:
            clash = self._index.overlapping(start, end)
            other = clash[0][2] if clash else "<unknown>"
            raise ValueError(
                f"task {task!r} overlaps {other!r} on device {self.device}"
            ) from None

    def busy_time(self) -> float:
        """Total occupied seconds."""
        return sum(e - s for s, e, _t in self._index)


class Schedule:
    """A complete mapping of workflow tasks onto cluster devices."""

    def __init__(self) -> None:
        self.assignments: Dict[str, Assignment] = {}
        self.timelines: Dict[str, DeviceTimeline] = {}
        #: Optional per-task DVFS state names chosen by energy-aware policies.
        self.dvfs_choice: Dict[str, str] = {}

    def timeline(self, device: str) -> DeviceTimeline:
        """The (possibly new) timeline for a device uid."""
        if device not in self.timelines:
            self.timelines[device] = DeviceTimeline(device)
        return self.timelines[device]

    def add(self, task: str, device: str, start: float, finish: float) -> Assignment:
        """Record a placement and occupy the device timeline."""
        if task in self.assignments:
            raise ValueError(f"task {task!r} already scheduled")
        a = Assignment(task, device, start, finish)
        self.timeline(device).add(start, finish, task)
        self.assignments[task] = a
        return a

    def device_of(self, task: str) -> str:
        """Device uid the task was placed on."""
        return self.assignments[task].device

    @property
    def makespan(self) -> float:
        """Planned overall completion time (0 for an empty schedule)."""
        if not self.assignments:
            return 0.0
        return max(a.finish for a in self.assignments.values())

    @property
    def n_tasks(self) -> int:
        """Number of scheduled tasks."""
        return len(self.assignments)

    def tasks_on(self, device: str) -> List[str]:
        """Tasks planned on a device, in start order."""
        tl = self.timelines.get(device)
        if tl is None:
            return []
        return [t for _s, _e, t in tl.intervals]

    def devices_used(self) -> List[str]:
        """Device uids with at least one task."""
        return [d for d, tl in self.timelines.items() if len(tl) > 0]

    def validate_against(self, workflow) -> None:
        """Check completeness and precedence feasibility.

        Every workflow task must be scheduled, and no task may start before
        every predecessor's planned finish (communication delays may push
        starts later; they can never allow earlier starts).
        """
        missing = set(workflow.tasks) - set(self.assignments)
        if missing:
            raise ValueError(f"schedule misses tasks: {sorted(missing)[:5]}...")
        extra = set(self.assignments) - set(workflow.tasks)
        if extra:
            raise ValueError(f"schedule has unknown tasks: {sorted(extra)[:5]}...")
        for name, a in self.assignments.items():
            for pred in workflow.predecessors(name):
                if self.assignments[pred].finish > a.start + 1e-9:
                    raise ValueError(
                        f"precedence violation: {name!r} starts at {a.start:.6g} "
                        f"before predecessor {pred!r} finishes at "
                        f"{self.assignments[pred].finish:.6g}"
                    )

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"schedule: {self.n_tasks} tasks on {len(self.devices_used())} "
            f"devices, makespan {self.makespan:.2f}s"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Schedule tasks={self.n_tasks} makespan={self.makespan:.3f}>"
