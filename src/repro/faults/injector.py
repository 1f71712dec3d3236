"""Deterministic fault injection bound to named RNG streams.

One injector instance serves a whole run.  Task-failure draws consume the
``"faults.task"`` stream in execution order and device failures are drawn
once up front from ``"faults.device"``, so two runs with the same seed and
the same scheduler see identical fault sequences — the property the F5
policy comparison rests on.  Each stream is built on its first draw, so a
fault-free run builds neither; a stream's draws do not depend on when it
was built, since :class:`~repro.sim.rng.RngStreams` seeds it from the run
seed and its name.
"""

from __future__ import annotations

from typing import List, Optional

from repro.faults.models import DeviceFault, FaultModel
from repro.sim.rng import RngStreams


class FaultInjector:
    """Run-scoped source of fault decisions."""

    def __init__(self, model: FaultModel, rng: RngStreams) -> None:
        self.model = model
        self._rng = rng
        self.task_faults_injected = 0
        self.device_faults_injected = 0

    def task_failure_at(self, duration: float) -> Optional[float]:
        """Crash offset for one task execution (None = survives)."""
        if self.model.task_fault_rate <= 0:
            return None  # no draw, so the stream is never built
        t = self.model.draw_task_failure(
            self._rng.stream("faults.task"), duration
        )
        if t is not None:
            self.task_faults_injected += 1
        return t

    def plan_device_failures(
        self,
        device_uids: List[str],
        horizon: float,
        max_failures: Optional[int] = None,
    ) -> List[DeviceFault]:
        """Pre-draw the run's permanent device failures."""
        faults = self.model.draw_device_failures(
            self._rng.stream("faults.device"), device_uids, horizon,
            max_failures,
        )
        self.device_faults_injected += len(faults)
        return faults
