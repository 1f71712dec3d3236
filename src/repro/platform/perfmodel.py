"""Task execution-time model on heterogeneous devices.

The model maps (task, device spec) to a runtime.  Three ingredients:

* **Work & affinity** — each task carries ``work`` in Gop and a per
  device-class *affinity* multiplier: effective speed on a device is
  ``spec.speed * affinity[class]``.  Affinity 0 (or absence, for
  non-CPU classes) marks the class ineligible.  This is how "a GEMM stage is
  20x on GPU, an I/O stage is not" enters the system.
* **Launch overhead** — accelerators pay a fixed per-task offload overhead
  (kernel launch, DMA setup, FPGA pipeline fill), so short tasks do not
  benefit from them.  The crossover this induces is load-bearing for the
  heterogeneity experiments (F3).
* **Noise** — actual runtimes are the estimate times a lognormal factor;
  schedulers see the deterministic estimate, the executor samples the noisy
  truth.  Systematically wrong profiling (experiment F4) is modelled by
  the estimates schedulers see
  (:class:`~repro.schedulers.base.SchedulingContext`), not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.platform.devices import DeviceClass, DeviceSpec
from repro.platform.power import DvfsState

#: Default per-class launch overhead in seconds.
DEFAULT_OVERHEADS: Dict[DeviceClass, float] = {
    DeviceClass.CPU: 0.0,
    DeviceClass.GPU: 0.05,
    DeviceClass.FPGA: 0.20,
    DeviceClass.TPU: 0.08,
    DeviceClass.DSP: 0.01,
    DeviceClass.MANYCORE: 0.005,
}


@dataclass
class ExecutionModel:
    """Computes task runtimes on device specs.

    Attributes:
        overheads: Per-device-class fixed launch overhead (seconds).
        noise_cv: Coefficient of variation of the lognormal runtime noise
            applied by :meth:`sample`; 0 disables noise.
    """

    overheads: Dict[DeviceClass, float] = field(
        default_factory=lambda: dict(DEFAULT_OVERHEADS)
    )
    noise_cv: float = 0.0
    #: ``(cv, mu, sigma)`` of the last noise level sampled.
    _noise: tuple = field(
        default=(None, 0.0, 0.0), init=False, repr=False, compare=False
    )

    def eligible(self, task, spec: DeviceSpec) -> bool:
        """Whether ``task`` may run on devices of ``spec``'s class."""
        return task.affinity_for(spec.device_class) > 0.0

    def effective_speed(
        self, task, spec: DeviceSpec, dvfs: Optional[DvfsState] = None
    ) -> float:
        """Gop/s the device delivers to this particular task."""
        affinity = task.affinity_for(spec.device_class)
        if affinity <= 0.0:
            return 0.0
        speed = spec.speed * affinity
        if dvfs is not None:
            speed *= dvfs.freq_scale
        return speed

    def estimate(
        self, task, spec: DeviceSpec, dvfs: Optional[DvfsState] = None
    ) -> float:
        """Deterministic runtime estimate used by schedulers.

        Raises ValueError for ineligible (task, device-class) pairs so that
        scheduler bugs surface instead of producing zero-cost placements.
        """
        speed = self.effective_speed(task, spec, dvfs)
        if speed <= 0.0:
            raise ValueError(
                f"task {task.name!r} is not eligible on class {spec.device_class}"
            )
        return self.overheads.get(spec.device_class, 0.0) + task.work / speed

    def sample(
        self,
        task,
        spec: DeviceSpec,
        rng: np.random.Generator,
        dvfs: Optional[DvfsState] = None,
    ) -> float:
        """Actual (noisy) runtime drawn for one execution."""
        base = self.estimate(task, spec, dvfs)
        cv = self.noise_cv
        if cv <= 0.0:
            return base
        noise = self._noise
        if noise[0] != cv:
            noise = self._noise = (cv,) + _lognormal_params(cv)
        return base * float(rng.lognormal(mean=noise[1], sigma=noise[2]))


def _lognormal_params(cv: float) -> tuple:
    """``(mu, sigma)`` of the unit-mean lognormal with variation ``cv``."""
    sigma2 = np.log(1.0 + cv * cv)
    return -0.5 * sigma2, np.sqrt(sigma2)
