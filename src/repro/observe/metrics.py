"""Metrics primitives: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a run-scoped namespace of named
instruments.  Everything here is *pure observation*: instruments are
updated from values the simulation already computed, never consulted by
it, so an instrumented run and a bare run produce bit-identical
simulation results (the determinism gate proves this with
``REPRO_METRICS=1``).

Two sections with different determinism contracts:

* ``counters`` / ``gauges`` / ``histograms`` — derived from virtual-time
  simulation state only.  Deterministic: same seed, same snapshot.
* ``profile`` — wall-clock measurements (scheduler planning time, run
  wall seconds, events/sec) read through the sanctioned
  :func:`repro.observe.clock.clock` shim.  Machine-dependent by nature;
  deterministic consumers must ignore this section.

Snapshots are plain JSON-native dicts with sorted keys, so two snapshots
of the same run compare with ``==``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Schema tag stamped into every snapshot.
SNAPSHOT_SCHEMA = "repro.metrics/v1"

#: Default histogram bucket upper bounds (seconds / MB / counts all fit
#: this decade ladder; the final +inf bucket is implicit).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0,
)


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative: counters never go down)."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (amount={amount})"
            )
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max sidecars.

    ``buckets`` are upper bounds in ascending order; an implicit final
    bucket catches everything above the last bound.  Fixed buckets keep
    snapshots mergeable and JSON-small regardless of sample volume.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count", "min", "max")

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name!r} buckets must be unique ascending bounds"
            )
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.total = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0 for an empty histogram)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-native snapshot of this histogram."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Run-scoped namespace of counters, gauges and histograms.

    Instruments are created on first use, so call sites never need
    registration boilerplate::

        metrics.inc("tasks.completed")
        metrics.observe("task.duration_s", 12.5)
        metrics.set_gauge("devices.alive", 9)

    ``profile(name, seconds)`` records wall-clock measurements into the
    separate machine-dependent section (see the module docstring).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._profile: Dict[str, float] = {}

    # ----------------------------------------------------------------- #
    # instrument accessors (create on first use)                        #
    # ----------------------------------------------------------------- #

    def counter(self, name: str) -> Counter:
        """The counter of that name (created at zero on first use)."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge of that name (created at zero on first use)."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """The histogram of that name (bucket bounds fixed on first use)."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, buckets)
        return h

    # ----------------------------------------------------------------- #
    # one-line update helpers                                           #
    # ----------------------------------------------------------------- #

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment a counter."""
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge."""
        self.gauge(name).set(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        """Record a histogram sample."""
        self.histogram(name, buckets).observe(value)

    def profile(self, name: str, seconds: float) -> None:
        """Record a wall-clock measurement (machine-dependent section)."""
        self._profile[name] = float(seconds)

    # ----------------------------------------------------------------- #
    # reads                                                             #
    # ----------------------------------------------------------------- #

    def value(self, name: str) -> float:
        """Current value of a counter or gauge (0.0 when absent)."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        return 0.0

    def names(self) -> List[str]:
        """Sorted names of every instrument (profile entries excluded)."""
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    def snapshot(self) -> Dict[str, Any]:
        """Flat JSON-native snapshot with sorted keys.

        The ``counters``/``gauges``/``histograms`` sections are
        deterministic for a given seeded run; ``profile`` is wall-clock
        and must be ignored by deterministic consumers.
        """
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": {
                k: self._counters[k].value for k in sorted(self._counters)
            },
            "gauges": {
                k: self._gauges[k].value for k in sorted(self._gauges)
            },
            "histograms": {
                k: self._histograms[k].as_dict()
                for k in sorted(self._histograms)
            },
            "profile": {k: self._profile[k] for k in sorted(self._profile)},
        }
