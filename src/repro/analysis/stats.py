"""Repetition statistics for the benchmark harness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Mean, spread and range of one repeated measurement."""

    n: int
    mean: float
    std: float
    ci95: float
    minimum: float
    maximum: float

    def as_dict(self) -> Dict[str, float]:
        """Flat-dict view for table assembly."""
        return {
            "n": float(self.n),
            "mean": self.mean,
            "std": self.std,
            "ci95": self.ci95,
            "min": self.minimum,
            "max": self.maximum,
        }


def summarize(values: Sequence[float]) -> Summary:
    """Summary statistics of a sample (ddof=1 std; normal-approx CI)."""
    vals = np.asarray(list(values), dtype=float)
    if vals.size == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = float(vals.mean())
    std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
    ci95 = 1.96 * std / math.sqrt(vals.size) if vals.size > 1 else 0.0
    return Summary(
        n=int(vals.size),
        mean=mean,
        std=std,
        ci95=ci95,
        minimum=float(vals.min()),
        maximum=float(vals.max()),
    )


def confidence_interval(values: Sequence[float]) -> float:
    """Half-width of the 95% normal-approximation CI."""
    return summarize(values).ci95


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the right way to average ratios like SLR)."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("cannot take the geometric mean of nothing")
    if any(v <= 0 for v in vals):
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(vals))))


class StreamingSummary:
    """Welford accumulator: :func:`summarize` in O(1) memory.

    Feeds one value at a time (the streaming-campaign aggregation path,
    where records arrive cell-by-cell and the series never exists as a
    list).  ``result()`` agrees with :func:`summarize` over the same
    series to ~1e-12 relative — the Welford recurrence and numpy's
    two-pass moments differ only in rounding.
    """

    __slots__ = ("n", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        v = float(value)
        self.n += 1
        delta = v - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (v - self.mean)
        if v < self.minimum:
            self.minimum = v
        if v > self.maximum:
            self.maximum = v

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.add(v)

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1), 0.0 below two samples."""
        if self.n < 2:
            return 0.0
        # Rounding can push m2 infinitesimally negative on constant series.
        return math.sqrt(max(self._m2, 0.0) / (self.n - 1))

    @property
    def ci95(self) -> float:
        if self.n < 2:
            return 0.0
        return 1.96 * self.std / math.sqrt(self.n)

    def result(self) -> Summary:
        """The finished :class:`Summary`; raises on an empty stream."""
        if self.n == 0:
            raise ValueError("cannot summarize an empty sample")
        return Summary(
            n=self.n,
            mean=self.mean,
            std=self.std,
            ci95=self.ci95,
            minimum=self.minimum,
            maximum=self.maximum,
        )


class StreamingGeomean:
    """Log-sum accumulator: :func:`geometric_mean` in O(1) memory."""

    __slots__ = ("n", "_log_sum")

    def __init__(self) -> None:
        self.n = 0
        self._log_sum = 0.0

    def add(self, value: float) -> None:
        v = float(value)
        if v <= 0:
            raise ValueError("geometric mean requires strictly positive values")
        self.n += 1
        self._log_sum += math.log(v)

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.add(v)

    def result(self) -> float:
        if self.n == 0:
            raise ValueError("cannot take the geometric mean of nothing")
        return math.exp(self._log_sum / self.n)
