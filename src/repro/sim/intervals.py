"""Sorted interval index shared by scheduler timelines and runtime audits.

Every layer that reasons about per-device busy time needs the same three
primitives over a set of ``[start, end]`` intervals:

* *earliest fit* — the first start ``>= ready`` where a duration fits,
  considering the gaps between existing intervals (HEFT-family insertion);
* *overlap insert/remove* — maintain a set of non-overlapping intervals
  with loud failure on double-booking;
* *peak overlap* — the maximum number of simultaneously open intervals
  (the slot-oversubscription audit of both the runtime sanitizer and the
  static schedule auditor).

:class:`IntervalIndex` keeps the intervals sorted by start and answers all
queries with ``bisect`` — the linear sweeps it replaces were the simulator
kernel's per-placement hot path.  The semantics are *exactly* those of the
replaced sweeps (including float-exact touching endpoints and the 1e-12
overlap tolerance); ``tests/test_interval_index.py`` property-tests that
equivalence against retained linear reference implementations.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Sequence, Tuple

#: Two intervals may share an endpoint; anything deeper than this is overlap.
OVERLAP_TOL = 1e-12


class IntervalError(ValueError):
    """Raised when an insert would double-book an interval."""


class IntervalIndex:
    """Non-overlapping ``(start, end, tag)`` intervals sorted by start.

    The index models a *serial* resource (one occupant at a time); peak
    overlap over an arbitrary multiset of intervals — the multi-slot audit
    case — goes through the free function :func:`max_overlap` instead.
    """

    __slots__ = ("_starts", "_intervals")

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._intervals: List[Tuple[float, float, object]] = []

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self):
        return iter(self._intervals)

    @property
    def intervals(self) -> List[Tuple[float, float, object]]:
        """(start, end, tag) triples in start order (a copy)."""
        return list(self._intervals)

    def last_end(self) -> float:
        """End of the last interval in start order (0.0 when empty)."""
        return self._intervals[-1][1] if self._intervals else 0.0

    # ---------------------------------------------------------------- #
    # mutation                                                         #
    # ---------------------------------------------------------------- #

    def add(self, start: float, end: float, tag: object = None) -> None:
        """Insert ``[start, end]``; :class:`IntervalError` on overlap.

        Touching endpoints (``prev.end == start`` exactly, or within
        :data:`OVERLAP_TOL`) are allowed — a serial resource can start one
        occupant the instant the previous one ends.
        """
        if end < start:
            raise IntervalError(f"interval reversed: [{start}, {end}]")
        idx = bisect.bisect_left(self._starts, start)
        if idx > 0:
            _ps, pe, pt = self._intervals[idx - 1]
            if pe > start + OVERLAP_TOL:
                raise IntervalError(
                    f"interval [{start:.6g}, {end:.6g}] overlaps "
                    f"[{_ps:.6g}, {pe:.6g}] (tag {pt!r})"
                )
        if idx < len(self._intervals):
            ns, _ne, nt = self._intervals[idx]
            if end > ns + OVERLAP_TOL:
                raise IntervalError(
                    f"interval [{start:.6g}, {end:.6g}] overlaps "
                    f"[{ns:.6g}, {_ne:.6g}] (tag {nt!r})"
                )
        self._starts.insert(idx, start)
        self._intervals.insert(idx, (start, end, tag))

    def remove(self, start: float, end: float, tag: object = None) -> None:
        """Remove the exact ``(start, end, tag)`` entry; KeyError if absent."""
        idx = bisect.bisect_left(self._starts, start)
        while idx < len(self._intervals) and self._intervals[idx][0] == start:
            s, e, t = self._intervals[idx]
            if e == end and t == tag:
                del self._starts[idx]
                del self._intervals[idx]
                return
            idx += 1
        raise KeyError(f"no interval ({start}, {end}, {tag!r}) in index")

    # ---------------------------------------------------------------- #
    # queries                                                          #
    # ---------------------------------------------------------------- #

    def earliest_fit(
        self, ready: float, duration: float, allow_insertion: bool = True
    ) -> float:
        """Earliest start ``>= ready`` where ``duration`` fits.

        With insertion enabled the search considers gaps between existing
        intervals; otherwise only the tail.  Bisect skips every gap that
        provably cannot host the placement: a gap whose *following*
        interval starts before ``ready`` would need ``ready + duration <=
        next_start < ready`` — impossible for non-negative durations — so
        the scan starts at the interval straddling ``ready``.
        """
        if duration < 0:
            raise IntervalError("duration must be non-negative")
        intervals = self._intervals
        if not allow_insertion or not intervals:
            return max(ready, self.last_end())
        if ready + duration <= intervals[0][0]:
            return ready
        lo = bisect.bisect_left(self._starts, ready) - 1
        if lo < 0:
            lo = 0
        for i in range(lo, len(intervals) - 1):
            e0 = intervals[i][1]
            s1 = intervals[i + 1][0]
            gap_start = ready if ready > e0 else e0
            if gap_start + duration <= s1:
                return gap_start
        return max(ready, self.last_end())

    def overlapping(self, start: float, end: float) -> List[Tuple[float, float, object]]:
        """Intervals strictly overlapping ``(start, end)`` (touching excluded)."""
        out = []
        # First interval that could overlap: its start is < end, and every
        # interval ending at/before `start` is out — walk back one from the
        # bisect point to catch the straddler.
        idx = bisect.bisect_left(self._starts, start)
        if idx > 0:
            idx -= 1
        for s, e, t in self._intervals[idx:]:
            if s >= end:
                break
            if e > start and s < end:
                out.append((s, e, t))
        return out


def max_overlap(intervals: Iterable[Tuple[float, float]]) -> int:
    """Peak number of simultaneously open ``(start, end)`` intervals.

    Zero-length intervals are ignored, and an interval ending at the exact
    instant another begins does not count as overlap (ends sort before
    starts at ties).  This is the one sweep shared verbatim by the
    executor-side sanitizer audit (``Device.max_concurrent_intervals``) and
    the plan-side schedule auditor (``schedule-slot-overflow``).
    """
    events: List[Tuple[float, int]] = []
    for start, end in intervals:
        if end > start:
            events.append((start, 1))
            events.append((end, -1))
    events.sort(key=lambda ev: (ev[0], ev[1]))
    current = peak = 0
    for _time, delta in events:
        current += delta
        if current > peak:
            peak = current
    return peak
