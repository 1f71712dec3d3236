"""Deterministic discrete-event simulation engine.

The engine maintains a virtual clock and a priority queue of pending events.
Events scheduled for the same instant are ordered first by an integer
``priority`` (lower runs first) and then by insertion order, which makes every
simulation run bit-for-bit reproducible regardless of hash randomization or
dict ordering.

Hot-path design (the event kernel):

* :class:`EventHandle` is a slot-based object ordered by ``(time, priority,
  seq)`` and pushed *directly* onto the heap — no per-event wrapper tuple,
  so scheduling allocates exactly one object.
* Cancellation is O(1): the handle is tombstoned in place and the live-event
  counter is decremented immediately, so :attr:`Simulator.pending` is an O(1)
  read that never counts cancelled entries still sitting in the heap.
* Tombstones are compacted lazily: when they outnumber live events (beyond a
  small floor) the heap is rebuilt from the survivors, keeping pop cost
  O(log live) instead of O(log total-ever-scheduled).
* :meth:`Simulator.run` drains the queue in a single batched loop — one heap
  pop per fired event — instead of the peek-then-step double traversal.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

#: Handle lifecycle states.  A fired handle is deliberately distinct from a
#: cancelled one so that a stale ``cancel()`` after firing is a no-op that
#: cannot corrupt the live-event accounting.
_PENDING = 0
_FIRED = 1
_CANCELLED = 2

#: Compaction floor: heaps smaller than this are never rebuilt.
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class EventHandle:
    """A cancellable reference to a scheduled event.

    Instances are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at` and live directly inside the engine's heap
    (they order by ``(time, priority, seq)``).  Cancelling a handle is O(1):
    the entry is tombstoned and skipped when it reaches the head of the
    queue.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "_state", "_sim")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self._state = _PENDING
        self._sim = sim

    def __lt__(self, other: "EventHandle") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def cancel(self) -> None:
        """Mark this event as cancelled; it will never fire.

        Idempotent, and a no-op on a handle that already fired — stale
        cancels from callers holding old handles never affect accounting.
        """
        if self._state != _PENDING:
            return
        self._state = _CANCELLED
        sim = self._sim
        if sim is not None:
            sim._note_cancel()

    @property
    def cancelled(self) -> bool:
        """True once the event can no longer fire (cancelled *or* fired)."""
        return self._state != _PENDING

    @property
    def active(self) -> bool:
        """True while the event is still pending (not cancelled, not fired)."""
        return self._state == _PENDING

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "pending", _FIRED: "fired", _CANCELLED: "cancelled"}[
            self._state
        ]
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<EventHandle t={self.time:.6g} {name} {state}>"


class Simulator:
    """Virtual clock plus event queue.

    Typical use::

        sim = Simulator()
        sim.schedule(5.0, on_task_done, task)
        sim.run()
        assert sim.now == 5.0

    The engine never advances time except by draining events, so ``now`` is
    always the timestamp of the most recently fired event (or the initial
    time if nothing has fired).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[EventHandle] = []
        self._seq = 0
        self._running = False
        self._events_fired = 0
        #: Live (pending) events currently in the queue.
        self._live = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (cancelled ones excluded)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of live events still waiting to fire.

        Cancelled entries (tombstones) may linger in the underlying queue
        until they reach the head or are compacted away, but the count is
        maintained incrementally and never includes them.
        """
        return self._live

    def _note_cancel(self) -> None:
        """A pending handle was tombstoned; keep the live count exact."""
        self._live -= 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap when tombstones dominate it."""
        n = len(self._queue)
        if n >= _COMPACT_MIN and self._live < n // 2:
            self._queue = [h for h in self._queue if h._state == _PENDING]
            heapq.heapify(self._queue)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` after ``now``.

        ``delay`` must be non-negative.  ``priority`` breaks ties among
        events at the same instant (lower fires first); the default 0 is
        appropriate for almost all callers.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        self._seq += 1
        handle = EventHandle(time, priority, self._seq, callback, args, self)
        heapq.heappush(self._queue, handle)
        self._live += 1
        return handle

    def step(self) -> bool:
        """Fire the single next pending event.

        Returns True if an event fired, False if the queue was empty.
        """
        queue = self._queue
        while queue:
            handle = heapq.heappop(queue)
            if handle._state != _PENDING:
                continue
            self._now = handle.time
            handle._state = _FIRED
            self._live -= 1
            self._events_fired += 1
            handle.callback(*handle.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event queue.

        ``until`` stops the run once the next event lies strictly beyond that
        time (the clock is then advanced to ``until``).  ``max_events`` bounds
        the number of events fired, as a runaway-simulation backstop.
        Returns the final virtual time.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        fired = 0
        queue = self._queue
        try:
            while queue:
                if max_events is not None and fired >= max_events:
                    break
                head = queue[0]
                if head._state != _PENDING:
                    heapq.heappop(queue)  # discard tombstone
                    continue
                if until is not None and head.time > until:
                    self._now = until
                    break
                heapq.heappop(queue)
                self._now = head.time
                head._state = _FIRED
                self._live -= 1
                self._events_fired += 1
                fired += 1
                head.callback(*head.args)
            if until is not None and self._now < until and self._live == 0:
                self._now = until
        finally:
            self._running = False
        return self._now

    def clear(self) -> None:
        """Cancel every pending event (the clock is left untouched)."""
        for handle in self._queue:
            if handle._state == _PENDING:
                handle._state = _CANCELLED
        self._queue.clear()
        self._live = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.6g} pending={self.pending}>"
