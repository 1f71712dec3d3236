"""The lease-based worker daemon: poll, lease, execute, complete.

A worker is a plain process holding its own :class:`JobStore` connection
(processes meet through sqlite WAL, never through shared Python state)
and a :class:`~repro.runner.pool.CampaignRunner` attached to the shared
result cache.  Its loop::

    poll:  tick the logical clock, reclaim expired leases, ask the
           health gate for admission
    lease: claim a batch of queued cells (atomic; never double-assigned);
           with none queued, wait for a commit that queues some
    run:   mark the batch running and hand the whole batch to the
           runner's ``run_sims_iter`` — the exact inline campaign path
           (same cache recall and hit policy, same construction, same
           retry/quarantine classification, same cache writes —
           byte-identical records by construction); an outcome the
           runner recalled lands ``cached``, and the lease heartbeats
           as executed outcomes stream in
    done:  token-guarded completion per cell; stale tokens mean the
           lease was reclaimed while we ran and our verdict is discarded

An idle worker waits on the store, not on the clock.  It sleeps out
its poll period in ~1 ms steps and after each one probes the store's
change counter (:meth:`JobStore.data_version`, which moves only when
another connection commits); when it moved and a cell is queued, the
worker leases at once.  This commit wake-up is the primary path: a
submission is picked up within about a millisecond.  A wake-up never
ticks the clock or reclaims — the timed poll stays the safety net that
does, once per processed lease and once per idle period that passes
without work — so the logical clock advances no faster however many
commits arrive, and a lease still expires after a count of polls.

Crash-safety needs no worker cooperation: a SIGKILLed worker simply
stops heartbeating and polling, every *other* worker's polls advance
the shared logical clock past its lease expiry, and the reclaim requeues
its unfinished cells exactly once.  Cells it had already completed are
terminal in the store and present in the content-addressed cache, so
the resumed cells' records are the cached bytes, not re-rolls.

The health gate is the admission controller: each poll asks the
runner's :class:`~repro.runner.health.HealthTracker` (which has observed
every outcome this worker produced) whether to keep leasing; a ``halt``
verdict releases the current lease back to the queue and stops the
worker — a blocked campaign drains by attrition instead of grinding
through poisoned cells.

Determinism hooks for the service smoke test: ``stall_after=N`` makes
the worker write a marker file after its N-th completed cell and then
spin without heartbeating or completing — a deterministic stand-in for
"worker wedged mid-batch", giving the harness a precise, race-free
moment to SIGKILL it with leases still held.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.observe.events import emit_event
from repro.runner.health import HALT, TRANSIENT
from repro.runner.pool import CampaignHaltedError, CampaignRunner
from repro.runner.record import CellFailure, is_failure_record
from repro.service.store import (
    CACHED,
    DONE,
    FAILED,
    JobStore,
    Lease,
    QUARANTINED,
)
from repro.service.wire import job_from_wire

#: How long an idle worker waits between polls (seconds; bounded wait,
#: not a clock *read* — the lease clock is the store's logical tick).
POLL_SLEEP_S = 0.05

#: The idle wait is this many sleeps of ``WAKE_STEP_S``, each followed
#: by a change probe.  Counting sleeps keeps the loop free of clock
#: reads; each sleep overshoots a little, so a period runs slightly
#: longer than ``POLL_SLEEP_S`` and the clock ticks no faster.
WAKE_STEP_S = 0.001
WAKE_STEPS = round(POLL_SLEEP_S / WAKE_STEP_S)

#: Default lease batch size and time-to-live (in logical ticks, i.e.
#: store polls by any worker).
DEFAULT_BATCH = 8
DEFAULT_TTL = 12


@dataclass
class WorkerStats:
    """What one worker did, for the exit report and the status API."""

    worker_id: str = ""
    polls: int = 0
    idle: int = 0  # poll periods that ran out with no work
    wakeups: int = 0  # leases taken on a commit wake-up
    leases: int = 0
    cells: int = 0
    done: int = 0
    cached: int = 0
    failed: int = 0
    quarantined: int = 0
    stale: int = 0
    reclaimed: int = 0
    released: int = 0
    halted: bool = False

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "worker_id": self.worker_id,
            "polls": self.polls,
            "idle": self.idle,
            "wakeups": self.wakeups,
            "leases": self.leases,
            "cells": self.cells,
            "done": self.done,
            "cached": self.cached,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "stale": self.stale,
            "reclaimed": self.reclaimed,
            "released": self.released,
            "halted": self.halted,
        }
        return out


class ServiceWorker:
    """One store-polling worker (see module doc for the loop)."""

    def __init__(
        self,
        store: JobStore,
        runner: CampaignRunner,
        *,
        worker_id: Optional[str] = None,
        batch: int = DEFAULT_BATCH,
        ttl: int = DEFAULT_TTL,
        stall_after: Optional[int] = None,
        stall_marker: Optional[str] = None,
        emit=None,
    ) -> None:
        if runner.failure_mode != "record":
            raise ValueError(
                "service workers need failure_mode='record': per-cell "
                "failures are store rows, not exceptions"
            )
        self.store = store
        self.runner = runner
        # Worker identity only needs to be unique among live workers on
        # this store; the pid is that, with no ambient entropy.
        self.worker_id = worker_id or f"w{os.getpid()}"
        self.batch = batch
        self.ttl = ttl
        self.stall_after = stall_after
        self.stall_marker = stall_marker
        self._emit = emit
        self._completed = 0
        self.stats = WorkerStats(worker_id=self.worker_id)

    def _say(self, message: str) -> None:
        if self._emit is not None:
            self._emit(f"[{self.worker_id}] {message}")

    # ---------------------------------------------------------------- #
    # the poll loop                                                    #
    # ---------------------------------------------------------------- #

    def run(
        self,
        *,
        keep_alive: bool = False,
        max_polls: Optional[int] = None,
    ) -> WorkerStats:
        """Poll until the store drains (default), halts, or the bound.

        ``keep_alive=True`` turns the worker into a daemon that keeps
        polling after a drain (a new submission wakes it within about a
        millisecond); ``max_polls`` bounds the loop either way — the
        harness safety net against a store that can never drain.
        """
        stats = self.stats
        while True:
            if max_polls is not None and stats.polls >= max_polls:
                self._say(f"poll bound {max_polls} reached; exiting")
                break
            stats.polls += 1
            self.store.tick()
            reclaimed = self.store.reclaim_expired()
            if reclaimed:
                stats.reclaimed += len(reclaimed)
                emit_event(
                    "service.reclaim", worker=self.worker_id,
                    cells=len(reclaimed),
                )
                self._say(f"reclaimed {len(reclaimed)} expired cell(s)")
            decision = self.runner.health.decide(
                context="worker-admission", worker=self.worker_id
            )
            if decision.action == HALT:
                stats.halted = True
                self._say(f"health gate halt: {decision.reason}; exiting")
                break
            # Probed before leasing, so a commit racing the lease query
            # still wakes the wait below.
            seen = self.store.data_version()
            lease = self.store.lease(self.worker_id, self.batch, self.ttl)
            if lease is None:
                if not keep_alive and self.store.drained():
                    self._say("store drained; exiting")
                    break
                lease = self._wait_for_lease(seen)
                if lease is None:
                    stats.idle += 1
                    continue
            stats.leases += 1
            stats.cells += len(lease)
            emit_event(
                "service.lease", worker=self.worker_id,
                cells=len(lease), token=lease.token,
            )
            try:
                self._process_lease(lease)
            except CampaignHaltedError as exc:
                stats.released += self.store.release(lease.token)
                stats.halted = True
                self._say(f"halted mid-lease: {exc}; cells released")
                break
            finally:
                # Anything the batch did not finish goes straight back
                # to the queue instead of waiting out the lease TTL.
                stats.released += self.store.release(lease.token)
        return stats

    def _wait_for_lease(self, seen: int) -> Optional[Lease]:
        """Wait out one poll period; lease as soon as work is committed.

        ``seen`` is the change probe read just before the poll's own
        lease query.  A wake-up is one indexed read and, when a cell is
        queued, one lease — never a tick or a reclaim.
        """
        for _ in range(WAKE_STEPS):
            time.sleep(WAKE_STEP_S)
            version = self.store.data_version()
            if version == seen:
                continue
            seen = version
            if self.store.has_queued():
                lease = self.store.lease(self.worker_id, self.batch, self.ttl)
                if lease is not None:
                    self.stats.wakeups += 1
                    return lease
        return None

    # ---------------------------------------------------------------- #
    # one lease                                                        #
    # ---------------------------------------------------------------- #

    def _process_lease(self, lease: Lease) -> None:
        """Execute one leased batch; every cell ends token-guarded."""
        token = lease.token
        self.store.mark_running(token)
        cells = list(lease.cells)
        jobs = [
            job_from_wire(cell.job, where=f"store cell {cell.key}")
            for cell in cells
        ]

        # The runner is the one reader of cached outcomes, so its hit
        # policy (``retry_failed`` included) holds here as inline;
        # ``recalled`` moving says this outcome came from the cache.
        recalled = self.runner.recalled
        for i, outcome in self.runner.run_sims_iter(
            jobs, failure_mode="record"
        ):
            cell = cells[i]
            record = outcome.to_dict()
            if self.runner.recalled != recalled:
                recalled = self.runner.recalled
                state = CACHED
            else:
                # Live leases never expire: the heartbeat pushes expiry
                # out by a full TTL every time a result lands.
                self.store.heartbeat(token, self.ttl)
                state = self._terminal_state(record)
            self._finish(cell.campaign_id, cell.key, token, state, record)

    @staticmethod
    def _terminal_state(record: Dict[str, Any]) -> str:
        """Map an execution outcome to its store state.

        Successes are ``done``.  Failures reuse the
        :class:`CellFailure` classification unchanged: a retryable
        (transient-category) failure that still failed means the retry
        loop gave up on the cell — ``quarantined``, like any failure
        that burned more than one attempt.  A first-attempt permanent/
        infrastructure verdict is a plain ``failed``.
        """
        if not is_failure_record(record):
            return DONE
        failure = CellFailure.from_dict(record)
        if failure.category == TRANSIENT or failure.attempts > 1:
            return QUARANTINED
        return FAILED

    def _finish(
        self,
        campaign_id: str,
        key: str,
        token: str,
        state: str,
        record: Dict[str, Any],
    ) -> None:
        """Token-guarded completion + stall hook + bookkeeping."""
        accepted = self.store.complete(
            campaign_id, key, token, state, result=record
        )
        stats = self.stats
        if not accepted:
            # The lease was reclaimed (worker presumed dead) while this
            # cell ran; whoever holds the live lease owns the verdict.
            stats.stale += 1
            self._say(f"stale token for {key}; verdict discarded")
            return
        if state == DONE:
            stats.done += 1
        elif state == CACHED:
            stats.cached += 1
        elif state == FAILED:
            stats.failed += 1
        else:
            stats.quarantined += 1
        self._completed += 1
        self._maybe_stall()

    def _maybe_stall(self) -> None:
        """The smoke test's deterministic crash window (see module doc)."""
        if self.stall_after is None or self._completed < self.stall_after:
            return
        if self.stall_marker:
            with open(self.stall_marker, "w", encoding="utf-8") as fh:
                fh.write(f"{self.worker_id} stalled at {self._completed}\n")
        self._say(
            f"stalling after {self._completed} cell(s); "
            "no further heartbeats"
        )
        while True:  # pragma: no cover - exited only by SIGKILL
            time.sleep(POLL_SLEEP_S)
