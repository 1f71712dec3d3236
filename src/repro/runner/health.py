"""Campaign health model, policy gate and runway admission control.

A million-cell campaign runs unattended; nobody watches a terminal for a
poison cell or a disk filling up.  This module is the *decision layer*
that replaces the human: it folds the stream of per-cell outcomes into a
small, explainable **health state**, and a single **policy gate** turns
that state into the only admission decision the runner acts on.

Design rules (after the run-policy blueprint in ``SNIPPETS.md`` §2):

* :func:`compute_health` is a **pure function** of recent outcome
  history — no I/O, no wall clock, no side effects — so the same
  campaign replays to the same decisions (the determinism lint enforces
  the no-clock part mechanically).
* :func:`gate` is the **only place** that decides admission.  The
  runner, the CLI and the smoke harness all go through it; nothing else
  in the system makes this call.
* ``blocked`` **cannot be overridden** — not by ``--on-unhealthy
  ignore``, not by a manual flag.  An infrastructure failure (memory,
  disk, permissions) means more work makes things worse.

Health states, most to least healthy:

* ``healthy`` — no issues in the recent window; admit at full runway.
* ``degraded`` — the same error class failed in consecutive cells, or
  the simulated dead-task rate crossed the policy threshold: a likely
  systemic issue with one cell family.
* ``unstable`` — several failures inside a short window: general
  instability, not one bad cell.
* ``blocked`` — the latest failure was an infrastructure error (or a
  sanitizer invariant violation): stop, a human must look.

The **runway controller** (``SNIPPETS.md`` §3) turns gate decisions into
feed-ahead: instead of reacting batch-by-batch (admit the next batch
only when the previous one drains), the runner keeps ``K`` batches of
lead time in flight while healthy, shrinks the runway to one batch under
``throttle``, and stops admitting under ``halt``.

Every gate decision is emitted as a :mod:`repro.observe` event
(:func:`repro.observe.emit_event`), so a tripped gate is diagnosable
from the trace after the fact: which batch, which state, which rule
fired.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Sequence, Tuple

# --------------------------------------------------------------------- #
# vocabulary                                                            #
# --------------------------------------------------------------------- #

#: Health states, ordered most to least healthy.
HEALTHY = "healthy"
DEGRADED = "degraded"
UNSTABLE = "unstable"
BLOCKED = "blocked"
STATES = (HEALTHY, DEGRADED, UNSTABLE, BLOCKED)

#: Gate actions.
ADMIT = "admit"
THROTTLE = "throttle"
HALT = "halt"
ACTIONS = (ADMIT, THROTTLE, HALT)

#: Failure categories (stamped into :class:`~repro.runner.record.CellFailure`).
TRANSIENT = "transient"
PERMANENT = "permanent"
INFRASTRUCTURE = "infrastructure"
SANITIZER = "sanitizer"
CATEGORIES = (TRANSIENT, PERMANENT, INFRASTRUCTURE, SANITIZER)

#: Responses to a degraded/unstable state (``blocked`` always halts).
ON_UNHEALTHY = ("throttle", "halt", "ignore")


class TransientCellError(RuntimeError):
    """Marker for worker failures that are worth retrying.

    Raise (or subclass) this inside a worker for conditions that a
    bounded retry can plausibly clear; the failure-injection harness
    uses it for its seeded transient faults.
    """


#: The failure taxonomy, defined once: exception class *name* -> category.
#: :func:`classify_exception` reads it at runtime and the deep static
#: pass (:mod:`repro.staticcheck.concurrency`) reads it to decide which
#: worker raise sites are deliberate taxonomy decisions.  Names, not
#: classes, so this module (importable from workers) never drags the
#: sanitizer in, and ``IOError`` still names a source-level raise.
FAILURE_TAXONOMY: Dict[str, str] = {
    # explicit markers
    "TransientCellError": TRANSIENT,
    "SanitizerError": SANITIZER,
    # infrastructure: the host, not the cell, is the problem (disk-full,
    # too-many-open-files, broken pipes to dead workers)
    "MemoryError": INFRASTRUCTURE,
    "PermissionError": INFRASTRUCTURE,
    "OSError": INFRASTRUCTURE,
    "IOError": INFRASTRUCTURE,
    # transient: a bounded retry can plausibly clear these
    "TimeoutError": TRANSIENT,
    "ConnectionError": TRANSIENT,
    "InterruptedError": TRANSIENT,
    # permanent: deterministic simulation errors retry to the same failure
    "ValueError": PERMANENT,
    "TypeError": PERMANENT,
    "KeyError": PERMANENT,
    "IndexError": PERMANENT,
    "LookupError": PERMANENT,
    "AttributeError": PERMANENT,
    "NameError": PERMANENT,
    "RuntimeError": PERMANENT,
    "NotImplementedError": PERMANENT,
    "ArithmeticError": PERMANENT,
    "ZeroDivisionError": PERMANENT,
    "OverflowError": PERMANENT,
    "AssertionError": PERMANENT,
    "StopIteration": PERMANENT,
    "RecursionError": PERMANENT,
    "UnicodeError": PERMANENT,
    "ImportError": PERMANENT,
    "ModuleNotFoundError": PERMANENT,
    "EOFError": PERMANENT,
    "BufferError": PERMANENT,
    "SystemError": PERMANENT,
}


def classify_exception(exc: BaseException) -> str:
    """Failure category of a worker exception, by class.

    Walks ``type(exc).__mro__`` closest-first and returns the category
    of the first class :data:`FAILURE_TAXONOMY` names, so a subclass's
    own entry beats its bases' (``ConnectionResetError`` is a transient
    ``ConnectionError`` before it is an infrastructure ``OSError``).
    Pure and conservative: anything unrecognized is ``permanent`` (a
    deterministic simulation error retries to the same failure, so
    retrying unknowns only burns cycles).
    """
    for klass in type(exc).__mro__:
        category = FAILURE_TAXONOMY.get(klass.__name__)
        if category is not None:
            return category
    return PERMANENT


# --------------------------------------------------------------------- #
# outcome view                                                          #
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class OutcomeView:
    """The minimal, pure view of one finished cell the health model reads.

    ``ok`` is worker-level success (the cell produced a record);
    ``sim_success`` is the *simulated* verdict inside that record — a
    cell can complete while its simulated workflow stranded tasks, and a
    rising dead-task rate is a health signal of its own.
    """

    ok: bool
    category: str = ""
    error_type: str = ""
    retried: bool = False
    sim_success: bool = True


# --------------------------------------------------------------------- #
# policy + pure health function                                         #
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds of the pure health computation (all windows in cells)."""

    #: Outcomes retained for health computation.
    window: int = 64
    #: ``unstable`` when >= this many failures land in the last
    #: ``unstable_window`` outcomes (3-in-5 after SNIPPETS §2).
    unstable_failures: int = 3
    unstable_window: int = 5
    #: ``degraded`` when the same error class fails this many times in a
    #: row (consecutive outcomes, successes break the streak).
    degraded_streak: int = 2
    #: ``degraded`` when this fraction of recent *completed* cells report
    #: a failed simulation (dead tasks), given a minimum sample.
    dead_task_rate: float = 0.25
    dead_task_min_sample: int = 8
    #: Cells between mid-stream gate checks inside one batch.
    check_every: int = 32


def compute_health(
    outcomes: Sequence[OutcomeView], policy: HealthPolicy = HealthPolicy()
) -> Tuple[str, str]:
    """``(state, reason)`` from recent outcome history.  Pure.

    Rules fire most-severe first; the reason names the rule that fired
    so a gate trip is explainable from the event alone.
    """
    recent = list(outcomes[-policy.window:])
    if not recent:
        return HEALTHY, "no history"

    # Rule 1 — BLOCKED: the latest failure is an infrastructure error or
    # a sanitizer invariant violation.  More work cannot help.
    last_failure: Optional[OutcomeView] = None
    for view in reversed(recent):
        if not view.ok:
            last_failure = view
            break
    if last_failure is not None and last_failure.category in (
        INFRASTRUCTURE, SANITIZER,
    ):
        return BLOCKED, (
            f"last failure is {last_failure.category} "
            f"({last_failure.error_type or 'unknown error'})"
        )

    # Rule 2 — UNSTABLE: several failures in a short window.
    tail = recent[-policy.unstable_window:]
    tail_failures = sum(1 for view in tail if not view.ok)
    if tail_failures >= policy.unstable_failures:
        return UNSTABLE, (
            f"{tail_failures} failures in last {len(tail)} cells"
        )

    # Rule 3 — DEGRADED: the same error class failed in consecutive
    # cells (a systemic issue with one cell family), or the simulated
    # dead-task rate crossed the threshold.
    streak = 0
    streak_type = ""
    for view in reversed(recent):
        if view.ok:
            break
        if streak and view.error_type != streak_type:
            break
        streak_type = view.error_type
        streak += 1
    if streak >= policy.degraded_streak:
        return DEGRADED, (
            f"{streak} consecutive {streak_type or 'unknown'} failures"
        )
    completed = [view for view in recent if view.ok]
    if len(completed) >= policy.dead_task_min_sample:
        dead = sum(1 for view in completed if not view.sim_success)
        rate = dead / len(completed)
        if rate >= policy.dead_task_rate:
            return DEGRADED, (
                f"dead-task rate {rate:.0%} over last "
                f"{len(completed)} completed cells"
            )

    return HEALTHY, "no health issues in window"


# --------------------------------------------------------------------- #
# the gate                                                              #
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class GateDecision:
    """One admission decision: what to do, why, from which state."""

    action: str
    state: str
    reason: str

    def as_event(self, **extra: object) -> Dict[str, object]:
        """JSON-native event payload for the observe stream."""
        payload: Dict[str, object] = {
            "action": self.action,
            "state": self.state,
            "reason": self.reason,
        }
        payload.update(extra)
        return payload


def gate(
    state: str, *, on_unhealthy: str = "throttle", reason: str = ""
) -> GateDecision:
    """The single policy gate: health state → admission decision.

    * ``healthy``  → ``admit`` (full runway).
    * ``degraded`` / ``unstable`` → per ``on_unhealthy``: ``throttle``
      (runway shrinks to one batch), ``halt``, or ``ignore`` (admit, but
      the decision is still emitted so the trace shows the state).
    * ``blocked``  → ``halt``, **always**.  ``on_unhealthy`` cannot
      override it; nothing can.
    """
    if on_unhealthy not in ON_UNHEALTHY:
        raise ValueError(
            f"on_unhealthy must be one of {ON_UNHEALTHY}, got {on_unhealthy!r}"
        )
    if state == BLOCKED:
        return GateDecision(HALT, state, reason or "blocked is not overridable")
    if state in (DEGRADED, UNSTABLE):
        if on_unhealthy == "halt":
            return GateDecision(HALT, state, reason)
        if on_unhealthy == "ignore":
            return GateDecision(ADMIT, state, reason)
        return GateDecision(THROTTLE, state, reason)
    return GateDecision(ADMIT, state, reason)


def runway_admissions(in_flight: int, decision: GateDecision, runway: int) -> int:
    """How many batches to admit now, keeping ``runway`` batches of lead.

    Feed-ahead instead of react-on-complete: while healthy the
    controller keeps ``runway`` batches in flight so workers never idle
    at a batch boundary; ``throttle`` shrinks the lead to one batch;
    ``halt`` admits nothing.
    """
    if runway < 1:
        raise ValueError(f"runway must be >= 1, got {runway}")
    if decision.action == HALT:
        return 0
    target = 1 if decision.action == THROTTLE else runway
    return max(0, target - in_flight)


# --------------------------------------------------------------------- #
# the tracker (bounded history + event emission)                        #
# --------------------------------------------------------------------- #

class HealthTracker:
    """Accumulates outcomes and turns them into emitted gate decisions.

    The only stateful piece of the layer, and its state is a bounded
    deque of :class:`OutcomeView` plus counters — no clock, no I/O
    beyond the observe event emission.  One tracker serves one
    :class:`~repro.runner.pool.CampaignRunner` lifetime.
    """

    def __init__(
        self,
        policy: Optional[HealthPolicy] = None,
        on_unhealthy: str = "throttle",
        emit: Optional[Callable[[str, Dict[str, object]], None]] = None,
    ) -> None:
        if on_unhealthy not in ON_UNHEALTHY:
            raise ValueError(
                f"on_unhealthy must be one of {ON_UNHEALTHY}, "
                f"got {on_unhealthy!r}"
            )
        self.policy = policy or HealthPolicy()
        self.on_unhealthy = on_unhealthy
        self._emit = emit
        self._history: Deque[OutcomeView] = deque(maxlen=self.policy.window)
        #: Every emitted decision event, oldest first (bounded).
        self.events: Deque[Dict[str, object]] = deque(maxlen=1024)
        self.seen = 0
        self.failures = 0
        self._since_check = 0

    def observe(self, outcome: OutcomeView) -> None:
        """Fold one finished cell into the health history."""
        self._history.append(outcome)
        self.seen += 1
        self._since_check += 1
        if not outcome.ok:
            self.failures += 1

    def health(self) -> Tuple[str, str]:
        """Current ``(state, reason)`` — pure function of the history."""
        return compute_health(tuple(self._history), self.policy)

    def decide(self, context: str = "admission", **extra: object) -> GateDecision:
        """Gate the current health; emit the decision as an observe event."""
        state, reason = self.health()
        decision = gate(state, on_unhealthy=self.on_unhealthy, reason=reason)
        event = decision.as_event(
            context=context,
            cells_seen=self.seen,
            failures=self.failures,
            **extra,
        )
        self.events.append(event)
        if self._emit is not None:
            self._emit("campaign.gate", event)
        else:
            from repro.observe import emit_event

            emit_event("campaign.gate", **event)
        self._since_check = 0
        return decision

    def maybe_decide(
        self, context: str = "stream", **extra: object
    ) -> Optional[GateDecision]:
        """A mid-stream gate check every ``policy.check_every`` outcomes."""
        if self._since_check < self.policy.check_every:
            return None
        return self.decide(context=context, **extra)
