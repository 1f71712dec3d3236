"""The campaign health model: pure function, single gate, runway."""

from __future__ import annotations

import pytest

from repro.observe import clear_events, recent_events
from repro.runner.health import (
    ADMIT,
    BLOCKED,
    DEGRADED,
    GateDecision,
    HALT,
    HEALTHY,
    HealthPolicy,
    HealthTracker,
    INFRASTRUCTURE,
    OutcomeView,
    PERMANENT,
    SANITIZER,
    THROTTLE,
    TRANSIENT,
    TransientCellError,
    UNSTABLE,
    classify_exception,
    compute_health,
    gate,
    runway_admissions,
)
from repro.sanitizer import SanitizerError


def ok(sim_success=True):
    return OutcomeView(ok=True, sim_success=sim_success)


def fail(category=PERMANENT, error_type="ValueError"):
    return OutcomeView(ok=False, category=category, error_type=error_type)


# --------------------------------------------------------------------- #
# classification                                                        #
# --------------------------------------------------------------------- #

class _SanitizerError(Exception):
    pass


# Matched by __mro__ class name, like the real one in repro.sanitize.
_SanitizerError.__name__ = "SanitizerError"


@pytest.mark.parametrize("exc,category", [
    (TransientCellError("retry me"), TRANSIENT),
    (TimeoutError("slow"), TRANSIENT),
    (ConnectionError("gone"), TRANSIENT),
    (ValueError("bad cell"), PERMANENT),
    (TypeError("bad config"), PERMANENT),
    (MemoryError(), INFRASTRUCTURE),
    (PermissionError("denied"), INFRASTRUCTURE),
    (OSError("disk full"), INFRASTRUCTURE),
    (_SanitizerError("invariant"), SANITIZER),
])
def test_classify_exception(exc, category):
    assert classify_exception(exc) == category


class _FlakyCell(TransientCellError):
    pass


@pytest.mark.parametrize("exc,category", [
    # a ConnectionError before it is an OSError
    (ConnectionResetError("reset"), TRANSIENT),
    # no entry of its own: the OSError base decides
    (FileNotFoundError("gone"), INFRASTRUCTURE),
    # a marker subclass inherits the marker's category
    (_FlakyCell("retry me"), TRANSIENT),
    # the real sanitizer error, before its RuntimeError base
    (SanitizerError("invariant"), SANITIZER),
])
def test_classify_exception_takes_the_closest_taxonomy_entry(exc, category):
    """The MRO walk is closest-first over FAILURE_TAXONOMY."""
    assert classify_exception(exc) == category


# --------------------------------------------------------------------- #
# the pure health function                                              #
# --------------------------------------------------------------------- #

def test_empty_history_is_healthy():
    assert compute_health(()) == (HEALTHY, "no history")


def test_all_successes_are_healthy():
    state, _ = compute_health([ok()] * 20)
    assert state == HEALTHY


def test_infrastructure_failure_blocks():
    state, reason = compute_health([ok(), fail(INFRASTRUCTURE, "OSError")])
    assert state == BLOCKED
    assert "infrastructure" in reason


def test_sanitizer_failure_blocks():
    state, _ = compute_health([fail(SANITIZER, "SanitizerError")])
    assert state == BLOCKED


def test_blocked_outranks_every_other_rule():
    """Even buried under successes, an infra last-failure blocks."""
    history = [fail(), fail(), fail(INFRASTRUCTURE), ok(), ok()]
    state, _ = compute_health(history)
    assert state == BLOCKED


def test_three_failures_in_five_is_unstable():
    history = [ok()] * 10 + [
        fail(error_type="A"), ok(), fail(error_type="B"),
        fail(error_type="C"), ok(),
    ]
    state, reason = compute_health(history)
    assert state == UNSTABLE
    assert "3 failures" in reason


def test_same_error_streak_is_degraded():
    history = [ok()] * 10 + [fail(error_type="TypeError")] * 2
    state, reason = compute_health(history)
    assert state == DEGRADED
    assert "TypeError" in reason


def test_mixed_error_tail_is_not_a_streak():
    history = [ok()] * 10 + [fail(error_type="A"), fail(error_type="B")]
    state, _ = compute_health(history)
    assert state == HEALTHY


def test_dead_task_rate_degrades():
    history = [ok(sim_success=False)] * 3 + [ok()] * 5
    state, reason = compute_health(history)
    assert state == DEGRADED
    assert "dead-task" in reason


def test_dead_task_rate_needs_minimum_sample():
    # 2 of 4 dead is over the rate, but under the sample floor.
    history = [ok(sim_success=False)] * 2 + [ok()] * 2
    assert compute_health(history)[0] == HEALTHY


def test_health_is_pure_and_windowed():
    policy = HealthPolicy(window=4)
    # Failures older than the window cannot affect the verdict.
    history = [fail()] * 10 + [ok()] * 4
    assert compute_health(history, policy)[0] == HEALTHY
    assert compute_health(tuple(history), policy) == compute_health(
        tuple(history), policy
    )


# --------------------------------------------------------------------- #
# the single gate                                                       #
# --------------------------------------------------------------------- #

def test_gate_healthy_admits():
    assert gate(HEALTHY).action == ADMIT


@pytest.mark.parametrize("state", [DEGRADED, UNSTABLE])
def test_gate_unhealthy_follows_policy(state):
    assert gate(state, on_unhealthy="throttle").action == THROTTLE
    assert gate(state, on_unhealthy="halt").action == HALT
    assert gate(state, on_unhealthy="ignore").action == ADMIT


@pytest.mark.parametrize("on_unhealthy", ["throttle", "halt", "ignore"])
def test_blocked_cannot_be_overridden(on_unhealthy):
    assert gate(BLOCKED, on_unhealthy=on_unhealthy).action == HALT


def test_gate_rejects_unknown_policy():
    with pytest.raises(ValueError, match="on_unhealthy"):
        gate(HEALTHY, on_unhealthy="shrug")


def test_gate_decision_as_event_merges_extra():
    event = GateDecision(ADMIT, HEALTHY, "fine").as_event(batch=3)
    assert event == {
        "action": ADMIT, "state": HEALTHY, "reason": "fine", "batch": 3,
    }


# --------------------------------------------------------------------- #
# the runway controller                                                 #
# --------------------------------------------------------------------- #

def test_runway_keeps_lead_while_healthy():
    decision = GateDecision(ADMIT, HEALTHY, "")
    assert runway_admissions(0, decision, runway=3) == 3
    assert runway_admissions(2, decision, runway=3) == 1
    assert runway_admissions(3, decision, runway=3) == 0


def test_runway_shrinks_to_one_under_throttle():
    decision = GateDecision(THROTTLE, DEGRADED, "")
    assert runway_admissions(0, decision, runway=3) == 1
    assert runway_admissions(1, decision, runway=3) == 0


def test_runway_admits_nothing_under_halt():
    decision = GateDecision(HALT, BLOCKED, "")
    assert runway_admissions(0, decision, runway=3) == 0


def test_runway_rejects_nonpositive():
    with pytest.raises(ValueError, match="runway"):
        runway_admissions(0, GateDecision(ADMIT, HEALTHY, ""), runway=0)


# --------------------------------------------------------------------- #
# the tracker                                                           #
# --------------------------------------------------------------------- #

def test_tracker_scripted_streak_transitions():
    """healthy -> degraded -> unstable -> blocked under a scripted feed."""
    tracker = HealthTracker(emit=lambda kind, event: None)
    for _ in range(8):
        tracker.observe(ok())
    assert tracker.health()[0] == HEALTHY
    tracker.observe(fail(error_type="TypeError"))
    tracker.observe(fail(error_type="TypeError"))
    assert tracker.health()[0] == DEGRADED
    tracker.observe(fail(error_type="ValueError"))
    assert tracker.health()[0] == UNSTABLE
    tracker.observe(fail(INFRASTRUCTURE, "OSError"))
    assert tracker.health()[0] == BLOCKED
    # blocked is not overridable: even an "ignore" tracker halts.
    ignoring = HealthTracker(on_unhealthy="ignore", emit=lambda k, e: None)
    ignoring.observe(fail(INFRASTRUCTURE, "OSError"))
    assert ignoring.decide().action == HALT


def test_tracker_decide_emits_observe_event():
    clear_events()
    try:
        tracker = HealthTracker()
        tracker.observe(ok())
        decision = tracker.decide(context="admission", batch=7)
        assert decision.action == ADMIT
        events = recent_events("campaign.gate")
        assert len(events) == 1
        assert events[0]["context"] == "admission"
        assert events[0]["batch"] == 7
        assert events[0]["cells_seen"] == 1
        assert tracker.events[-1]["action"] == ADMIT
    finally:
        clear_events()


def test_tracker_maybe_decide_fires_every_check_every():
    tracker = HealthTracker(
        HealthPolicy(check_every=3), emit=lambda kind, event: None
    )
    fired = []
    for i in range(9):
        tracker.observe(ok())
        if tracker.maybe_decide() is not None:
            fired.append(i)
    assert fired == [2, 5, 8]


def test_tracker_rejects_unknown_policy():
    with pytest.raises(ValueError, match="on_unhealthy"):
        HealthTracker(on_unhealthy="nope")
