"""Cross-layer observability: metrics, spans, timeline export.

``repro.observe`` lets you *see inside* a run without perturbing it:

* :class:`MetricsRegistry` — counters, gauges and fixed-bucket
  histograms, threaded through the executor via
  :class:`~repro.observe.collect.MetricsCollector` (enable with
  ``WorkflowExecutor(metrics=True)``, ``RunConfig(metrics=True)``,
  ``repro-flow run --metrics-out`` or ``REPRO_METRICS=1``).
* :class:`SpanTracer` / :func:`spans_from_trace` — structured spans with
  parent/child nesting and exact virtual-time + wall-time stamps,
  layered on the :class:`~repro.sim.trace.TraceRecorder` hooks.
* :func:`chrome_trace` — Chrome ``trace_event`` JSON for
  chrome://tracing / Perfetto.
* :func:`emit_event` / :func:`events_snapshot` — a bounded structured
  event log for control-plane decisions (health-gate trips, batch
  admissions), exported into campaign artifacts so a tripped gate is
  diagnosable from the trace.
* :func:`clock` — the one sanctioned wall-clock read (profiling only;
  the determinism lint bans the host clock everywhere else).

Observation is pure: an instrumented run produces bit-identical
simulation results (``scripts/check_determinism.sh`` passes with
``REPRO_METRICS=1``), and the disabled layer stays off the hot path
(bounded by ``benchmarks/test_observe_overhead.py``).
"""

from __future__ import annotations

import os

from repro.observe.clock import clock, elapsed
from repro.observe.collect import MetricsCollector
from repro.observe.events import (
    EVENTS_SCHEMA,
    clear_events,
    emit_event,
    events_snapshot,
    recent_events,
)
from repro.observe.export import chrome_trace, write_json
from repro.observe.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    SNAPSHOT_SCHEMA,
)
from repro.observe.spans import Span, SpanTracer, TraceSpanBuilder, spans_from_trace

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EVENTS_SCHEMA",
    "Gauge",
    "Histogram",
    "MetricsCollector",
    "MetricsRegistry",
    "SNAPSHOT_SCHEMA",
    "Span",
    "SpanTracer",
    "TraceSpanBuilder",
    "chrome_trace",
    "clear_events",
    "clock",
    "elapsed",
    "emit_event",
    "env_flag",
    "env_metrics",
    "events_snapshot",
    "recent_events",
    "spans_from_trace",
    "write_json",
]


def env_flag(name: str) -> bool:
    """Whether the opt-in environment switch ``name`` is on.

    ``1``, ``true``, ``yes`` and ``on`` (any case) turn it on; anything
    else, or no variable, leaves it off.  ``REPRO_METRICS``,
    ``REPRO_SANITIZE`` and ``REPRO_PRECHECK`` all read through here.
    """
    return os.environ.get(name, "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def env_metrics() -> bool:
    """Whether ``REPRO_METRICS`` asks for always-on metrics collection."""
    return env_flag("REPRO_METRICS")
