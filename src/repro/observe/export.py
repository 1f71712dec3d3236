"""Exporters: Chrome trace-event JSON and snapshots.

Two output formats, derived from :class:`~repro.observe.spans.Span`
lists or :class:`~repro.observe.metrics.MetricsRegistry` snapshots:

* :func:`chrome_trace` — the Chrome ``trace_event`` JSON object format.
  Load the file at ``chrome://tracing`` or https://ui.perfetto.dev to
  scrub a run's timeline: one named thread per track (device, network
  link, logical lane), complete events with microsecond virtual-time
  stamps, span attributes in ``args``.
* :func:`write_json` — tiny helper the CLI uses for ``--metrics-out`` /
  ``--trace-out``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.observe.spans import Span

#: Virtual seconds -> trace-event microseconds.
_US = 1_000_000.0


def chrome_trace(
    spans: Sequence[Span],
    process_name: str = "repro-flow",
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Render spans as a Chrome ``trace_event`` JSON object.

    Tracks map to thread ids (named via metadata events); every span
    becomes a complete (``"ph": "X"``) event whose ``ts``/``dur`` are the
    span's *virtual* times in microseconds.  Events are sorted by
    ``(tid, ts, -dur)`` so each thread's timeline is monotone and parents
    precede their children at equal stamps.
    """
    tracks = sorted({s.track for s in spans})
    tids = {track: i + 1 for i, track in enumerate(tracks)}

    events: List[Dict[str, Any]] = []
    for span in spans:
        end = span.end if span.end is not None else span.start
        args = {k: v for k, v in span.attrs.items() if v is not None}
        if span.parent is not None:
            args["parent"] = span.parent
        events.append({
            "name": span.name,
            "cat": span.name.split(" ")[0],
            "ph": "X",
            "ts": span.start * _US,
            "dur": (end - span.start) * _US,
            "pid": 1,
            "tid": tids[span.track],
            "args": args,
        })
    events.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))

    meta_events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": process_name},
    }]
    for track in tracks:
        meta_events.append({
            "name": "thread_name", "ph": "M", "pid": 1,
            "tid": tids[track], "args": {"name": track},
        })

    doc: Dict[str, Any] = {
        "traceEvents": meta_events + events,
        "displayTimeUnit": "ms",
    }
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def write_json(path: str, payload: Dict[str, Any]) -> None:
    """Write a JSON document with stable key order and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
