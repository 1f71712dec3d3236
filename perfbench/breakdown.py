"""Per-layer metrics derived from a traced run.

Every traced run emits every ``per_layer`` metric of ``BENCHMARK.json``.
A layer a workload does not cross reads 0 with 0 samples ("not
exercised"), which is itself the prediction for that workload: a change
to the layer should read flat there.  ``README.md`` maps each metric to
the end-to-end metric it should move.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from common import Outcome, catalogue, median
from tracer import STORE_OPS, Tracer

#: Span names that are not program layers: the root of a traced unit
#: (its self time, including ``run_sims``'s own bookkeeping, which no
#: wrapper isolates, is unattributed) and the tracer's own measuring work.
NOT_LAYERS = ("unit", "harness")


def _per(tracer: Tracer, name: str, n: float, scale: float) -> float:
    return tracer.self_s.get(name, 0.0) * scale / n if n else 0.0


def cell_layers(outcome: Outcome, tracer: Tracer, cells: int) -> None:
    """Simulation layers, per executed cell (microseconds)."""
    us = 1e6
    put = outcome.put
    for metric, span in (
        ("schedulers.context_us", "schedulers.context"),
        ("schedulers.plan_us", "schedulers.plan"),
        ("sim.loop_us", "sim.loop"),
        ("core.orchestrate_us", "core.orchestrate"),
        ("energy.account_us", "energy.account"),
        ("workflows.decode_us", "workflows.decode"),
        ("platform.build_us", "platform.build"),
        ("runner.jobs_us", "runner.jobs"),
        ("runner.record.encode_us", "runner.record.encode"),
    ):
        put(metric, _per(tracer, span, cells, us), "us/cell", cells)
    callbacks = tracer.self_s.get("core.events", 0.0) + tracer.self_s.get("core.callbacks", 0.0)
    put("core.callbacks_us", callbacks * us / cells, "us/cell", cells)
    events = tracer.calls.get("core.events", 0)
    put("sim.events", events / cells, "events/cell", cells, "exact count")
    loop = tracer.self_s.get("sim.loop", 0.0)
    put("sim.events_per_s", events / loop if loop else 0.0, "events/s", events,
        "events / loop self time")
    put("workflows.decodes", tracer.calls.get("workflows.decode", 0) / cells,
        "decodes/cell", cells, "below 1 = memo reuse")


def runner_layers(outcome: Outcome, tracer: Tracer, cells: int, batches: int) -> None:
    """Hashing, cache and record layers of the traced process(es)."""
    us = 1e6
    put = outcome.put
    put("runner.hashing.key_us", _per(tracer, "runner.hashing", cells, us), "us/cell", cells)
    put("runner.cache.get_us", _per(tracer, "runner.cache.get", cells, us), "us/cell", cells)
    put("runner.cache.put_us", _per(tracer, "runner.cache.put", cells, us), "us/cell", cells)
    put("runner.record.decode_us", _per(tracer, "runner.record.decode", cells, us),
        "us/cell", cells)
    opens = tracer.calls.get("runner.cache.index_load", 0)
    put("runner.cache.index_load_ms", _per(tracer, "runner.cache.index_load", opens, 1e3),
        "ms/open", opens)
    put("runner.cache.sync_ms", _per(tracer, "runner.cache.sync", batches, 1e3),
        "ms/batch", batches)
    hits = tracer.counters.get("cache.hits", 0)
    lookups = int(hits + tracer.counters.get("cache.misses", 0))
    put("runner.cache.hit_ratio", hits / lookups if lookups else 0.0, "ratio", lookups)
    put("runner.cache.errors", tracer.counters.get("cache.errors", 0), "count", lookups)


def pool_layers(outcome: Outcome, tracer: Tracer, cells: int, ready_s: float) -> None:
    """Parent side of the process pool.

    ``runner.pool`` is ``run_sims``'s self time net of every wrapped child:
    the wait for results and the hashing, cache and record spans, which
    the pooled phase traces too so that none of them is counted here.
    """
    dispatched = int(tracer.counters.get("pool.dispatched", 0))
    outcome.put("runner.pool.self_us", _per(tracer, "runner.pool", cells, 1e6), "us/cell", cells,
                "run_sims bookkeeping net of waits, hashing, cache, records")
    outcome.put("runner.pool.wait_us", _per(tracer, "runner.pool.wait", cells, 1e6),
                "us/cell", cells, "parent blocked on results")
    outcome.put("runner.pool.payload_bytes",
                tracer.counters.get("pool.payload_bytes", 0) / dispatched if dispatched else 0.0,
                "bytes/cell", dispatched, "pickled, exact")
    outcome.put("runner.pool.ready_s", ready_s, "s", 1, "spawned and answering")


def coverage(outcome: Outcome, tracer: Tracer, wall: float) -> None:
    """How much of the program's traced time the layers' self times explain.

    The traced units are ``run_sims`` calls with no wrapper on
    ``run_sims`` itself, so whatever no layer span covers is the root's
    self time and counts as unattributed.  The tracer's own calibrated
    cost is taken out of the traced wall first and reported beside it.
    """
    layers = sum(v for k, v in tracer.self_s.items() if k not in NOT_LAYERS)
    harness = tracer.self_s.get("harness", 0.0)
    program = wall - harness
    units = tracer.calls.get("unit", 0)
    outcome.put("trace.coverage", layers / program, "ratio", units,
                "layer self time / (traced wall - tracer cost)")
    outcome.put("trace.unattributed_share", tracer.self_s.get("unit", 0.0) / program,
                "ratio", units, "time inside no layer span")
    outcome.put("trace.tracer_share", harness / wall, "ratio", units,
                "calibrated tracer cost / traced wall")


def overhead(outcome: Outcome, plain: Sequence[float], traced: Sequence[float],
             what: str = "unit") -> None:
    outcome.put("trace.overhead", median(traced) / median(plain) - 1.0, "ratio",
                len(plain) + len(traced), f"traced / untraced {what} p50, minus 1")


def _campaign_phases(tracer: Tracer, entries: List[dict]) -> Dict[str, List[float]]:
    """Split each campaign's latency at timestamps on one shared clock.

    due -> sent (client lateness) -> store commit (accept) -> first lease
    (queue wait) -> last completion (run) -> seen by the client (notice):
    the five parts add up to the campaign's latency exactly.
    """
    commit: Dict[str, float] = {}
    leased: Dict[str, float] = {}
    finished: Dict[str, float] = {}
    for event in tracer.events:
        if event["kind"] == "submit":
            commit[event["campaign"]] = event["t"]
        elif event["kind"] == "lease":
            for campaign in event["campaigns"]:
                leased.setdefault(campaign, event["t"])
        elif event["kind"] == "complete":
            finished[event["campaign"]] = max(finished.get(event["campaign"], 0.0), event["t"])
    phases: Dict[str, List[float]] = {
        k: [] for k in ("late", "accept", "queue", "run", "notice", "total")
    }
    for entry in entries:
        c = entry["campaign"]
        if "seen" not in entry or c not in commit or c not in leased or c not in finished:
            continue
        phases["late"].append(entry["sent"] - entry["due"])
        phases["accept"].append(commit[c] - entry["sent"])
        phases["queue"].append(leased[c] - commit[c])
        phases["run"].append(finished[c] - leased[c])
        phases["notice"].append(entry["seen"] - finished[c])
        phases["total"].append(entry["seen"] - entry["due"])
    return phases


def service_layers(outcome: Outcome, tracer: Tracer, entries: List[dict],
                   request_times: Dict[str, List[float]], requests: int) -> None:
    """Store, worker and API layers of the traced half of a service run."""
    put = outcome.put
    ms = 1e3
    for kind in ("submit", "status"):
        times = request_times[kind]
        put(f"service.api.{kind}_ms", median(times) * ms if times else 0.0, "ms",
            len(times), "client-side p50")
    put("service.api.requests", requests / len(entries), "req/campaign", len(entries))
    txns = 0
    for op in STORE_OPS:
        calls = tracer.calls.get(f"service.store.{op}", 0)
        txns += calls
        put(f"service.store.{op}_us", _per(tracer, f"service.store.{op}", calls, 1e6),
            "us/call", calls)
    states = {k.rsplit(".", 1)[1]: v for k, v in tracer.counters.items()
              if k.startswith("worker.state.")}
    finished = sum(states.values())
    put("service.store.txns_per_cell", txns / finished if finished else 0.0,
        "txns/cell", int(finished), "every store call is one transaction")
    leased = tracer.counters.get("worker.leased_cells", 0)
    put("service.worker.cached_share", states.get("cached", 0) / leased if leased else 0.0,
        "ratio", int(leased))
    put("service.worker.idle_polls", tracer.counters.get("worker.idle_polls", 0), "count",
        int(tracer.calls.get("service.store.lease", 0)), "leases that found nothing")

    phases = _campaign_phases(tracer, entries)
    n = len(phases["total"])
    for metric, phase in (
        ("client.late_p50_ms", "late"), ("service.accept_ms", "accept"),
        ("service.worker.queue_wait_ms", "queue"), ("service.worker.run_ms", "run"),
        ("service.notice_ms", "notice"),
    ):
        put(metric, median(phases[phase]) * ms, "ms", n, "p50 per campaign")
    put("client.late_max_ms", max(phases["late"]) * ms, "ms", n)
    parts = sum(median(phases[p]) for p in ("late", "accept", "queue", "run", "notice"))
    put("service.reconstruct_error", abs(parts / median(phases["total"]) - 1.0), "ratio", n,
        "|sum of part p50s / campaign p50 - 1|")

    simulated = int(states.get("done", 0))
    if simulated:
        cell_layers(outcome, tracer, simulated)
    leases = tracer.calls.get("service.store.lease", 0) - tracer.counters.get("worker.idle_polls", 0)
    runner_layers(outcome, tracer, int(finished), int(leases))


def fill_missing(outcome: Outcome) -> None:
    """Layers this workload does not cross read 0 with 0 samples."""
    for name, unit in catalogue("per_layer"):
        if name not in outcome.metrics:
            outcome.put(name, 0.0, unit, 0, "not exercised by this workload")
