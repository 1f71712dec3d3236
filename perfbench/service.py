"""``service``: open-loop campaigns through ``repro-flow serve`` + ``worker``.

Set-up starts ``serve --port 0`` and one ``worker --jobs 1 --keep-alive``
on a fresh store and cache, reads the port the server reports, and runs
one warm-up campaign to completion.  A single-threaded client (one HTTP
connection per request) then submits small campaigns at a fixed rate
(every 4th resubmits an earlier campaign's cells, which resolve as
``cached``) and polls the oldest campaign still in flight.  The window
is cut into segments; after each, one backlog campaign is submitted and
the time until it has drained is taken.

``serve`` and ``worker`` stay in the process group of the process that
starts them, so stopping a harness child's group stops them too.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

import breakdown
from common import (
    HERE, ROOT, Outcome, Settings, clean_env, digest_of, inline_records, is_good,
    median, percentile, pinned_digest, record_text, tree_peak_rss_mb,
)
from inputs import ServiceInputs
from tracer import Tracer

#: Gap between status polls of a campaign still in flight.
POLL_S = 0.01
#: Gap between status polls of a backlog campaign: the two vCPUs share
#: about one core, so fast polling would slow the drain it measures.
BACKLOG_POLL_S = 0.05
#: Open-loop segments, each followed by one backlog drain.  The host's
#: speed holds for a few seconds at a time and moves by up to a quarter,
#: so drains spread over the whole window sample many of its states
#: where one drain at the end would sample one or two.
SEGMENTS = 6
#: How long any one wait on the services may take.
WAIT_S = 60.0
#: Campaigns whose reference records are pinned per seed.
PINNED_CAMPAIGNS = 20
#: Open-loop arrival rate (campaigns/s): far below the worker's drain
#: rate (~200 cells/s, 8 cells a campaign), so a slow host phase does
#: not build a backlog.
RATE = 8.0
#: Safety net for the keep-alive worker: far above the polls one run
#: makes (~3400 empty polls of 50 ms in 170 s), low enough that a worker
#: left behind by a killed harness exits within about 20 minutes.
MAX_POLLS = 25_000


class Client:
    """JSON over HTTP, one fresh connection per request, with timings.

    Not keep-alive: on a kept-alive connection every reply of ``serve``
    arrives ~40 ms late (it writes headers and body separately, so the
    body waits for the client's delayed ACK).  That quantizes campaign
    latency into 44 ms steps, and its median flipped between steps from
    run to run.  A fresh connection costs ~1 ms.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.requests = 0
        self.non_2xx = 0
        self.times: Dict[str, List[float]] = {"submit": [], "status": []}

    def call(self, method: str, path: str, body: Optional[bytes] = None,
             kind: Optional[str] = None) -> tuple:
        """``(status, document, sent, answered)`` of one request."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        sent = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=WAIT_S)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        answered = time.perf_counter()
        self.requests += 1
        if not 200 <= response.status < 300:
            self.non_2xx += 1
        if kind is not None:
            self.times[kind].append(answered - sent)
        return response.status, json.loads(raw), sent, answered

    def submit(self, body: bytes) -> tuple:
        status, doc, sent, answered = self.call("POST", "/api/campaigns", body, "submit")
        campaign = doc["campaign"]["id"] if status == 200 else None
        return campaign, sent, answered

    def done(self, campaign: str) -> tuple:
        status, doc, _sent, answered = self.call(
            "GET", f"/api/campaigns/{campaign}", kind="status")
        return status == 200 and doc["campaign"]["done"], answered

    def wait_done(self, campaign: str, poll_s: float = POLL_S) -> float:
        """Poll until the campaign is terminal; when the client saw it."""
        deadline = time.perf_counter() + WAIT_S
        while time.perf_counter() < deadline:
            done, seen = self.done(campaign)
            if done:
                return seen
            time.sleep(poll_s)
        raise TimeoutError(f"campaign {campaign} did not finish in {WAIT_S} s")


@dataclass
class Services:
    """A ``serve`` + ``worker`` pair on their own store and cache."""

    directory: str
    procs: Dict[str, subprocess.Popen]
    client: Client

    def trace_files(self) -> List[str]:
        return [os.path.join(self.directory, f"{name}-trace.json") for name in self.procs]


def _wire(jobs, name: str) -> bytes:
    from repro.service.wire import submission_to_wire

    return json.dumps(submission_to_wire(name, jobs)).encode("utf-8")


def start_services(settings: Settings, tag: str, traced: bool) -> Services:
    """Start both processes; returns once the server answers."""
    directory = os.path.join(settings.work_dir, tag)
    os.makedirs(directory)
    store = os.path.join(directory, "store.db")
    cache = os.path.join(directory, "cache")
    roles = {
        "serve": ["serve", "--store", store, "--port", "0"],
        "worker": ["worker", "--store", store, "--cache-dir", cache, "--jobs", "1",
                   "--keep-alive", "--max-polls", str(MAX_POLLS)],
    }
    procs: Dict[str, subprocess.Popen] = {}
    try:
        for name, cli in roles.items():
            if traced:
                trace_out = os.path.join(directory, f"{name}-trace.json")
                cmd = [sys.executable, os.path.join(HERE, "launch.py"), "--trace-out", trace_out]
            else:
                cmd = [sys.executable, "-m", "repro.cli"]
            log = open(os.path.join(directory, f"{name}.log"), "w", encoding="utf-8")
            with log:
                procs[name] = subprocess.Popen(
                    cmd + cli, cwd=ROOT, env=clean_env(), stdout=log, stderr=subprocess.STDOUT,
                )
        port = _bound_port(os.path.join(directory, "serve.log"), procs["serve"])
    except BaseException:
        _stop(procs)
        raise
    return Services(directory, procs, Client(port))


def _bound_port(log_path: str, proc: subprocess.Popen) -> int:
    """The port from the server's ``listening on`` line."""
    deadline = time.perf_counter() + WAIT_S
    while time.perf_counter() < deadline:
        with open(log_path, "r", encoding="utf-8") as fh:
            for line in fh:
                if "listening on http://" in line:
                    return int(line.rsplit(":", 1)[1])
        if proc.poll() is not None:
            raise RuntimeError(f"serve exited with {proc.returncode} before binding")
        time.sleep(0.005)
    raise TimeoutError("serve never reported its port")


def _stop(procs: Dict[str, subprocess.Popen]) -> None:
    """Stop every process: SIGTERM, then SIGKILL; always reap."""
    for proc in procs.values():
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs.values():
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def stop_services(services: Services) -> None:
    try:
        services.client.call("POST", "/api/stop", b"{}")
    except (OSError, http.client.HTTPException):
        pass  # already gone; the signals below still apply
    try:
        services.procs["serve"].wait(timeout=10)
    except subprocess.TimeoutExpired:
        pass
    _stop(services.procs)


@dataclass
class State:
    inputs: ServiceInputs
    services: Services


def _warm_up(services: Services, inputs: ServiceInputs) -> None:
    campaign, _sent, _answered = services.client.submit(_wire(inputs.warmup(), "warmup"))
    if campaign is None:
        raise RuntimeError("the warm-up submission was refused")
    services.client.wait_done(campaign)


def setup(settings: Settings) -> State:
    inputs = ServiceInputs(settings.seed, settings.sizes)
    services = start_services(settings, "untraced", traced=False)
    try:
        _warm_up(services, inputs)
    except BaseException:
        stop_services(services)
        raise
    return State(inputs, services)


def teardown(state: State) -> None:
    stop_services(state.services)


def open_loop(state: State, services: Services, seconds: float, first: int = 0) -> List[dict]:
    """Submit campaigns ``first``, ... on schedule for ``seconds``; wait for them all.

    Each campaign is timed from when it was due, so a stalled client or
    server charges its delay to every campaign behind it.
    """
    count = max(1, int(seconds * RATE))
    bodies = [_wire(state.inputs.campaign(first + k), f"bench-{first + k}")
              for k in range(count)]
    client = services.client
    entries: List[dict] = []
    inflight: deque = deque()
    start = time.perf_counter()
    next_poll = 0.0
    deadline = start + seconds + WAIT_S
    while len(entries) < count or inflight:
        now = time.perf_counter()
        if now > deadline:
            raise TimeoutError("open-loop campaigns did not finish")
        k = len(entries)
        due = start + k / RATE
        if k < count and now >= due:
            campaign, sent, _answered = client.submit(bodies[k])
            entry = {"index": first + k, "campaign": campaign, "due": due, "sent": sent}
            entries.append(entry)
            if campaign is not None:
                inflight.append(entry)
            continue
        if inflight and now >= next_poll:
            done, seen = client.done(inflight[0]["campaign"])
            if done:
                inflight.popleft()["seen"] = seen
                next_poll = 0.0
            else:
                next_poll = seen + POLL_S
            continue
        wake = min(due if k < count else float("inf"),
                   next_poll if inflight else float("inf"))
        time.sleep(max(0.0, min(wake - time.perf_counter(), POLL_S)))
    return entries


def _backlog(services: Services, inputs: ServiceInputs, index: int) -> tuple:
    """Submit backlog campaign ``index``, wait for it; ``(campaign, jobs)``, drain time."""
    jobs = inputs.backlog(index)
    campaign, sent, _answered = services.client.submit(_wire(jobs, f"backlog-{index}"))
    if campaign is None:
        raise RuntimeError("a backlog submission was refused")
    return (campaign, jobs), services.client.wait_done(campaign, BACKLOG_POLL_S) - sent


def _verify(settings: Settings, state: State, services: Services, entries: List[dict],
            extra: List[tuple], outcome: Outcome) -> None:
    """Every record is byte-identical to a ``jobs=1`` inline execution."""
    from repro.runner.hashing import cache_key

    status, doc, _sent, _answered = services.client.call("GET", "/api/store")
    outcome.check(status == 200, "the store dump was refused")
    cells = {(c["campaign"], c["key"]): c for c in doc.get("dump", {}).get("cells", [])}
    submitted = [(e["campaign"], state.inputs.campaign(e["index"])) for e in entries] + extra
    unique: Dict[str, object] = {}
    for _campaign, jobs in submitted:
        for job in jobs:
            unique.setdefault(cache_key(job), job)
    keys = list(unique)
    reference = dict(zip(keys, inline_records([unique[k] for k in keys])))
    for campaign, jobs in submitted:
        for job in jobs:
            outcome.attempted += 1
            cell = cells.get((campaign, cache_key(job)))
            result = cell.get("result") if cell else None
            if not result or cell["state"] not in ("done", "cached") or not is_good(result):
                outcome.failed += 1
                continue
            outcome.check(record_text(result) == reference[cache_key(job)],
                          "a service record differs from inline jobs=1")
    pinned = pinned_digest("service", settings.seed, settings.sizes)
    if pinned is not None and len(entries) >= PINNED_CAMPAIGNS:
        first = [reference[cache_key(job)] for k in range(PINNED_CAMPAIGNS)
                 for job in state.inputs.campaign(k)]
        outcome.check(digest_of(first) == pinned, "records differ from the pinned digest")
    outcome.info["pinned_digest"] = pinned is not None
    outcome.failed += services.client.non_2xx


def _latencies(entries: List[dict]) -> List[float]:
    return [e["seen"] - e["due"] for e in entries if "seen" in e]


def measure(settings: Settings, state: State, outcome: Outcome) -> None:
    services = state.services
    entries: List[dict] = []
    backlogs, drains = [], []
    for segment in range(SEGMENTS):
        entries += open_loop(state, services, settings.seconds / SEGMENTS, first=len(entries))
        backlog, drain = _backlog(services, state.inputs, segment)
        backlogs.append(backlog)
        drains.append(drain)
    rss, procs = tree_peak_rss_mb()
    _verify(settings, state, services, entries, backlogs, outcome)

    latencies = _latencies(entries)
    n = len(latencies)
    cells = sum(len(jobs) for _campaign, jobs in backlogs)
    outcome.put("cells_per_s", cells / sum(drains), "cells/s", cells,
                f"backlog cells / time to drain them ({len(drains)} campaigns)")
    outcome.put("p50_ms", median(latencies) * 1e3, "ms", n, "campaign due -> seen terminal")
    outcome.put("tail_ms", percentile(latencies, 90) * 1e3, "ms", n, "campaign p90")
    outcome.put("peak_rss_mb", rss, "MB", procs, "client + serve + worker summed")
    late = [e["sent"] - e["due"] for e in entries]
    outcome.info["client_late_ms"] = {"p50": median(late) * 1e3, "max": max(late) * 1e3}


def measure_traced(settings: Settings, state: State, outcome: Outcome) -> None:
    """Half the window on the plain CLI, half on the traced launchers.

    The launchers wrap every ``JobStore`` method (and, in the worker,
    every simulation layer) and then run the same ``serve()`` and
    ``ServiceWorker.run`` code the CLI runs; each process writes its
    trace when it stops.  Campaign latency is rebuilt per campaign from
    the client's and the processes' timestamps, which share one
    monotonic clock.
    """
    half = settings.seconds / 2
    plain = open_loop(state, state.services, half)
    _verify(settings, state, state.services, plain, [], outcome)

    services = start_services(settings, "traced", traced=True)
    try:
        _warm_up(services, state.inputs)
        client = services.client
        requests_before = client.requests
        client.times = {"submit": [], "status": []}
        # Same campaigns again: resubmissions find their originals in
        # this pair's own cache.
        traced = open_loop(state, services, half)
        requests = client.requests - requests_before
        _verify(settings, state, services, traced, [], outcome)
    finally:
        stop_services(services)
    tracer = Tracer.load(services.trace_files())
    breakdown.service_layers(outcome, tracer, traced, client.times, requests)
    breakdown.overhead(outcome, _latencies(plain), _latencies(traced), "campaign")
