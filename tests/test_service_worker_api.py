"""Service worker end-to-end and the JSON API over a live server."""

from __future__ import annotations

import http.client
import json
import sqlite3
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace

import pytest

from repro.experiments.common import make_job, preset_spec
from repro.runner import CampaignRunner, ResultCache
from repro.runner.hashing import cache_key
from repro.service import JobStore, StoreError
from repro.service.api import build_server
from repro.service.store import (
    CACHED,
    DONE,
    FAILED,
    QUARANTINED,
    QUEUED,
)
from repro.service.wire import parse_submission, submission_to_wire
from repro.service.worker import ServiceWorker
from repro.cli import validate_runner_args
from repro.workflows.generators import montage

CLUSTER = preset_spec("hybrid", nodes=2, cores_per_node=2, gpus_per_node=1)


def _jobs(n=6, seed=23, prefix="wsvc"):
    wf = montage(size=10, seed=seed)
    return [
        make_job(wf, CLUSTER, scheduler="heft", seed=seed + i, noise_cv=0.1,
                 label=f"{prefix}:{i}")
        for i in range(n)
    ]


def _failing_job(seed=23, label="wsvc:poison"):
    """A cell that raises inside the worker (unknown RunConfig field)."""
    return make_job(
        montage(size=10, seed=seed), CLUSTER, scheduler="heft",
        seed=seed, bogus_config_field=1, label=label,
    )


def _worker(store, tmp_path, worker_id, cache="cache", **kwargs):
    runner = CampaignRunner(
        jobs=1, cache=ResultCache(str(tmp_path / cache)),
        failure_mode="record", max_retries=kwargs.pop("max_retries", 1),
        retry_failed=kwargs.pop("retry_failed", False),
    )
    return runner, ServiceWorker(store, runner, worker_id=worker_id, **kwargs)


# --------------------------------------------------------------------- #
# worker end-to-end                                                     #
# --------------------------------------------------------------------- #

def test_worker_drains_store_with_byte_identical_records(tmp_path):
    """Service execution is the inline campaign path, byte for byte."""
    jobs = _jobs(6)
    store = JobStore(str(tmp_path / "store.db"))
    cid = store.submit("e2e", jobs)
    runner, worker = _worker(store, tmp_path, "w1", batch=4, ttl=8)
    with runner:
        stats = worker.run(max_polls=40)
    assert stats.done == 6 and stats.halted is False
    assert store.drained()

    with CampaignRunner(jobs=1) as inline:
        reference = inline.run_sims(_jobs(6))
    for job, record in zip(jobs, reference):
        stored = store.cell(cid, cache_key(job))["result"]
        assert (
            json.dumps(stored, sort_keys=True)
            == json.dumps(record.to_dict(), sort_keys=True)
        )
    store.close()


def test_a_queued_row_in_the_old_shape_runs_with_the_same_bytes(tmp_path):
    """A store written before the workflows table inlined each cell's
    document in its row: such a row still leases and runs, and its
    record has the bytes a fresh submission's record has."""
    job = _jobs(1, seed=31, prefix="old")[0]
    records = []
    for name in ("fresh", "old"):
        path = str(tmp_path / f"{name}.db")
        store = JobStore(path)
        cid = store.submit(name, [job])
        store.close()
        if name == "old":
            raw = sqlite3.connect(path)
            with raw:
                raw.execute("DROP TABLE workflows")
                raw.execute("UPDATE cells SET job = ?", (json.dumps({
                    "schema": "repro.service.cell/v1",
                    "workflow": job.workflow, "cluster": job.cluster,
                    "scheduler": job.scheduler, "config": job.config,
                    "label": job.label,
                }, sort_keys=True),))
            raw.close()
        store = JobStore(path)
        runner, worker = _worker(store, tmp_path, "w1", cache=f"cache-{name}")
        with runner:
            stats = worker.run(max_polls=40)
        assert stats.done == 1
        records.append(json.dumps(
            store.cell(cid, cache_key(job))["result"], sort_keys=True,
        ))
        store.close()
    assert records[0] == records[1]


def test_resubmission_resolves_from_the_shared_cache(tmp_path):
    jobs = _jobs(5)
    store = JobStore(str(tmp_path / "store.db"))
    store.submit("first", jobs)
    runner, worker = _worker(store, tmp_path, "w1")
    with runner:
        worker.run(max_polls=40)

    cid2 = store.submit("again", jobs)
    runner2, worker2 = _worker(store, tmp_path, "w2")
    with runner2:
        stats2 = worker2.run(max_polls=40)
    assert stats2.cached == 5 and stats2.done == 0
    assert store.counts(cid2)[CACHED] == 5
    assert runner2.cache.stats.hits >= 5  # the shared-cache payoff
    store.close()


def test_lease_recall_counts_one_lookup_per_cell(tmp_path):
    """A lease of 3 cached and 3 fresh cells: 3 `cached`, 3 `done`, and
    the cache is read once per cell (3 hits, 3 misses)."""
    jobs = _jobs(6, seed=41, prefix="mixed")
    with CampaignRunner(
        jobs=1, cache=ResultCache(str(tmp_path / "cache"))
    ) as warmer:
        warmer.run_sims(jobs[:3])
    store = JobStore(str(tmp_path / "store.db"))
    cid = store.submit("mixed", jobs)
    runner, worker = _worker(store, tmp_path, "w1", batch=6)
    with runner:
        stats = worker.run(max_polls=40)
    assert stats.leases == 1
    assert stats.cached == 3 and stats.done == 3
    assert store.counts(cid)[CACHED] == 3
    assert runner.cache.stats.hits == 3
    assert runner.cache.stats.misses == 3
    assert runner.recalled == 3 and runner.simulated == 3
    store.close()


def test_retry_failed_re_executes_a_cached_failure(tmp_path):
    """--retry-failed works in the service as it does inline: a cached
    failure is recalled `cached` by default and re-executed with it."""
    store = JobStore(str(tmp_path / "store.db"))
    store.submit("first", [_failing_job()])
    runner, worker = _worker(store, tmp_path, "w1", max_retries=0)
    with runner:
        assert worker.run(max_polls=40).failed == 1

    cid2 = store.submit("recall", [_failing_job()])
    runner2, worker2 = _worker(store, tmp_path, "w2", max_retries=0)
    with runner2:
        stats2 = worker2.run(max_polls=40)
    assert stats2.cached == 1 and runner2.failed == 0
    assert store.counts(cid2)[CACHED] == 1

    cid3 = store.submit("retry", [_failing_job()])
    runner3, worker3 = _worker(
        store, tmp_path, "w3", max_retries=0, retry_failed=True,
    )
    with runner3:
        stats3 = worker3.run(max_polls=40)
    assert stats3.cached == 0 and stats3.failed == 1
    assert runner3.failed == 1 and runner3.recalled == 0
    assert store.counts(cid3)[FAILED] == 1
    store.close()


def test_two_workers_share_one_store_without_overlap(tmp_path):
    """The e2e two-worker test: separate connections, disjoint work."""
    path = str(tmp_path / "store.db")
    seed_store = JobStore(path)
    cid = seed_store.submit("pair", _jobs(10))
    seed_store.close()

    stats_by_worker = {}
    errors = []

    def drive(worker_id: str) -> None:
        store = JobStore(path)
        runner, worker = _worker(
            store, tmp_path, worker_id, batch=2, ttl=30,
        )
        try:
            with runner:
                stats_by_worker[worker_id] = worker.run(max_polls=200)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            store.close()

    threads = [
        threading.Thread(target=drive, args=(f"w{i}",)) for i in (1, 2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []

    check = JobStore(path)
    counts = check.counts(cid)
    assert counts[DONE] + counts[CACHED] == 10
    assert check.drained()
    finished = sum(
        s.done + s.cached for s in stats_by_worker.values()
    )
    assert finished == 10  # each cell finished by exactly one worker
    check.close()


def test_dead_workers_cells_are_recovered_by_a_live_worker(tmp_path):
    """A lease that stops heartbeating is reclaimed and re-executed."""
    store = JobStore(str(tmp_path / "store.db"))
    cid = store.submit("recover", _jobs(4))
    # the "dead" worker: leases two cells, then never comes back
    dead = store.lease("w-dead", 2, ttl=3)
    store.mark_running(dead.token)

    runner, worker = _worker(store, tmp_path, "w-live", batch=4, ttl=8)
    with runner:
        stats = worker.run(max_polls=60)
    assert store.drained()
    assert stats.reclaimed == 2  # the live worker's polls reclaimed them
    assert store.counts(cid)[DONE] == 4
    for cell in store.cells(cid):
        assert cell["state"] == DONE
    store.close()


def test_failure_states_split_failed_from_quarantined(tmp_path, monkeypatch):
    """First-attempt permanent failures land `failed`; retried ones
    that exhaust their rounds land `quarantined` — PR 7's classification
    surfaced as store states."""
    store = JobStore(str(tmp_path / "store.db"))
    cid = store.submit("verdicts", [_failing_job()] + _jobs(2))
    runner, worker = _worker(store, tmp_path, "w1", max_retries=1)
    with runner:
        stats = worker.run(max_polls=40)
    assert stats.failed == 1 and stats.done == 2
    failed = store.cells(cid, state=FAILED)
    assert len(failed) == 1
    record = store.cell(cid, failed[0]["key"])["result"]
    assert record["kind"].startswith("repro.cell-failure/")
    store.close()

    # retryable (transient) failures that exhaust the retry budget
    # → quarantined, the retry loop's give-up verdict
    store2 = JobStore(str(tmp_path / "store2.db"))
    cid2 = store2.submit("transient", _jobs(2, seed=31, prefix="tq"))
    monkeypatch.setenv(
        "REPRO_FAIL_INJECT", json.dumps({"rate": 1.0, "seed": 3})
    )
    runner2, worker2 = _worker(
        store2, tmp_path, "w2", cache="cache2", max_retries=0,
    )
    with runner2:
        stats2 = worker2.run(max_polls=40)
    assert stats2.quarantined == 2
    counts = store2.counts(cid2)
    assert counts[QUARANTINED] == 2
    store2.close()


def test_commit_wakeups_never_advance_the_logical_clock(tmp_path):
    """A keep-alive worker leases submissions from another connection on
    a commit wake-up; the clock still ticks once per processed lease and
    once per idle period that timed out, never once per wake-up."""
    path = str(tmp_path / "store.db")
    store = JobStore(path)
    runner, worker = _worker(store, tmp_path, "w1", batch=2, ttl=8)
    errors = []

    def drive() -> None:
        try:
            with runner:
                worker.run(keep_alive=True, max_polls=30)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    thread = threading.Thread(target=drive)
    thread.start()
    submitter = JobStore(path)
    try:
        for k in range(3):
            cid = submitter.submit(f"wake-{k}", _jobs(2, seed=51 + 10 * k))
            for _ in range(2000):
                if submitter.campaign(cid)["done"] or not thread.is_alive():
                    break
                time.sleep(0.005)
        thread.join(timeout=60)
        assert not thread.is_alive() and errors == []
        assert submitter.drained()
    finally:
        submitter.close()
    stats = worker.stats
    assert stats.wakeups >= 1 and stats.leases >= 3
    assert store.now() == stats.polls == stats.leases + stats.idle
    store.close()


def test_worker_rejects_raise_mode_runners(tmp_path):
    store = JobStore(str(tmp_path / "store.db"))
    with pytest.raises(ValueError, match="record"):
        ServiceWorker(store, CampaignRunner(jobs=1, failure_mode="raise"))
    store.close()


def test_every_completed_cell_is_already_durable(tmp_path, monkeypatch):
    """At each accepted complete(), a fresh cache on the worker's root
    already returns the cell's record: durable before terminal."""
    jobs = _jobs(5, seed=61, prefix="durable") + [_failing_job(seed=61)]
    store = JobStore(str(tmp_path / "store.db"))
    store.submit("durable", jobs)
    runner, worker = _worker(store, tmp_path, "w1", batch=6, max_retries=0)
    complete, durable = store.complete, []

    def checked(campaign_id, key, *args, **kwargs):
        found = ResultCache(runner.cache.root).get(key) is not None
        accepted = complete(campaign_id, key, *args, **kwargs)
        if accepted:
            durable.append(found)
        return accepted

    monkeypatch.setattr(store, "complete", checked)
    with runner:
        stats = worker.run(max_polls=40)
    assert stats.done == 5 and stats.failed == 1
    assert durable == [True] * 6
    store.close()


def test_worker_on_another_cache_root_is_refused(tmp_path):
    """A store names one cache: a worker bound to another root, or to
    none, is refused, and the message names both roots."""
    store = JobStore(str(tmp_path / "store.db"))
    _worker(store, tmp_path, "w1")
    with pytest.raises(StoreError) as refused:
        _worker(store, tmp_path, "w2", cache="elsewhere")
    assert str(tmp_path / "cache") in str(refused.value)
    assert str(tmp_path / "elsewhere") in str(refused.value)
    with pytest.raises(ValueError, match="cache"):
        ServiceWorker(store, CampaignRunner(jobs=1, failure_mode="record"))
    store.close()


# --------------------------------------------------------------------- #
# the JSON API                                                          #
# --------------------------------------------------------------------- #

@pytest.fixture()
def served(tmp_path):
    store = JobStore(str(tmp_path / "store.db"))
    server = build_server(store, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield store, server.server_address[1]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    store.close()


def _call(port, path, body=None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def test_api_submit_query_and_errors(served, tmp_path):
    store, port = served
    status, body = _call(port, "/api/ping")
    assert status == 200 and body["ok"] is True

    jobs = _jobs(3)
    status, body = _call(
        port, "/api/campaigns", submission_to_wire("api", jobs)
    )
    assert status == 200
    cid = body["campaign"]["id"]
    assert body["campaign"]["counts"][QUEUED] == 3

    status, body = _call(port, "/api/campaigns")
    assert status == 200 and [c["id"] for c in body["campaigns"]] == [cid]

    status, body = _call(port, f"/api/campaigns/{cid}/cells?state=queued")
    assert status == 200 and len(body["cells"]) == 3
    key = body["cells"][0]["key"]
    status, body = _call(port, f"/api/campaigns/{cid}/cells/{key}")
    assert status == 200 and body["cell"]["key"] == key

    # the error contract: structured JSON, never a traceback page
    assert _call(port, "/api/campaigns/nope")[0] == 404
    assert _call(port, f"/api/campaigns/{cid}/cells/nope")[0] == 404
    assert _call(port, "/api/nope")[0] == 404
    status, body = _call(port, "/api/campaigns", {"schema": "wrong"})
    assert status == 400 and "schema" in body["error"]

    status, body = _call(port, "/api/metrics")
    assert status == 200 and body["counts"][QUEUED] == 3
    status, body = _call(port, "/api/store")
    assert status == 200 and len(body["dump"]["cells"]) == 3


def test_a_submission_lists_each_document_once():
    """Cells of one document object share one ``workflows`` entry, and
    parsing hands them one dict again."""
    first = _jobs(3)
    jobs = [replace(job, workflow=first[0].workflow) for job in first]
    jobs += _jobs(2, seed=29)  # a document object per cell
    body = submission_to_wire("docs", jobs)
    assert len(body["workflows"]) == 3
    assert [c["workflow"] for c in body["cells"]] == [0, 0, 0, 1, 2]
    name, parsed = parse_submission(json.loads(json.dumps(body)))
    assert name == "docs"
    assert parsed[0].workflow is parsed[1].workflow is parsed[2].workflow
    assert parsed[3].workflow is not parsed[4].workflow
    assert [cache_key(job) for job in parsed] == [
        cache_key(job) for job in jobs
    ]


def _broken(body, fix):
    fix(body)
    return body


@pytest.mark.parametrize("fix, fragment", [
    (lambda b: b.update(
        schema="repro.service.submit/v1",
        cells=[{**c, "workflow": b["workflows"][0]} for c in b["cells"]],
    ), "expected schema 'repro.service.submit/v2'"),
    (lambda b: b.pop("workflows"), "missing required field 'workflows'"),
    (lambda b: b["workflows"].append([1]), "workflows[1]: must be a JSON object"),
    (lambda b: b["cells"][1].update(workflow=1), "cells[1]: field 'workflow'"),
    (lambda b: b["cells"][0].update(workflow=-1), "cells[0]: field 'workflow'"),
    (lambda b: b["cells"][0].update(workflow=True), "cells[0]: field 'workflow'"),
    (lambda b: b["cells"][0].update(workflow="0"), "cells[0]: field 'workflow'"),
    (lambda b: b["cells"][0].update(
        config={**b["cells"][0]["config"], "seed": float("nan")},
    ), ": NaN is not a number"),
    (lambda b: b["cells"][1].update(
        cluster={**b["cells"][1]["cluster"], "scale": float("inf")},
    ), ": Infinity is not a number"),
    (lambda b: b["workflows"][0].update(scale=float("-inf")),
     ": -Infinity is not a number"),
], ids=[
    "v1-body", "no-workflows", "document-not-object", "index-out-of-range",
    "negative-index", "bool-index", "string-index", "nan-literal",
    "infinity-literal", "negative-infinity-literal",
])
def test_api_rejects_a_malformed_submission_naming_the_field(
    served, fix, fragment
):
    store, port = served
    jobs = _jobs(2)
    body = submission_to_wire("bad", [jobs[0], jobs[0]])
    status, reply = _call(port, "/api/campaigns", _broken(body, fix))
    assert status == 400 and fragment in reply["error"]
    assert store.campaigns() == []


def test_kept_alive_connection_replies_without_delay(served):
    """Ten requests on one connection: no reply waits for a delayed ACK
    (that stall alone was ~40 ms a request)."""
    _store, port = served
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        start = time.perf_counter()
        for _ in range(10):
            conn.request("GET", "/api/ping")
            reply = conn.getresponse()
            assert reply.status == 200 and json.loads(reply.read())["ok"]
        elapsed = time.perf_counter() - start
    finally:
        conn.close()
    assert elapsed < 0.2


def test_api_campaign_completes_via_worker(served, tmp_path):
    store, port = served
    jobs = _jobs(4, seed=29, prefix="api-run")
    _call(port, "/api/campaigns", submission_to_wire("run", jobs))
    runner, worker = _worker(store, tmp_path, "w1")
    with runner:
        worker.run(max_polls=40)
    status, body = _call(port, "/api/campaigns")
    campaign = body["campaigns"][0]
    assert campaign["done"] is True and campaign["counts"][DONE] == 4
    cell_key = cache_key(jobs[0])
    status, body = _call(
        port, f"/api/campaigns/{campaign['id']}/cells/{cell_key}"
    )
    result = body["cell"]["result"]
    assert "makespan" in result and "kind" not in result  # a SimRecord


def test_api_drain_refuses_submissions_then_stop_shuts_down(tmp_path):
    store = JobStore(str(tmp_path / "store.db"))
    server = build_server(store, port=0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        status, body = _call(port, "/api/drain", {})
        assert status == 200 and body["draining"] is True
        status, _ = _call(
            port, "/api/campaigns", submission_to_wire("late", _jobs(1))
        )
        assert status == 503
        status, body = _call(port, "/api/stop", {})
        assert status == 200 and body["stopping"] is True
        thread.join(timeout=5)
        assert not thread.is_alive()
    finally:
        server.server_close()
        store.close()


# --------------------------------------------------------------------- #
# up-front CLI flag validation (shared by campaign/exp/worker/serve)    #
# --------------------------------------------------------------------- #

class _Args:
    def __init__(self, **kw):
        self.__dict__.update(kw)


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(command="campaign", resume=True, cache_dir=None), "cache-dir"),
    (dict(command="campaign", resume=True, cache_dir="c", no_cache=True),
     "cache-dir"),
    (dict(command="exp", no_cache=True, cache_dir=None), "no-cache"),
    (dict(command="worker", cache_dir=None), "cache-dir"),
])
def test_validate_runner_args_rejects_bad_combinations(kwargs, fragment):
    problem = validate_runner_args(_Args(**kwargs))
    assert problem is not None and fragment in problem


@pytest.mark.parametrize("kwargs", [
    dict(command="campaign", resume=True, cache_dir="c"),
    dict(command="campaign"),
    dict(command="worker", cache_dir="c", store="s.db"),
    dict(command="serve", store="s.db"),
    dict(command="run"),
])
def test_validate_runner_args_accepts_good_combinations(kwargs):
    assert validate_runner_args(_Args(**kwargs)) is None
