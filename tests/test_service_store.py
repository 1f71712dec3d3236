"""JobStore state machine, lease protocol, and contention guarantees."""

from __future__ import annotations

import itertools
import multiprocessing
import os
import sqlite3
import sys
import threading

import pytest

from repro.experiments.common import make_job, preset_spec
from repro.runner.cache import ResultCache
from repro.service import (
    ALLOWED_TRANSITIONS,
    CELL_STATES,
    IllegalTransition,
    JobStore,
    StoreError,
    TERMINAL_STATES,
    can_transition,
)
from repro.service.store import (
    CACHED, DONE, FAILED, LEASED, QUEUED, RUNNING,
)
from repro.workflows.generators import montage

CLUSTER = preset_spec("hybrid", nodes=2, cores_per_node=2, gpus_per_node=1)


def _jobs(n=6, seed=11, prefix="svc"):
    wf = montage(size=10, seed=seed)
    return [
        make_job(wf, CLUSTER, scheduler="heft", seed=seed + i, noise_cv=0.1,
                 label=f"{prefix}:{i}")
        for i in range(n)
    ]


@pytest.fixture()
def store(tmp_path):
    s = JobStore(str(tmp_path / "store.db"))
    yield s
    s.close()


# --------------------------------------------------------------------- #
# the transition relation                                               #
# --------------------------------------------------------------------- #

def test_transition_relation_is_exactly_the_documented_one():
    """Property sweep: every (from, to) pair answers per the table."""
    for frm, to in itertools.product(CELL_STATES, CELL_STATES):
        assert can_transition(frm, to) == (to in ALLOWED_TRANSITIONS[frm])


def test_terminal_states_have_no_outgoing_edges():
    for state in TERMINAL_STATES:
        assert ALLOWED_TRANSITIONS[state] == ()
        for to in CELL_STATES:
            assert not can_transition(state, to)


def test_every_state_is_reachable_from_queued():
    """The forward relation covers the whole lifecycle."""
    reachable, frontier = set(), {QUEUED}
    while frontier:
        state = frontier.pop()
        reachable.add(state)
        frontier.update(set(ALLOWED_TRANSITIONS[state]) - reachable)
    assert reachable == set(CELL_STATES)


# --------------------------------------------------------------------- #
# submission                                                            #
# --------------------------------------------------------------------- #

def test_submit_queues_each_distinct_cell_once(store):
    jobs = _jobs(4)
    cid = store.submit("dup", jobs + jobs[:2])  # two duplicates
    status = store.campaign(cid)
    assert status["cells"] == 4
    assert store.counts(cid)[QUEUED] == 4


def _stored_documents(path):
    conn = sqlite3.connect(path)
    try:
        return conn.execute("SELECT COUNT(*) FROM workflows").fetchone()[0]
    finally:
        conn.close()


def test_two_campaigns_over_one_document_store_one_copy(tmp_path):
    """Each document is kept once, under its fingerprint: equal
    documents in other objects and later campaigns add no copy."""
    path = str(tmp_path / "docs.db")
    store = JobStore(path)
    store.submit("first", _jobs(4, prefix="a"))  # one document per cell
    store.submit("again", _jobs(3, prefix="b"))  # equal content
    store.submit("other", _jobs(2, seed=41, prefix="c"))
    assert _stored_documents(path) == 2
    store.close()


def test_a_lease_shares_each_document_and_cluster_spec(tmp_path):
    """Cells of one document share one dict, and cells of equal cluster
    specs one spec dict, in a lease and across this connection's leases."""
    path = str(tmp_path / "shared.db")
    store = JobStore(path)
    store.submit("mix", _jobs(3, seed=11, prefix="a") + _jobs(3, seed=41))
    first = store.lease("w1", 4, ttl=5)
    second = store.lease("w1", 4, ttl=5)
    cells = first.cells + second.cells
    by_group = {}
    for cell in cells:
        by_group.setdefault(cell.label[0], []).append(cell.job.workflow)
    for docs in by_group.values():
        assert all(doc is docs[0] for doc in docs)
    assert by_group["a"][0] is not by_group["s"][0]
    assert len({id(cell.job.cluster) for cell in cells}) == 1
    assert cells[0].job.cluster == CLUSTER
    # Another connection reads its own copies.
    other = JobStore(path)
    store.release(first.token)
    assert other.lease("w2", 1, ttl=5).cells[0].job.workflow is not (
        by_group["a"][0]
    )
    other.close()
    store.close()


def test_a_row_naming_no_stored_document_fails_the_lease(tmp_path):
    path = str(tmp_path / "broken.db")
    store = JobStore(path)
    store.submit("broken", _jobs(1))
    raw = sqlite3.connect(path)
    with raw:
        raw.execute("DELETE FROM workflows")
    raw.close()
    with pytest.raises(StoreError, match="no stored workflow document"):
        store.lease("w1", 1, ttl=5)
    assert store.counts()[QUEUED] == 1  # the claim rolled back
    store.close()


def test_submit_rejects_empty_campaigns(store):
    with pytest.raises(StoreError):
        store.submit("empty", [])


def test_global_seq_is_contiguous_in_submission_order(tmp_path):
    """Across campaigns, and across reopening a store written before the
    sequence counter existed (cells, no counter row): numbering resumes
    after the highest row, so lease order stays submission order."""
    path = str(tmp_path / "seq.db")
    store = JobStore(path)
    first = store.submit("one", _jobs(3, seed=11, prefix="a"))
    second = store.submit("two", _jobs(4, seed=41, prefix="b"))
    store.close()
    raw = sqlite3.connect(path)
    with raw:
        raw.execute("DELETE FROM meta WHERE key = 'cell_seq'")
    raw.close()

    store = JobStore(path)
    third = store.submit("three", _jobs(2, seed=71, prefix="c"))
    seqs = [
        cell["seq"] for cid in (first, second, third)
        for cell in store.cells(cid)
    ]
    assert seqs == list(range(1, 10))
    lease = store.lease("w1", 9, ttl=5)
    assert [c.label for c in lease.cells] == (
        [f"a:{i}" for i in range(3)] + [f"b:{i}" for i in range(4)]
        + [f"c:{i}" for i in range(2)]
    )
    store.close()


def test_change_probe_sees_only_other_connections_commits(tmp_path):
    path = str(tmp_path / "probe.db")
    mine, other = JobStore(path), JobStore(path)
    try:
        seen = mine.data_version()
        mine.tick()
        mine.submit("own", _jobs(1))
        assert mine.data_version() == seen  # its own commits: unmoved
        other.tick()
        moved = mine.data_version()
        assert moved != seen  # another connection's commit: moved
        assert mine.data_version() == moved  # reading does not move it
    finally:
        mine.close()
        other.close()


def _open_new_stores(directory, trials, barrier):
    """Open ``trials`` new stores in step with the peers; exit with the
    number of opens that failed."""
    failed = 0
    for trial in range(trials):
        barrier.wait(timeout=60)
        try:
            JobStore(os.path.join(directory, f"new-{trial}.db")).close()
        except sqlite3.OperationalError:
            failed += 1
    sys.exit(failed)


def test_processes_opening_one_new_store_together_all_succeed(tmp_path):
    """Three processes released together open the same new store, 20
    times over: every open waits out its peers' set-up and succeeds."""
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(3)
    procs = [
        context.Process(
            target=_open_new_stores, args=(str(tmp_path), 20, barrier),
        )
        for _ in range(3)
    ]
    try:
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0, 0, 0]
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.kill()
                proc.join()


def test_campaign_ids_are_deterministic(tmp_path):
    """Same submissions against fresh stores mint identical ids."""
    ids = []
    for name in ("a", "b"):
        s = JobStore(str(tmp_path / f"{name}.db"))
        ids.append(s.submit("det", _jobs(3)))
        s.close()
    assert ids[0] == ids[1]


# --------------------------------------------------------------------- #
# lease lifecycle                                                       #
# --------------------------------------------------------------------- #

def test_lease_claims_in_submission_order_up_to_limit(store):
    jobs = _jobs(5)
    store.submit("order", jobs)
    lease = store.lease("w1", 3, ttl=5)
    assert len(lease) == 3
    assert [c.label for c in lease.cells] == ["svc:0", "svc:1", "svc:2"]
    assert all(c.attempts == 1 for c in lease.cells)
    counts = store.counts()
    assert counts[QUEUED] == 2 and counts[LEASED] == 3
    assert store.lease("w2", 5, ttl=5).cells[0].label == "svc:3"


def test_lease_on_empty_queue_returns_none(store):
    assert store.lease("w1", 4, ttl=5) is None


def test_complete_requires_running_and_live_token(store):
    cid = store.submit("life", _jobs(2))
    lease = store.lease("w1", 2, ttl=5)
    cell = lease.cells[0]

    # leased (not yet running) cells cannot complete, even with the token
    with pytest.raises(IllegalTransition):
        store.complete(cid, cell.key, lease.token, DONE)

    assert store.mark_running(lease.token) == 2
    # a non-terminal target state is rejected outright
    with pytest.raises(IllegalTransition):
        store.complete(cid, cell.key, lease.token, RUNNING)
    # a token the store never granted is a stale write: dropped, not an error
    assert store.complete(cid, cell.key, "w9.999", DONE) is False
    assert store.cell(cid, cell.key)["state"] == RUNNING

    assert store.complete(cid, cell.key, lease.token, DONE) is True
    got = store.cell(cid, cell.key)
    # the store holds no records; with no cache named there is none
    assert got["state"] == DONE and got["result"] is None
    # a terminal cell clears its token, so a duplicate completion is a
    # stale write (dropped), never a second verdict
    assert store.complete(cid, cell.key, lease.token, CACHED) is False
    assert store.cell(cid, cell.key)["state"] == DONE


def test_completing_an_unknown_cell_is_an_error(store):
    cid = store.submit("unknown", _jobs(1))
    with pytest.raises(StoreError):
        store.complete(cid, "no-such-key", "w1.1", DONE)


def test_release_returns_unfinished_cells_to_the_queue(store):
    cid = store.submit("release", _jobs(3))
    lease = store.lease("w1", 3, ttl=5)
    store.mark_running(lease.token)
    cell = lease.cells[0]
    store.complete(cid, cell.key, lease.token, DONE)
    assert store.release(lease.token) == 2  # the two unfinished ones
    counts = store.counts()
    assert counts[QUEUED] == 2 and counts[DONE] == 1
    for row in store.cells(cid, state=QUEUED):
        assert row["lease_token"] is None and row["worker"] is None


# --------------------------------------------------------------------- #
# expiry and reclaim                                                    #
# --------------------------------------------------------------------- #

def test_expired_lease_requeues_exactly_once(store):
    cid = store.submit("expiry", _jobs(2))
    lease = store.lease("w1", 2, ttl=2)
    store.mark_running(lease.token)
    assert store.reclaim_expired() == []  # not expired yet
    for _ in range(3):
        store.tick()
    first = store.reclaim_expired()
    assert sorted(key for _cid, key in first) == sorted(
        c.key for c in lease.cells
    )
    # the second reclaim — or a concurrent one — finds nothing to do
    assert store.reclaim_expired() == []
    for row in store.cells(cid, state=QUEUED):
        assert row["reclaims"] == 1 and row["attempts"] == 1


def test_heartbeat_keeps_a_live_lease_alive(store):
    store.submit("hb", _jobs(1))
    lease = store.lease("w1", 1, ttl=2)
    store.mark_running(lease.token)
    for _ in range(6):
        store.tick()
        assert store.heartbeat(lease.token, 2) == 1
        assert store.reclaim_expired() == []


def test_reclaimed_lease_rejects_the_zombies_stale_token(store):
    """The SIGKILL story, minus the SIGKILL: old tokens lose."""
    cid = store.submit("zombie", _jobs(1))
    dead = store.lease("w-dead", 1, ttl=2)
    store.mark_running(dead.token)
    for _ in range(3):
        store.tick()
    assert len(store.reclaim_expired()) == 1

    live = store.lease("w-live", 1, ttl=5)
    assert live.cells[0].attempts == 2  # attempts survive the reclaim
    store.mark_running(live.token)
    key = live.cells[0].key

    # the presumed-dead worker wakes up and tries to write: discarded
    assert store.complete(cid, key, dead.token, FAILED) is False
    assert store.complete(cid, key, live.token, DONE) is True
    assert store.cell(cid, key)["state"] == DONE


# --------------------------------------------------------------------- #
# contention                                                            #
# --------------------------------------------------------------------- #

def test_concurrent_lease_contention_never_double_assigns(tmp_path):
    """Workers on separate connections race; each cell has one owner."""
    path = str(tmp_path / "contended.db")
    seed_store = JobStore(path)
    seed_store.submit("contended", _jobs(24, prefix="race"))
    seed_store.close()

    claimed: list = []
    errors: list = []
    barrier = threading.Barrier(6)

    def grab(worker_no: int) -> None:
        s = JobStore(path)
        try:
            barrier.wait()
            while True:
                lease = s.lease(f"w{worker_no}", 3, ttl=50)
                if lease is None:
                    return
                claimed.append([c.key for c in lease.cells])
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            s.close()

    threads = [
        threading.Thread(target=grab, args=(i,)) for i in range(6)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert errors == []
    flat = [key for batch in claimed for key in batch]
    assert len(flat) == 24, "every cell claimed"
    assert len(set(flat)) == 24, "no cell claimed twice"


def test_concurrent_record_reads_lose_no_synced_record(tmp_path):
    """Eight threads read cells while they complete one by one: the
    shared cache folds every synced manifest line in exactly once, so a
    terminal cell always shows its record."""
    store = JobStore(str(tmp_path / "store.db"))
    cid = store.submit("reads", _jobs(16, prefix="read"))
    store.name_cache(str(tmp_path / "cache"))
    lease = store.lease("w1", 16, ttl=50)
    store.mark_running(lease.token)
    writer = ResultCache(str(tmp_path / "cache"))
    done, missing = threading.Event(), []

    def read() -> None:
        while not done.is_set():
            for leased in lease.cells:
                cell = store.cell(cid, leased.key)
                if cell["state"] == DONE and cell["result"] is None:
                    missing.append(cell["key"])

    threads = [threading.Thread(target=read) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for cell in lease.cells:
            writer.put(cell.key, {"key": cell.key})
            writer.sync()
            store.complete(cid, cell.key, lease.token, DONE)
    finally:
        done.set()
        for t in threads:
            t.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert missing == []
    assert [c["result"] for c in store.dump()["cells"]] == [
        {"key": c.key} for c in lease.cells
    ]
    store.close()


# --------------------------------------------------------------------- #
# queries                                                               #
# --------------------------------------------------------------------- #

def test_status_queries_and_dump_shapes(store, tmp_path):
    cid = store.submit("shapes", _jobs(3))
    lease = store.lease("w1", 1, ttl=5)
    store.mark_running(lease.token)
    cell = lease.cells[0]
    # records live in the cache the store names, synced before completion
    store.name_cache(str(tmp_path / "cache"))
    with ResultCache(str(tmp_path / "cache")) as cache:
        cache.put(cell.key, {"v": 2})
    store.complete(cid, cell.key, lease.token, DONE)

    status = store.campaign(cid)
    assert status["counts"][DONE] == 1 and status["counts"][QUEUED] == 2
    assert status["done"] is False

    assert [c["state"] for c in store.cells(cid, state=DONE)] == [DONE]
    with pytest.raises(StoreError):
        store.cells(cid, state="bogus")
    with pytest.raises(StoreError):
        store.campaign("no-such-campaign")
    assert store.cell(cid, "no-such-key") is None

    assert store.cell(cid, cell.key)["result"] == {"v": 2}
    assert "result" not in store.cells(cid)[0]  # listings skip the cache

    dump = store.dump()
    assert dump["schema"].startswith("repro.service.dump/")
    assert [c["result"] for c in dump["cells"]] == [{"v": 2}, None, None]
    assert dump["counts"][DONE] == 1
    assert store.has_queued() and not store.drained()


def test_a_store_with_the_old_result_column_still_opens(tmp_path):
    """A store written when cells carried their records opens and runs
    the lifecycle; the old column is never read or written."""
    path = str(tmp_path / "old.db")
    JobStore(path).close()
    raw = sqlite3.connect(path)
    with raw:
        raw.execute("ALTER TABLE cells ADD COLUMN result TEXT")
    raw.close()
    store = JobStore(path)
    cid = store.submit("old", _jobs(1))
    lease = store.lease("w1", 1, ttl=5)
    store.mark_running(lease.token)
    assert store.complete(cid, lease.cells[0].key, lease.token, DONE)
    assert [c["result"] for c in store.dump()["cells"]] == [None]
    store.close()
