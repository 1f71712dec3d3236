#!/usr/bin/env python
"""Service smoke: kill a worker mid-batch, verify lease-reclaim resume.

The campaign service's crash-safety contract, exercised over real
process and HTTP boundaries:

1. boot the JSON API (``repro-flow serve``) against a fresh job store;
2. submit a campaign over HTTP;
3. start worker #1 with the deterministic stall hook (``--stall-after``)
   so it completes a few cells, then wedges mid-batch — holding a live
   lease but never heartbeating — and SIGKILL it at that exact moment;
4. start worker #2 against the same store and shared result cache; its
   polls advance the store's logical clock past the dead lease's TTL,
   the reclaim requeues the unfinished cells exactly once, and the
   campaign drains to completion;
5. assert the final records are byte-identical to an uninterrupted
   inline run of the same cells (the service path *is* the campaign
   path), then resubmit the identical campaign and assert every cell
   resolves from the shared cache (``cached`` state, zero simulations)
   and the store still holds one copy of each workflow document.

Artifacts: a schema-versioned status JSON (checks + metrics) and the
full store dump, both under ``--work-dir`` for CI upload.

Usage::

    python scripts/service_smoke.py --out bench_out/service_smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sqlite3
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SCHEMA = "repro.service-smoke/v1"
WAIT_S = 90.0  # per-step deadline: generous for CI, finite for hangs


def _jobs(n: int, seed: int):
    from repro.experiments.common import make_job, preset_spec
    from repro.workflows.generators import montage
    from repro.workflows.serialize import workflow_to_dict

    cluster = preset_spec("hybrid", nodes=2, cores_per_node=2, gpus_per_node=1)
    doc = workflow_to_dict(montage(size=10, seed=seed))
    return [
        make_job(doc, cluster, scheduler="heft", seed=seed + i, noise_cv=0.1,
                 label=f"smoke:{i}")
        for i in range(n)
    ]


def _stored_documents(store_path: Path) -> int:
    """How many workflow documents the store holds (read-only query)."""
    conn = sqlite3.connect(f"file:{store_path}?mode=ro", uri=True)
    try:
        return conn.execute("SELECT COUNT(*) FROM workflows").fetchone()[0]
    finally:
        conn.close()


def _call(port: int, path: str, body=None, timeout: float = 10.0):
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _wait(predicate, what: str, deadline_s: float = WAIT_S) -> bool:
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < deadline_s:
        if predicate():
            return True
        time.sleep(0.1)
    print(f"FAIL timeout waiting for {what}", file=sys.stderr)
    return False


def _spawn(cmd, log_path: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    log = open(log_path, "w", encoding="utf-8")
    return subprocess.Popen(
        cmd, cwd=REPO_ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
    )


def _serve_port(log_path: Path) -> int:
    """Parse the bound port from the server's 'listening on' line."""
    port = 0

    def scan() -> bool:
        nonlocal port
        if not log_path.exists():
            return False
        for line in log_path.read_text(encoding="utf-8").splitlines():
            if "listening on http://" in line:
                port = int(line.rsplit(":", 1)[1])
                return True
        return False

    if not _wait(scan, "server to bind"):
        raise RuntimeError("server never reported its port")
    return port


def phase_drive(args) -> int:
    from repro.runner.hashing import cache_key, workflow_fingerprint
    from repro.runner.pool import CampaignRunner
    from repro.service.wire import submission_to_wire

    work = Path(args.work_dir) / "service-smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    store_path = work / "store.db"
    cache_dir = work / "cache"
    marker = work / "stall.marker"

    jobs = _jobs(args.cells, args.seed)
    keys = [cache_key(job) for job in jobs]
    documents = len({workflow_fingerprint(job.workflow) for job in jobs})

    # The uninterrupted reference: same cells, plain inline campaign.
    with CampaignRunner(jobs=1) as runner:
        reference = {
            key: json.dumps(record.to_dict(), sort_keys=True)
            for key, record in zip(keys, runner.run_sims(_jobs(
                args.cells, args.seed
            )))
        }

    procs = {}
    checks = {}
    worker_cmd = [
        sys.executable, "-m", "repro.cli", "worker",
        "--store", str(store_path), "--cache-dir", str(cache_dir),
        "--jobs", "1", "--batch", str(args.cells), "--ttl", str(args.ttl),
        "--max-polls", "2000",
    ]
    try:
        procs["serve"] = _spawn(
            [sys.executable, "-m", "repro.cli", "serve",
             "--store", str(store_path), "--port", "0"],
            work / "serve.log",
        )
        port = _serve_port(work / "serve.log")
        print(f"server up on port {port}")

        status, body = _call(
            port, "/api/campaigns", submission_to_wire("service-smoke", jobs)
        )
        assert status == 200, body
        cid = body["campaign"]["id"]
        print(f"submitted campaign {cid} ({args.cells} cells) over HTTP")

        # Worker #1: completes stall_after cells, wedges holding the rest.
        procs["w-crash"] = _spawn(
            worker_cmd + ["--worker-id", "w-crash",
                          "--stall-after", str(args.stall_after),
                          "--stall-marker", str(marker)],
            work / "worker-crash.log",
        )
        checks["worker stalled mid-batch"] = _wait(
            marker.exists, "stall marker"
        )
        _status, metrics = _call(port, "/api/metrics")
        in_flight = (
            metrics["counts"].get("leased", 0)
            + metrics["counts"].get("running", 0)
        )
        checks["lease held at kill time"] = in_flight > 0
        procs["w-crash"].send_signal(signal.SIGKILL)
        procs["w-crash"].wait(timeout=30)
        print(f"SIGKILLed w-crash with {in_flight} leased/running cell(s)")

        # Worker #2: same store, same shared cache; reclaims and drains.
        procs["w-recover"] = _spawn(
            worker_cmd + ["--worker-id", "w-recover"],
            work / "worker-recover.log",
        )

        def campaign_done() -> bool:
            _s, body = _call(port, f"/api/campaigns/{cid}")
            return body.get("campaign", {}).get("done", False)

        checks["campaign completed across the kill"] = _wait(
            campaign_done, "campaign completion"
        )
        procs["w-recover"].wait(timeout=WAIT_S)

        _status, dump_body = _call(port, "/api/store")
        dump = dump_body["dump"]
        by_key = {c["key"]: c for c in dump["cells"]}
        reclaims = sum(c["reclaims"] for c in dump["cells"])
        terminal = {c["key"]: c["state"] for c in dump["cells"]}
        checks["dead lease reclaimed"] = reclaims > 0
        checks["no cell failed or quarantined"] = all(
            state in ("done", "cached") for state in terminal.values()
        )
        checks["resumed records byte-identical to inline run"] = all(
            json.dumps(by_key[key]["result"], sort_keys=True)
            == reference[key]
            for key in keys
        )

        # Resubmission: every verdict resolves from the shared cache.
        status, body = _call(
            port, "/api/campaigns",
            submission_to_wire("service-smoke-again", jobs),
        )
        cid2 = body["campaign"]["id"]
        procs["w-cached"] = _spawn(
            worker_cmd + ["--worker-id", "w-cached"],
            work / "worker-cached.log",
        )

        def resubmission_done() -> bool:
            _s, body = _call(port, f"/api/campaigns/{cid2}")
            return body.get("campaign", {}).get("done", False)

        checks["resubmission completed"] = _wait(
            resubmission_done, "resubmission completion"
        )
        procs["w-cached"].wait(timeout=WAIT_S)
        _status, second = _call(port, f"/api/campaigns/{cid2}")
        cached = second["campaign"]["counts"].get("cached", 0)
        # Every terminal cell's record is durable in the cache — the
        # crashed worker's completions included.
        checks["resubmission served from shared cache"] = (
            cached == args.cells
        )
        print(f"resubmission: {cached}/{args.cells} cells cache-resolved")
        # Two campaigns over the same documents: one stored copy each.
        stored_documents = _stored_documents(store_path)
        checks["one stored copy per workflow document"] = (
            stored_documents == documents
        )
        print(f"workflow documents: {stored_documents} stored, "
              f"{documents} submitted")

        _status, metrics = _call(port, "/api/metrics")
        _status, final_dump = _call(port, "/api/store")
        (work / "store_dump.json").write_text(
            json.dumps(final_dump["dump"], indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

        status, body = _call(port, "/api/stop", {})
        checks["server stopped on request"] = (
            status == 200 and procs["serve"].wait(timeout=30) == 0
        )
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    artifact = {
        "schema": SCHEMA,
        "cells": args.cells,
        "stall_after": args.stall_after,
        "ttl": args.ttl,
        "reclaims": reclaims,
        "documents_submitted": documents,
        "documents_stored": stored_documents,
        "checks": {name: bool(ok) for name, ok in checks.items()},
        "metrics": metrics,
        "passed": all(checks.values()),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")

    for name, ok in sorted(checks.items()):
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    print(f"store dump -> {work / 'store_dump.json'}; artifact -> {out}")
    return 0 if artifact["passed"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cells", type=int, default=12)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--stall-after", type=int, default=4,
                    help="cells worker #1 completes before wedging")
    ap.add_argument("--ttl", type=int, default=8,
                    help="lease TTL in logical ticks")
    ap.add_argument("--work-dir", default="bench_out")
    ap.add_argument("--out", default="bench_out/service_smoke.json")
    return phase_drive(ap.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
