"""Shared pieces of the workloads: statistics, memory, probes, checks."""

from __future__ import annotations

import hashlib
import json
import os
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from inputs import Sizes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Environment knobs of the program that would change what is measured;
#: the benchmark clears them for itself and every process it starts.
PROGRAM_KNOBS = (
    "REPRO_SANITIZE", "REPRO_METRICS", "REPRO_PRECHECK", "REPRO_FAIL_INJECT",
    "REPRO_START_METHOD", "REPRO_CHUNKSIZE", "REPRO_JOBS", "REPRO_CACHE_DIR",
)


def catalogue(kind: str) -> List[Tuple[str, str]]:
    """``(name, unit)`` of every ``end_to_end`` or ``per_layer`` metric.

    ``BENCHMARK.json`` is the one list of metrics; reports follow its order.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def clean_env() -> Dict[str, str]:
    """The environment for program subprocesses: ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_KNOBS}
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"
    return env


@dataclass
class Settings:
    """What one invocation was asked to do."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    work_dir: str


@dataclass
class Metric:
    value: float
    unit: str
    #: How many observations the value summarises.
    samples: int
    note: str = ""


@dataclass
class Outcome:
    """What a workload measured and whether its outputs were right."""

    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, samples: int, note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples), note)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.correct = False
            if problem not in self.problems:
                self.problems.append(problem)


# ---------------------------------------------------------------------- #
# statistics                                                             #
# ---------------------------------------------------------------------- #

def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# ---------------------------------------------------------------------- #
# memory: peak resident set of a process tree                            #
# ---------------------------------------------------------------------- #

def _processes() -> List[Tuple[int, str, int, int]]:
    """``(pid, state, ppid, process group)`` of every process."""
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "r", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue
        state, ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        found.append((int(name), state, int(ppid), int(pgrp)))
    return found


def _children_map() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for pid, _state, ppid, _pgrp in _processes():
        children.setdefault(ppid, []).append(pid)
    return children


def _peak_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(root: Optional[int] = None) -> tuple:
    """Summed peak RSS (MB) of ``root`` and all its descendants; count.

    Every process keeps its own high-water mark (``VmHWM``), so reading
    the tree before anything exits gives each process's peak; the sum
    bounds what the workload held at once from above.
    """
    root = os.getpid() if root is None else root
    children = _children_map()
    todo, seen = [root], []
    while todo:
        pid = todo.pop()
        seen.append(pid)
        todo.extend(children.get(pid, ()))
    return sum(_peak_kb(pid) for pid in seen) / 1024.0, len(seen)


def start(cmd: List[str], **kwargs) -> subprocess.Popen:
    """Start ``cmd`` as the leader of a new process group.

    Used for the harness's own child runs (set-ups, ``--workload all``):
    everything such a child starts stays in its group, so :func:`stop`
    reaches its ``serve``, ``worker`` and pool processes even after the
    child itself is gone.
    """
    return subprocess.Popen(cmd, start_new_session=True, **kwargs)


def _group_alive(pgid: int) -> bool:
    return any(pgrp == pgid and state != "Z" for _pid, state, _ppid, pgrp in _processes())


def stop(proc: subprocess.Popen, grace_s: float = 5.0) -> None:
    """Stop the group :func:`start` made for ``proc``; wait for all of it.

    SIGTERM first, so a harness child runs its own clean-up; SIGKILL for
    whatever is left after ``grace_s``.  ``proc`` is reaped last, so its
    group id cannot be reused while it is being signalled.
    """
    for sig, wait_s in ((signal.SIGTERM, grace_s), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        deadline = time.monotonic() + wait_s
        while _group_alive(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.01)
    proc.wait()


def stop_children(grace_s: float = 5.0) -> None:
    """Stop and reap every process this one started that is still alive.

    The pool's ``forkserver`` and ``resource_tracker`` helpers outlive the
    pool.  Both exit when their pipe from this process closes (the
    tracker ignores SIGTERM), which their own ``_stop`` does; anything
    left is terminated.
    """
    import multiprocessing.forkserver
    import multiprocessing.resource_tracker

    for helper in (multiprocessing.forkserver._forkserver,
                   multiprocessing.resource_tracker._resource_tracker):
        stop_helper = getattr(helper, "_stop", None)
        if stop_helper is not None:
            stop_helper()
    pids = _children_map().get(os.getpid(), [])
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    for pid in pids:
        while True:
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)


# ---------------------------------------------------------------------- #
# host drift probe                                                       #
# ---------------------------------------------------------------------- #

def host_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast the host is now."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append((time.perf_counter() - t0) * 1000.0)
    return median(times)


# ---------------------------------------------------------------------- #
# output checks                                                          #
# ---------------------------------------------------------------------- #

def record_text(record: dict) -> str:
    """The canonical bytes a record is compared by."""
    return json.dumps(record, sort_keys=True)


def digest_of(texts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def inline_records(jobs: Sequence) -> List[str]:
    """Reference records: the same cells, ``jobs=1``, no cache."""
    from repro.runner import CampaignRunner

    with CampaignRunner(jobs=1, failure_mode="record") as runner:
        return [record_text(r.to_dict()) for r in runner.run_sims(list(jobs))]


def pinned_digest(workload: str, seed: int, sizes: Sizes) -> Optional[str]:
    """The committed reference digest for ``seed``, if one was pinned.

    Digests are pinned at the full sizes only.
    """
    if sizes != Sizes():
        return None
    with open(os.path.join(HERE, "digests.json"), "r", encoding="utf-8") as fh:
        pinned = json.load(fh)
    return pinned.get(workload, {}).get(str(seed))


def is_good(record: dict) -> bool:
    """A cell outcome that counts as success: a record, simulated OK."""
    return record.get("kind") is None and bool(record.get("success"))
