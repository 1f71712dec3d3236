"""Benchmark entry point: one workload, one seed, one measured window.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload again with the layer wrappers installed and prints the
per-layer breakdown.  The last line of standard output is always one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

This module does nothing at import: pool workers started by the
``forkserver`` method re-import the main module, so every action lives
under the ``__main__`` check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

#: Hard limit on one invocation; cleanup runs when it fires.
DEADLINE_S = 170
#: Fresh-process set-ups measured per run besides this process's own:
#: one before the measured window and two after it.  The host holds one
#: of two speeds for ten seconds or more, so set-ups taken together
#: would all sample one of them; four split across the window take the
#: median over both.
SETUPS_BEFORE = 1
SETUPS_AFTER = 2
WORKLOAD_NAMES = ("sweep", "service")


class Deadline(Exception):
    """The invocation ran past :data:`DEADLINE_S`."""


def _on_alarm(signum, frame):
    raise Deadline(f"benchmark run exceeded {DEADLINE_S} s")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def parse_args(argv=None) -> argparse.Namespace:
    from inputs import DEFAULT_SEED

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (not comparable with full runs)")
    # Set-up children measure one set-up inside their parent's directory.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-root", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _workload(name: str):
    import service
    import sweep

    return {"sweep": sweep, "service": service}[name]


def _run_child(cmd, timeout=None) -> tuple:
    """Run a harness child in its own process group; its exit code and output.

    On any exception (a timeout, :class:`Deadline`, SIGTERM) the child's
    whole group is stopped before the exception goes on.
    """
    from common import clean_env, start, stop

    proc = start(cmd, env=clean_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                 text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        stop(proc)
        raise
    return proc.returncode, out, err


def _child_setup_s(args, work_root: str) -> float:
    """Set the workload up in a fresh process; its set-up seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", "--work-root", work_root]
    code, out, err = _run_child(cmd + (["--tiny"] if args.tiny else []), timeout=120)
    if code != 0:
        raise RuntimeError(f"set-up child failed:\n{err[-2000:]}")
    return float(json.loads(out.strip().splitlines()[-1])["setup_s"])


def execute(args, t_start: float, work_root: str):
    """Set up, measure, check; the :class:`~common.Outcome`."""
    from common import Outcome, Settings, median
    from inputs import Sizes

    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    settings = Settings(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), sizes=Sizes.tiny() if args.tiny else Sizes(),
        work_dir=work_dir,
    )
    module = _workload(args.workload)
    outcome = Outcome()
    state = module.setup(settings)
    try:
        own_setup = time.perf_counter() - t_start
        if args.setup_only:
            outcome.put("setup_s", own_setup, "s", 1)
            return outcome
        if settings.trace:
            module.measure_traced(settings, state, outcome)
        else:
            setups = [own_setup] + [
                _child_setup_s(args, work_root) for _ in range(SETUPS_BEFORE)
            ]
            module.measure(settings, state, outcome)
            setups += [_child_setup_s(args, work_root) for _ in range(SETUPS_AFTER)]
            outcome.put("setup_s", median(setups), "s", len(setups),
                        "median of this and fresh-process set-ups")
            outcome.info["setup_s_samples"] = setups
    finally:
        module.teardown(state)
    return outcome


def _print_report(args, outcome, probe_before: float, probe_after: float) -> None:
    from breakdown import fill_missing
    from common import catalogue

    if args.trace:
        outcome.put("host.probe_ms", (probe_before + probe_after) / 2, "ms", 2,
                    "fixed loop, informational")
        fill_missing(outcome)
    names = [name for name, _unit in catalogue("per_layer" if args.trace else "end_to_end")]
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name in names:
        m = outcome.metrics[name]
        note = f"  ({m.note})" if m.note else ""
        print(f"  {name:32s} {m.value:14.4f} {m.unit:12s} n={m.samples}{note}")
    print(f"  {'failed_share':32s} {share:14.4f} {'ratio':12s} "
          f"n={outcome.attempted}  (failed / attempted)")
    print(f"  host probe: {probe_before:.2f} ms before, {probe_after:.2f} ms after")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"info": {
        "host_probe_ms": [probe_before, probe_after],
        "samples": {name: outcome.metrics[name].samples for name in names},
        **outcome.info,
    }}))
    print(json.dumps({
        "correct": outcome.correct and outcome.attempted > 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name].value, "unit": outcome.metrics[name].unit}
            for name in names
        },
    }))


def run_all(args) -> int:
    """Every workload in a fresh process; their reports in sequence."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        code, out, err = _run_child(cmd)
        lines = out.strip().splitlines()
        print("\n".join(line for line in lines if not line.startswith("{")))
        if code != 0:
            print(err[-2000:], file=sys.stderr)
            status = code
    return status


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: the program (src/repro) is not in this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _on_term)
    if args.workload == "all":
        return run_all(args)

    from common import PROGRAM_KNOBS, host_probe_ms, stop_children

    for knob in PROGRAM_KNOBS:
        os.environ.pop(knob, None)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)

    # Each top-level run gets a fresh directory, so back-to-back runs
    # never share state; set-up children work inside their parent's.
    inherited = args.work_root
    base = os.path.join(root, ".perfbench")
    if inherited:
        work_root = inherited
    else:
        os.makedirs(base, exist_ok=True)
        work_root = tempfile.mkdtemp(prefix="run-", dir=base)
    # Temporary files of this process and its children (the pool's
    # forkserver socket among them) stay inside the checkout, unless its
    # path is too long for a unix socket address (108 bytes on Linux).
    # multiprocessing removes its own directory there at exit.
    tmp = os.path.join(base, "tmp")
    if len(tmp) <= 64:
        os.makedirs(tmp, exist_ok=True)
        os.environ["TMPDIR"] = tmp
        tempfile.tempdir = tmp
    probe_before = 0.0 if args.setup_only else host_probe_ms()
    t_start = time.perf_counter()
    try:
        outcome = execute(args, t_start, work_root)
        if args.setup_only:
            print(json.dumps({"setup_s": outcome.metrics["setup_s"].value}))
            return 0
        probe_after = host_probe_ms()
    finally:
        signal.alarm(0)
        stop_children()
        if not inherited:
            shutil.rmtree(work_root, ignore_errors=True)
    _print_report(args, outcome, probe_before, probe_after)
    return 0


if __name__ == "__main__":
    sys.exit(main())
