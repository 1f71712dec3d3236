"""Command-line interface: ``repro-flow``.

Subcommands:

* ``run`` — execute one workflow on a preset cluster and print the
  summary (optionally an ASCII Gantt chart).
* ``compare`` — run several schedulers on the same workflow and print a
  comparison table.
* ``exp`` — run one of the paper's experiments (t1..t5, f1..f7) and print
  its tables/series.
* ``campaign`` — run several experiments through one shared process pool
  and result cache, printing a timing/cache summary.
* ``serve`` — run the campaign service API over a job store: submit
  campaigns and query cell states over HTTP (see :mod:`repro.service`).
* ``worker`` — run a lease-based service worker against the same store,
  executing cells into the shared result cache.
* ``generate`` — emit a workflow as JSON for inspection or reuse.
* ``check`` — statically check a (workflow, cluster, scheduler) cell
  without simulating: model checker + schedule audit, nonzero exit on
  blocking findings.
* ``lint`` — determinism lint over simulator source trees.
* ``list`` — show available workflows, schedulers, presets, experiments.

``exp`` and ``campaign`` accept ``--jobs N`` (process-pool width),
``--cache-dir PATH`` (on-disk memoization of simulation cells; delete the
directory to invalidate) and ``--resume`` (continue a killed run from the
cache's shard index: only cells it never finished re-simulate).  Fault
tolerance rides the same flags: ``--max-retries N`` retries transient
worker failures in deterministic rounds, ``--on-unhealthy
{throttle,halt,ignore}`` sets the health gate's response to a degraded or
unstable campaign (``blocked`` always halts) and ``--retry-failed`` gives
quarantined cells from a previous run another attempt instead of
recalling their cached failure.  ``run``, ``exp`` and ``campaign`` accept
``--precheck`` to gate every cell on the static model checker first, and
``--metrics-out``/``--trace-out`` to export observability artifacts: a
metrics snapshot JSON and a Chrome ``trace_event`` timeline (per-run for
``run``, campaign-level for ``exp``/``campaign``); see
:mod:`repro.observe`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import repro.core  # noqa: F401  (registers hdws in the scheduler registry)
from repro import compare_schedulers, run_workflow
from repro.analysis.compare import ComparisonTable
from repro.analysis.gantt import ascii_gantt
from repro.experiments import REGISTRY as EXPERIMENTS
from repro.platform import presets
from repro.schedulers import REGISTRY as SCHEDULERS
from repro.staticcheck import lint as staticcheck_lint
from repro.workflows.generators import ALL_GENERATORS, by_name
from repro.workflows.serialize import workflow_to_json


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workflow", default="montage", choices=sorted(ALL_GENERATORS))
    parser.add_argument("--size", type=int, default=50, help="approximate task count")
    parser.add_argument("--cluster", default="hybrid", choices=sorted(presets.PRESETS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise", type=float, default=0.1, help="runtime noise CV")


def _make_inputs(args):
    wf = by_name(args.workflow, size=args.size, seed=args.seed)
    cluster = presets.by_name(args.cluster)
    return wf, cluster


def cmd_run(args) -> int:
    """Execute one workflow and print its summary."""
    wf, cluster = _make_inputs(args)
    result = run_workflow(
        wf, cluster, scheduler=args.scheduler, mode=args.mode,
        seed=args.seed, noise_cv=args.noise,
        sanitize=True if args.sanitize else None,
        precheck=True if args.precheck else None,
        metrics=True if (args.metrics or args.metrics_out) else None,
    )
    print(f"workflow : {wf.name} ({wf.n_tasks} tasks, {wf.n_edges} edges)")
    print(f"cluster  : {cluster.describe()}")
    print(f"scheduler: {args.scheduler} [{args.mode}]")
    for key, value in result.summary().items():
        print(f"{key:12s}: {value:.3f}")
    if args.gantt:
        print()
        print(ascii_gantt(result.execution.trace))
    if args.breakdown:
        from repro.analysis.breakdown import render_breakdown

        print()
        print(render_breakdown(cluster, result.execution.trace,
                               result.makespan))
    if args.metrics and result.metrics is not None:
        print()
        print(render_metrics(result.metrics))
    if args.metrics_out:
        from repro.observe import write_json

        write_json(args.metrics_out, result.metrics or {})
        print(f"metrics -> {args.metrics_out}")
    if args.trace_out:
        from repro.observe import chrome_trace, spans_from_trace, write_json

        spans = spans_from_trace(result.execution.trace)
        write_json(args.trace_out, chrome_trace(
            spans,
            metadata={
                "workflow": wf.name, "cluster": cluster.name,
                "scheduler": args.scheduler, "seed": args.seed,
            },
        ))
        print(f"trace   -> {args.trace_out} "
              f"(open at https://ui.perfetto.dev or chrome://tracing)")
    return 0 if result.success else 1


def render_metrics(snapshot) -> str:
    """Compact text rendering of a metrics snapshot (counters/gauges)."""
    lines = ["-- metrics --"]
    for section in ("counters", "gauges"):
        for name, value in snapshot.get(section, {}).items():
            lines.append(f"{name:24s}: {value:.3f}")
    for name, h in snapshot.get("histograms", {}).items():
        lines.append(
            f"{name:24s}: n={h['count']} mean={h['sum'] / h['count']:.3f}"
            if h["count"] else f"{name:24s}: n=0"
        )
    return "\n".join(lines)


def cmd_compare(args) -> int:
    """Compare schedulers on one workflow."""
    wf, cluster = _make_inputs(args)
    names = args.schedulers.split(",")
    for name in names:
        if name not in SCHEDULERS:
            print(f"unknown scheduler {name!r}; see `repro-flow list`", file=sys.stderr)
            return 2
    results = compare_schedulers(
        wf, cluster, names, seed=args.seed, noise_cv=args.noise
    )
    table = ComparisonTable("metric")
    for name, result in results.items():
        table.set("makespan (s)", name, result.makespan)
        table.set("energy (J)", name, result.energy.total_joules)
        table.set("data moved (MB)", name,
                  result.execution.network_mb + result.execution.staging_mb)
    print(f"{wf.name} on {cluster.describe()}")
    print(table.render())
    return 0


def validate_runner_args(args) -> Optional[str]:
    """Up-front validation of flag combinations; the problem, or None.

    Runs right after parsing, before any pool/store/cache is touched, so
    a bad combination fails in milliseconds with a clear message instead
    of surfacing after pool spawn.  Shared by ``exp``/``campaign`` and
    the service commands (``worker``/``serve``), which reuse the same
    cache flags; :func:`_campaign_runner` keeps the same check as a
    backstop for programmatic callers.
    """
    resume = getattr(args, "resume", False)
    cache_dir = getattr(args, "cache_dir", None)
    no_cache = getattr(args, "no_cache", False)
    if resume and (not cache_dir or no_cache):
        return (
            "--resume needs --cache-dir (and no --no-cache): the cache's "
            "shard index is the record of completed cells"
        )
    if no_cache and not cache_dir:
        return "--no-cache without --cache-dir has nothing to disable"
    if getattr(args, "command", None) == "worker" and not cache_dir:
        return (
            "worker needs --cache-dir: the shared result cache is where "
            "completed cells live (and what makes service records "
            "byte-identical to inline runs)"
        )
    return None


def _campaign_runner(args):
    """A CampaignRunner honouring --jobs / --cache-dir / --no-cache / --resume.

    ``--resume`` requires a cache directory: completed cells are keyed in
    the cache's shard index, so re-running with the same directory only
    simulates the cells a killed run never finished.
    """
    from repro.runner import CampaignRunner, ResultCache

    cache = None
    if getattr(args, "cache_dir", None) and not getattr(args, "no_cache", False):
        cache = ResultCache(args.cache_dir)
    elif getattr(args, "resume", False):
        raise SystemExit(
            "--resume needs --cache-dir (and no --no-cache): the cache's "
            "shard index is the record of completed cells"
        )
    return CampaignRunner(
        jobs=max(args.jobs, 1), cache=cache,
        max_retries=max(getattr(args, "max_retries", 0) or 0, 0),
        on_unhealthy=getattr(args, "on_unhealthy", "throttle"),
        retry_failed=getattr(args, "retry_failed", False),
    )


def _add_runner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for simulation cells")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the on-disk result cache")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir and recompute everything")
    parser.add_argument("--resume", action="store_true",
                        help="continue a killed run: with --cache-dir, only "
                             "cells missing from the cache index re-simulate")
    parser.add_argument("--max-retries", type=int, default=0,
                        help="retry transient worker failures up to N times "
                             "per cell before quarantining")
    parser.add_argument("--on-unhealthy", default="throttle",
                        choices=("throttle", "halt", "ignore"),
                        help="health-gate response to a degraded/unstable "
                             "campaign (blocked always halts)")
    parser.add_argument("--retry-failed", action="store_true",
                        help="re-run cells whose failure is cached instead "
                             "of recalling the cached failure")
    parser.add_argument("--sanitize", action="store_true",
                        help="audit every run with the simulation sanitizer")
    parser.add_argument("--precheck", action="store_true",
                        help="statically check every cell before simulating")
    parser.add_argument("--metrics-out", default=None,
                        help="write campaign-level metrics JSON here")
    parser.add_argument("--trace-out", default=None,
                        help="write a Chrome trace_event timeline here")


def _sanitize_overrides(args):
    """A context manager applying --sanitize/--precheck to every cell."""
    from repro.experiments.common import use_run_overrides

    overrides = {}
    if getattr(args, "sanitize", False):
        overrides["sanitize"] = True
    if getattr(args, "precheck", False):
        overrides["precheck"] = True
    return use_run_overrides(**overrides)  # no-op when empty


def _write_campaign_artifacts(
    args, seconds, simulated, cache_stats, runner=None
) -> None:
    """Honour --metrics-out/--trace-out for exp/campaign invocations.

    Experiment runs fan cells over worker processes, so there is no
    single simulation trace; the artifacts here are *campaign-level*: a
    metrics JSON (per-experiment wall seconds, cells simulated, cache
    economics, fault-tolerance accounting and the structured event log —
    every health-gate decision included) and a wall-clock timeline with
    one span per experiment.
    """
    if getattr(args, "metrics_out", None):
        from repro.observe import events_snapshot, write_json

        payload = {
            "schema": "repro.campaign-metrics/v1",
            "experiments": dict(seconds),
            "total_wall_s": sum(seconds.values()),
            "cells_simulated": simulated,
            "cache": cache_stats,
            "events": events_snapshot(),
        }
        if runner is not None:
            payload["faults"] = {
                "failed": runner.failed,
                "retried": runner.retried,
                "quarantined": runner.quarantine_report(),
                "health": runner.health.health()[0],
            }
        write_json(args.metrics_out, payload)
        print(f"metrics -> {args.metrics_out}")
    if getattr(args, "trace_out", None):
        from repro.observe import Span, chrome_trace, write_json

        spans, t = [], 0.0
        for i, (exp_id, secs) in enumerate(seconds.items()):
            spans.append(Span(
                sid=i, name=f"exp {exp_id}", track="campaign",
                start=t, end=t + secs,
            ))
            t += secs
        write_json(args.trace_out, chrome_trace(
            spans, process_name="repro-flow campaign",
        ))
        print(f"trace   -> {args.trace_out}")


def cmd_exp(args) -> int:
    """Run one paper experiment and print its rendering."""
    from repro.observe import clock
    from repro.runner import use_runner

    runner = EXPERIMENTS[args.id]
    campaign_runner = _campaign_runner(args)
    t0 = clock()
    # The runner is a context manager: leaving the block releases the
    # persistent worker pool and flushes the cache's shard index.
    with campaign_runner, use_runner(campaign_runner), _sanitize_overrides(args):
        result = runner(quick=not args.full, seed=args.seed)
    wall = clock() - t0
    print(result.render())
    _write_campaign_artifacts(
        args, {args.id: wall}, campaign_runner.simulated,
        campaign_runner.cache.stats.as_dict() if campaign_runner.cache else None,
        runner=campaign_runner,
    )
    return 0


def cmd_campaign(args) -> int:
    """Run several experiments through one shared pool + cache."""
    from repro.runner import run_campaign

    ids = args.ids.split(",") if args.ids else sorted(EXPERIMENTS)
    for exp_id in ids:
        if exp_id not in EXPERIMENTS:
            print(f"unknown experiment {exp_id!r}; see `repro-flow list`",
                  file=sys.stderr)
            return 2
    with _campaign_runner(args) as campaign_runner, _sanitize_overrides(args):
        report = run_campaign(
            ids, runner=campaign_runner,
            quick=not args.full, seed=args.seed,
        )
    for exp_id in ids:
        print(report.results[exp_id].render())
        print()
    print(report.render_summary())
    _write_campaign_artifacts(
        args, report.seconds, report.simulated, report.cache_stats,
        runner=campaign_runner,
    )
    return 0


def cmd_serve(args) -> int:
    """Run the campaign service JSON API over a job store."""
    from repro.service.api import serve
    from repro.service.store import JobStore

    store = JobStore(args.store)
    try:
        serve(store, host=args.host, port=args.port, emit=print)
    finally:
        store.close()
    return 0


def cmd_worker(args) -> int:
    """Run one lease-based worker against a job store + shared cache."""
    from repro.runner import CampaignRunner, ResultCache
    from repro.service.store import JobStore
    from repro.service.worker import ServiceWorker

    store = JobStore(args.store)
    runner = CampaignRunner(
        jobs=max(args.jobs, 1),
        cache=ResultCache(args.cache_dir),
        max_retries=max(args.max_retries or 0, 0),
        failure_mode="record",
        on_unhealthy=args.on_unhealthy,
        retry_failed=args.retry_failed,
    )
    worker = ServiceWorker(
        store, runner,
        worker_id=args.worker_id,
        batch=max(args.batch, 1),
        ttl=max(args.ttl, 1),
        stall_after=args.stall_after,
        stall_marker=args.stall_marker,
        emit=print,
    )
    try:
        with runner:
            stats = worker.run(
                keep_alive=args.keep_alive, max_polls=args.max_polls
            )
    finally:
        store.close()
    for key, value in stats.as_dict().items():
        print(f"{key:12s}: {value}")
    return 1 if stats.halted else 0


def cmd_generate(args) -> int:
    """Emit a workflow document as JSON."""
    wf = by_name(args.workflow, size=args.size, seed=args.seed)
    text = workflow_to_json(wf)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {wf.n_tasks}-task workflow to {args.output}")
    else:
        print(text)
    return 0


def cmd_check(args) -> int:
    """Statically check one cell; nonzero exit on blocking findings."""
    from repro.schedulers.base import SchedulingContext, SchedulingError
    from repro.staticcheck import audit_schedule, check_run, error

    if args.input:
        from repro.workflows.serialize import workflow_from_json

        with open(args.input, encoding="utf-8") as fh:
            wf = workflow_from_json(fh.read())
    else:
        wf = by_name(args.workflow, size=args.size, seed=args.seed)
    cluster = presets.by_name(args.cluster)
    report = check_run(wf, cluster)
    if report.ok and args.scheduler != "none":
        try:
            plan = SCHEDULERS[args.scheduler]().schedule(
                SchedulingContext(wf, cluster)
            )
        except SchedulingError as exc:
            report.extend([
                error(
                    "plan-failure", "plan", args.scheduler,
                    f"scheduler {args.scheduler!r} found no feasible "
                    f"plan: {exc}",
                ),
            ])
        else:
            report.extend(audit_schedule(plan, wf, cluster))
    print(report.render())
    return 0 if report.ok else 1


def cmd_ensemble(args) -> int:
    """Run a small ensemble under every sharing discipline."""
    from repro.core.ensemble import DISCIPLINES, EnsembleMember, EnsembleRunner
    from repro.core.orchestrator import RunConfig

    members = []
    for i, spec in enumerate(args.members.split(",")):
        gen_name, _sep, size_text = spec.partition(":")
        if gen_name not in ALL_GENERATORS:
            print(f"unknown workflow {gen_name!r}; see `repro-flow list`",
                  file=sys.stderr)
            return 2
        size = int(size_text) if size_text else args.size
        members.append(EnsembleMember(
            f"{gen_name}{i}",
            by_name(gen_name, size=size, seed=args.seed + i),
            priority=float(len(args.members) - i),
        ))
    cluster = presets.by_name(args.cluster)
    runner = EnsembleRunner(
        cluster, RunConfig(seed=args.seed, noise_cv=args.noise)
    )
    table = ComparisonTable("discipline")
    for discipline in DISCIPLINES:
        res = runner.run(members, discipline=discipline)
        table.set(discipline, "makespan (s)", res.makespan)
        table.set(discipline, "mean slowdown", res.mean_slowdown)
        table.set(discipline, "throughput (wf/s)", res.throughput())
    print(f"{len(members)} members on {cluster.describe()}")
    print(table.render())
    return 0


def cmd_list(_args) -> int:
    """Show everything addressable by name."""
    print("workflows :", ", ".join(sorted(ALL_GENERATORS)))
    print("schedulers:", ", ".join(sorted(SCHEDULERS)))
    print("clusters  :", ", ".join(sorted(presets.PRESETS)))
    print("experiments:", ", ".join(sorted(EXPERIMENTS)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-flow",
        description="Heterogeneous discovery-workflow orchestration testbed",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one workflow")
    _add_common(p_run)
    p_run.add_argument("--scheduler", default="hdws", choices=sorted(SCHEDULERS))
    p_run.add_argument("--mode", default="static",
                       choices=("static", "dynamic", "adaptive"))
    p_run.add_argument("--gantt", action="store_true", help="print ASCII Gantt")
    p_run.add_argument("--breakdown", action="store_true",
                       help="print per-category/class profiling tables")
    p_run.add_argument("--sanitize", action="store_true",
                       help="audit the run with the simulation sanitizer")
    p_run.add_argument("--precheck", action="store_true",
                       help="statically check the cell before simulating")
    p_run.add_argument("--metrics", action="store_true",
                       help="collect run metrics and print a summary")
    p_run.add_argument("--metrics-out", default=None,
                       help="write the run's metrics snapshot JSON here")
    p_run.add_argument("--trace-out", default=None,
                       help="write a Chrome trace_event timeline here "
                            "(open in Perfetto / chrome://tracing)")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare schedulers")
    _add_common(p_cmp)
    p_cmp.add_argument("--schedulers", default="hdws,heft,minmin,mct")
    p_cmp.set_defaults(func=cmd_compare)

    p_exp = sub.add_parser("exp", help="run a paper experiment")
    p_exp.add_argument("id", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--full", action="store_true",
                       help="full-size run (slower)")
    p_exp.add_argument("--seed", type=int, default=0)
    _add_runner_flags(p_exp)
    p_exp.set_defaults(func=cmd_exp)

    p_camp = sub.add_parser(
        "campaign", help="run several experiments via one pool + cache"
    )
    p_camp.add_argument(
        "ids", nargs="?", default=None,
        help="comma-separated experiment ids (default: all)",
    )
    p_camp.add_argument("--full", action="store_true",
                        help="full-size runs (slower)")
    p_camp.add_argument("--seed", type=int, default=0)
    _add_runner_flags(p_camp)
    p_camp.set_defaults(func=cmd_campaign)

    p_srv = sub.add_parser(
        "serve", help="run the campaign service JSON API"
    )
    p_srv.add_argument("--store", required=True,
                       help="path of the sqlite job-store file")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8765,
                       help="listen port (0 picks a free one)")
    p_srv.set_defaults(func=cmd_serve)

    p_wrk = sub.add_parser(
        "worker", help="run a lease-based campaign service worker"
    )
    p_wrk.add_argument("--store", required=True,
                       help="path of the sqlite job-store file")
    p_wrk.add_argument("--cache-dir", required=True,
                       help="shared on-disk result cache directory")
    p_wrk.add_argument("--jobs", type=int, default=1,
                       help="worker processes for simulation cells")
    p_wrk.add_argument("--max-retries", type=int, default=2,
                       help="retry transient cell failures up to N times "
                            "before quarantining")
    p_wrk.add_argument("--on-unhealthy", default="throttle",
                       choices=("throttle", "halt", "ignore"),
                       help="health-gate response to a degraded/unstable "
                            "campaign (blocked always halts)")
    p_wrk.add_argument("--retry-failed", action="store_true",
                       help="re-run cells whose failure is cached instead "
                            "of recalling the cached failure")
    p_wrk.add_argument("--worker-id", default=None,
                       help="stable worker identity (default: w<pid>)")
    p_wrk.add_argument("--batch", type=int, default=8,
                       help="cells leased per poll")
    p_wrk.add_argument("--ttl", type=int, default=12,
                       help="lease time-to-live in logical store ticks")
    p_wrk.add_argument("--keep-alive", action="store_true",
                       help="keep polling after the store drains "
                            "(daemon mode; default exits on drain)")
    p_wrk.add_argument("--max-polls", type=int, default=None,
                       help="hard bound on store polls (safety net)")
    p_wrk.add_argument("--stall-after", type=int, default=None,
                       help=argparse.SUPPRESS)  # crash-harness hook
    p_wrk.add_argument("--stall-marker", default=None,
                       help=argparse.SUPPRESS)  # crash-harness hook
    p_wrk.set_defaults(func=cmd_worker)

    p_gen = sub.add_parser("generate", help="emit a workflow as JSON")
    p_gen.add_argument("--workflow", default="montage",
                       choices=sorted(ALL_GENERATORS))
    p_gen.add_argument("--size", type=int, default=50)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_chk = sub.add_parser(
        "check", help="statically check a cell without simulating"
    )
    _add_common(p_chk)
    p_chk.add_argument(
        "--scheduler", default="hdws",
        choices=sorted(SCHEDULERS) + ["none"],
        help="scheduler whose static plan to audit ('none' skips the audit)",
    )
    p_chk.add_argument(
        "--input", default=None,
        help="check a workflow JSON file instead of generating one",
    )
    p_chk.set_defaults(func=cmd_check)

    p_lint = sub.add_parser(
        "lint", help="determinism lint over simulator source"
    )
    staticcheck_lint.add_arguments(p_lint)
    p_lint.set_defaults(func=staticcheck_lint.run)

    p_ens = sub.add_parser("ensemble", help="run an ensemble of workflows")
    p_ens.add_argument(
        "--members", default="montage,blast,sipht",
        help="comma-separated generators, each optionally name:size",
    )
    p_ens.add_argument("--size", type=int, default=30)
    p_ens.add_argument("--cluster", default="hybrid",
                       choices=sorted(presets.PRESETS))
    p_ens.add_argument("--seed", type=int, default=0)
    p_ens.add_argument("--noise", type=float, default=0.1)
    p_ens.set_defaults(func=cmd_ensemble)

    p_list = sub.add_parser("list", help="list available names")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = validate_runner_args(args)
    if problem:
        parser.error(problem)  # exits 2 with usage, before any pool spawn
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
