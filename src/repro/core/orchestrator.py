"""One-call experiment runner.

The :class:`Orchestrator` glues the layers together: it resolves a
scheduler, builds the estimation context (optionally with systematic
estimate error) — the one place a run's context is built, in every
mode — chooses an execution policy for the requested mode, executes
the workflow on the (reset) cluster, and integrates energy.
Every benchmark and example drives runs through this class so that
"running Montage with HEFT on the hybrid cluster" is one reproducible
call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from repro.core.adaptive import AdaptivePolicy
from repro.core.executor import ExecutionResult, WorkflowExecutor
from repro.core.policies import DynamicMctPolicy, ExecutionPolicy, StaticPolicy
from repro.energy.accounting import EnergyReport, account_energy
from repro.energy.governor import IdleGovernor
from repro.faults.models import FaultModel
from repro.faults.recovery import RecoveryPolicy
from repro.platform.cluster import Cluster
from repro.schedulers import REGISTRY
from repro.schedulers.base import Scheduler, SchedulingContext
from repro.schedulers.schedule import Schedule
from repro.staticcheck.workflow_checks import validate_workflow
from repro.workflows.graph import Workflow

#: Execution modes the orchestrator supports.
MODES = ("static", "dynamic", "adaptive")


@dataclass
class RunConfig:
    """Everything that parameterizes one run.

    Attributes:
        scheduler: Registry name or a :class:`Scheduler` instance.  Ignored
            in ``dynamic`` mode (the JIT policy plans nothing ahead).
        mode: ``static`` (follow the plan), ``dynamic`` (JIT greedy), or
            ``adaptive`` (plan + drift-triggered frontier re-planning).
        seed: Master seed for all run randomness.
        noise_cv: Runtime-noise coefficient of variation (truth vs
            estimate).
        estimate_error_cv: Systematic per-task profiling error applied to
            the estimates schedulers see (experiment F4).
        fault_model: Failure statistics; default = no faults.
        recovery: Failure-handling policy.
        locality_aware: For dynamic mode, whether the JIT policy prices
            live staging costs.
        drift_threshold: For adaptive mode, re-plan trigger sensitivity.
        governor: Idle-power governor for energy accounting.
        validate: Validate the workflow before running.
        max_time: Simulation safety horizon (virtual seconds).
        sanitize: Attach the simulation sanitizer
            (:class:`repro.sanitizer.Sanitizer`) to the run.  ``None``
            defers to the ``REPRO_SANITIZE`` environment variable.
        precheck: Run the plan-time model checker
            (:func:`repro.staticcheck.check_run`) before simulating and
            audit the static plan (:func:`repro.staticcheck.audit_schedule`)
            before executing it; blocking findings raise
            :class:`~repro.staticcheck.StaticCheckError`.  ``None`` defers
            to the ``REPRO_PRECHECK`` environment variable.
        metrics: Attach a :class:`repro.observe.MetricsRegistry` to the
            run; the snapshot (including scheduler planning wall-time and
            events/sec in its ``profile`` section) lands in
            ``result.execution.metrics``.  ``None`` defers to the
            ``REPRO_METRICS`` environment variable.  Pure observation:
            never changes a simulated outcome.
    """

    scheduler: Union[str, Scheduler] = "hdws"
    mode: str = "static"
    seed: int = 0
    noise_cv: float = 0.0
    estimate_error_cv: float = 0.0
    fault_model: FaultModel = field(default_factory=FaultModel)
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    locality_aware: bool = True
    drift_threshold: float = 0.10
    governor: Optional[IdleGovernor] = None
    validate: bool = True
    max_time: Optional[float] = None
    sanitize: Optional[bool] = None
    precheck: Optional[bool] = None
    metrics: Optional[bool] = None
    #: Earliest permissible start per task (online arrivals); empty = all 0.
    release_times: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    def resolve_scheduler(self) -> Scheduler:
        """Instantiate the configured scheduler."""
        if isinstance(self.scheduler, Scheduler):
            return self.scheduler
        try:
            return REGISTRY[self.scheduler]()
        except KeyError:
            raise KeyError(
                f"unknown scheduler {self.scheduler!r}; "
                f"available: {sorted(REGISTRY)}"
            ) from None


@dataclass
class RunResult:
    """Outcome of one orchestrated run."""

    workflow: str
    cluster: str
    config: RunConfig
    plan: Optional[Schedule]
    execution: ExecutionResult
    energy: EnergyReport
    #: The scheduling context the run planned from (None when it
    #: executed a given plan).
    context: Optional[SchedulingContext] = None

    @property
    def makespan(self) -> float:
        """Achieved makespan (virtual seconds)."""
        return self.execution.makespan

    @property
    def success(self) -> bool:
        """Whether every task completed."""
        return self.execution.success

    @property
    def metrics(self) -> Optional[Dict[str, object]]:
        """Metrics snapshot of an instrumented run (None otherwise)."""
        return self.execution.metrics

    def summary(self) -> Dict[str, float]:
        """The headline numbers of this run as a flat dict."""
        return {
            "makespan": self.makespan,
            "energy_j": self.energy.total_joules,
            "edp": self.energy.edp,
            "network_mb": self.execution.network_mb,
            "staging_mb": self.execution.staging_mb,
            "retries": float(self.execution.retries),
            "task_faults": float(self.execution.task_faults),
            "device_faults": float(self.execution.device_faults),
            "success": 1.0 if self.success else 0.0,
        }


class Orchestrator:
    """Runs workflows on clusters under a :class:`RunConfig`."""

    def __init__(self, config: Optional[RunConfig] = None) -> None:
        self.config = config or RunConfig()

    def run(
        self,
        workflow: Workflow,
        cluster: Cluster,
        plan: Optional[Schedule] = None,
        context: Optional[SchedulingContext] = None,
    ) -> RunResult:
        """Execute one workflow on one cluster; returns the full result.

        The cluster is reset first, so one cluster instance can serve many
        sequential runs (its execution model's noise settings are adjusted
        in place for the run).

        ``plan`` is a static-mode plan made earlier from the same
        workflow, platform, scheduler and planning inputs (the run seed
        plans nothing unless ``estimate_error_cv > 0``).  Given one, the
        run skips the :class:`SchedulingContext` and ``schedule()`` but
        still validates the plan against the workflow and, under
        precheck, audits it.  The run only reads the plan, so one plan
        can serve many runs.

        ``context`` is a :class:`SchedulingContext` built earlier for
        these very ``workflow`` and ``cluster`` objects, the same release
        times and the same estimate error (the run seed feeds a context
        only when ``estimate_error_cv > 0``); a context built for another
        workflow, platform or release times is refused.  Given one, the
        run plans from it in any mode instead of building its own.  A
        context reads the platform's runtime state only when built and
        its lazy tables are content-equal, so one context can serve many
        runs.  ``result.context`` returns the context the run planned
        from, as ``result.plan`` returns the plan.
        """
        cfg = self.config
        if plan is not None and cfg.mode != "static":
            raise ValueError(
                f"a given plan needs static mode, not {cfg.mode!r}"
            )
        if context is not None and (
            context.workflow is not workflow
            or context.cluster is not cluster
            or context.release_times != (cfg.release_times or {})
        ):
            raise ValueError(
                "a given context was built for another workflow, "
                "platform or release times"
            )
        if cfg.validate:
            validate_workflow(workflow)
        cluster.reset()
        cluster.execution_model.noise_cv = cfg.noise_cv

        from repro.observe import clock, env_flag, env_metrics

        precheck = (
            cfg.precheck if cfg.precheck is not None
            else env_flag("REPRO_PRECHECK")
        )
        if precheck:
            from repro.staticcheck import check_run

            check_run(
                workflow, cluster,
                fault_model=cfg.fault_model, recovery=cfg.recovery,
            ).raise_if_errors()

        # Build the registry here (not in the executor) so scheduler
        # planning wall-time profiles into the same snapshot.
        want_metrics = (
            cfg.metrics if cfg.metrics is not None else env_metrics()
        )
        registry = None
        if want_metrics:
            from repro.observe import MetricsRegistry

            registry = MetricsRegistry()
        t_plan = clock()
        policy, plan, context = self._build_policy(
            workflow, cluster, plan, context
        )
        if registry is not None:
            registry.profile("plan.wall_s", clock() - t_plan)
        if precheck and plan is not None:
            from repro.staticcheck import CheckReport, audit_schedule

            CheckReport(
                audit_schedule(plan, workflow, cluster)
            ).raise_if_errors()
        horizon = self._failure_horizon(plan, workflow, cluster)
        executor = WorkflowExecutor(
            workflow,
            cluster,
            policy,
            seed=cfg.seed,
            recovery=cfg.recovery,
            fault_model=cfg.fault_model,
            failure_horizon=horizon,
            release_times=cfg.release_times,
            sanitize=cfg.sanitize,
            metrics=registry if registry is not None else False,
        )
        t_run = clock()
        execution = executor.run(max_time=cfg.max_time)
        if registry is not None:
            wall = clock() - t_run
            registry.profile("run.wall_s", wall)
            registry.profile(
                "sim.events_per_sec",
                execution.events / wall if wall > 0 else 0.0,
            )
            # Re-snapshot so the profile entries recorded after the
            # executor's own snapshot are included.
            execution.metrics = registry.snapshot()
        energy = account_energy(
            cluster, execution.makespan, execution.trace, cfg.governor
        )
        return RunResult(
            workflow=workflow.name,
            cluster=cluster.name,
            config=cfg,
            plan=plan,
            execution=execution,
            energy=energy,
            context=context,
        )

    def _build_policy(
        self,
        workflow: Workflow,
        cluster: Cluster,
        plan: Optional[Schedule],
        context: Optional[SchedulingContext],
    ):
        """(policy, plan, context) for the configured mode.

        A given plan needs no context.  Otherwise the run plans from the
        given context, or builds its own here, after the scheduler
        resolves; the seed feeds it only through the estimate error.
        """
        cfg = self.config
        if plan is not None:
            plan.validate_against(workflow)
            return StaticPolicy(plan), plan, None
        scheduler = None if cfg.mode == "dynamic" else cfg.resolve_scheduler()
        if context is None:
            rng = None  # a context reads it only to draw estimate errors
            if cfg.estimate_error_cv > 0:
                rng = np.random.default_rng(cfg.seed + 7919)
            context = SchedulingContext(
                workflow,
                cluster,
                estimate_error_cv=cfg.estimate_error_cv,
                rng=rng,
                release_times=cfg.release_times,
            )
        if cfg.mode == "dynamic":
            policy = DynamicMctPolicy(
                context, locality_aware=cfg.locality_aware
            )
            return policy, None, context
        if cfg.mode == "adaptive":
            policy = AdaptivePolicy(
                context,
                planner=scheduler,
                drift_threshold=cfg.drift_threshold,
            )
            return policy, None, context
        plan = scheduler.schedule(context)
        plan.validate_against(workflow)
        return StaticPolicy(plan), plan, context

    def _failure_horizon(
        self, plan: Optional[Schedule], workflow: Workflow, cluster: Cluster
    ) -> float:
        """Horizon over which permanent device failures are drawn."""
        if plan is not None and plan.makespan > 0:
            return plan.makespan * 20.0
        # No plan (dynamic/adaptive): a crude serial bound.
        serial = workflow.total_work() / max(cluster.reference_speed(), 1e-9)
        return max(serial * 20.0, 1.0)
