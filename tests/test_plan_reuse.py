"""Plan reuse: cells that differ only in their run seed share one plan.

A static plan is a pure function of the workflow, platform, scheduler
and config, and reads the run seed only through the estimate-error draw.
``execute_sim`` therefore memoizes static plans by the cell's content
minus the seed and hands a hit to ``run_workflow(plan=)``.  These tests
pin the premise (plans do not depend on the run seed), the invariant
that makes sharing safe (a run never mutates its plan), the memo's
bounds, and that records stay byte-identical.
"""

from __future__ import annotations

import json
from collections import OrderedDict

import pytest

from repro import Orchestrator, RunConfig, run_workflow
from repro.core.policies import StaticPolicy
from repro.experiments.common import make_job, make_timing_job, preset_spec
from repro.faults.models import FaultModel
from repro.faults.recovery import RecoveryPolicy
from repro.platform import presets
from repro.runner import CampaignRunner, jobs
from repro.runner.hashing import canonical_json
from repro.runner.specs import factory_spec
from repro.schedulers import REGISTRY
from repro.schedulers.schedule import Schedule
from repro.staticcheck import StaticCheckError
from repro.workflows.generators import montage
from repro.workflows.serialize import workflow_to_dict

CLUSTER = preset_spec("hybrid", nodes=2, cores_per_node=2, gpus_per_node=1)


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty plan memo for the test, the module's own restored after."""
    monkeypatch.setattr(jobs, "_plan_memo", OrderedDict())
    monkeypatch.setattr(jobs, "_plan_memo_tasks", 0)


def _snapshot(plan: Schedule):
    """Everything a run could change on a plan, copied."""
    return (
        dict(plan.assignments),
        {uid: list(tl.intervals) for uid, tl in plan.timelines.items()},
        dict(plan.dvfs_choice),
    )


def _faulty_energy_run_inputs():
    """A run with device failures, output regeneration and orphan requeue."""
    wf = montage(n_images=5, seed=7)
    cluster = presets.hybrid_cluster(
        nodes=2, cores_per_node=2, gpus_per_node=1, dvfs=True
    )
    config = dict(
        scheduler="energy-heft", seed=1, noise_cv=0.2,
        fault_model=FaultModel(device_mtbf=2.0, device_data_loss=True),
        recovery=RecoveryPolicy.retry(10),
    )
    return wf, cluster, config


# --------------------------------------------------------------------- #
# the orchestrator's plan= argument                                     #
# --------------------------------------------------------------------- #

class TestGivenPlan:
    def test_given_plan_skips_planning(self, small_montage, hybrid_cluster,
                                       monkeypatch):
        plan = run_workflow(small_montage, hybrid_cluster, seed=1).plan

        def no_planning(*_args, **_kwargs):
            raise AssertionError("planned although a plan was given")

        monkeypatch.setattr(
            "repro.core.orchestrator.SchedulingContext", no_planning
        )
        result = run_workflow(small_montage, hybrid_cluster, seed=2, plan=plan)
        assert result.plan is plan
        assert result.success

    def test_given_plan_is_still_validated(self, small_montage,
                                           hybrid_cluster):
        plan = run_workflow(
            montage(n_images=3, seed=1), hybrid_cluster, seed=1
        ).plan
        with pytest.raises(ValueError, match="schedule misses tasks"):
            run_workflow(small_montage, hybrid_cluster, plan=plan)

    def test_given_plan_is_audited_under_precheck(self, small_montage,
                                                  hybrid_cluster):
        plan = Schedule()
        for i, name in enumerate(small_montage.topological_order()):
            plan.add(name, "nonesuch-device", float(i), float(i + 1))
        with pytest.raises(StaticCheckError):
            run_workflow(small_montage, hybrid_cluster, plan=plan,
                         precheck=True)

    @pytest.mark.parametrize("mode", ["dynamic", "adaptive"])
    def test_given_plan_needs_static_mode(self, mode, small_montage,
                                          hybrid_cluster):
        plan = run_workflow(small_montage, hybrid_cluster, seed=1).plan
        with pytest.raises(ValueError, match="static mode"):
            Orchestrator(RunConfig(mode=mode)).run(
                small_montage, hybrid_cluster, plan=plan
            )


def test_static_run_never_mutates_its_plan(monkeypatch):
    """The invariant that lets cells share one plan, under repair paths."""
    requeued = []
    requeue = StaticPolicy._requeue_orphans

    def spy(policy, executor):
        before = set(policy._queued)
        requeue(policy, executor)
        requeued.extend(policy._queued - before)

    monkeypatch.setattr(StaticPolicy, "_requeue_orphans", spy)
    wf, cluster, config = _faulty_energy_run_inputs()
    plan = run_workflow(wf, cluster, **config).plan
    before = _snapshot(plan)
    assert before[2]  # the plan carries DVFS choices

    result = run_workflow(wf, cluster, plan=plan, **config)

    ex = result.execution
    assert ex.device_faults >= 1 and ex.regenerations >= 1 and requeued
    assert _snapshot(plan) == before


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_static_plans_do_not_depend_on_the_run_seed(name, small_montage,
                                                    hybrid_cluster):
    """The key's premise: at zero estimate error the seed plans nothing."""
    plans = [
        run_workflow(small_montage, hybrid_cluster, scheduler=name,
                     seed=seed, noise_cv=0.2).plan
        for seed in (0, 1, 7)
    ]
    first = _snapshot(plans[0])
    assert all(_snapshot(p) == first for p in plans[1:])


# --------------------------------------------------------------------- #
# the worker-side memo                                                  #
# --------------------------------------------------------------------- #

def _grid():
    """Static cells that repeat plans across seeds, plus every bypass."""
    wf = montage(n_images=5, seed=7)
    doc = workflow_to_dict(wf)
    retry = factory_spec(RecoveryPolicy.retry, 10)
    variants = [
        dict(scheduler="heft"),
        dict(scheduler="hdws", estimate_error_cv=0.3),
        dict(scheduler="heft",
             release_times={t: 0.5 for t in wf.topological_order()[:3]}),
        dict(scheduler="heft", recovery=retry,
             fault_model=factory_spec(FaultModel, device_mtbf=2.0,
                                      device_data_loss=True)),
        dict(scheduler="peft", recovery=retry,
             fault_model=factory_spec(FaultModel, task_fault_rate=0.3)),
        dict(scheduler="hdws", mode="adaptive", estimate_error_cv=0.2),
        dict(scheduler="hdws", mode="dynamic"),
    ]
    return [
        make_job(doc, CLUSTER, seed=seed, noise_cv=0.2,
                 label=f"reuse:{i}:{seed}", **variant)
        for i, variant in enumerate(variants)
        for seed in (1, 2, 1, 3)
    ]


def _cold(payload):
    """One cell's record with an empty memo, as canonical JSON."""
    jobs._plan_memo.clear()
    jobs._plan_memo_tasks = 0
    return canonical_json(jobs.execute_sim(payload))


def test_warm_memo_records_equal_cold_memo_records(fresh_memo, monkeypatch):
    grid = _grid()
    payloads = [job.payload() for job in grid]
    cold = [_cold(p) for p in payloads]
    assert not any("kind" in json.loads(c) for c in cold)  # no CellFailure

    jobs._plan_memo.clear()
    jobs._plan_memo_tasks = 0
    hits = []
    recall = jobs._recall_plan

    def counting_recall(key):
        plan = recall(key)
        hits.append(plan is not None)
        return plan

    monkeypatch.setattr(jobs, "_recall_plan", counting_recall)
    warm = [canonical_json(jobs.execute_sim(p)) for p in payloads]
    assert warm == cold
    # 20 static cells over 7 plan keys: the estimate-error row keeps its
    # three seeds apart, each other static row shares one plan.
    assert sum(hits) == 13
    assert len(jobs._plan_memo) == 7

    # Transient retries through the runner, on the now-warm memo.
    monkeypatch.setenv(
        "REPRO_FAIL_INJECT", json.dumps({"rate": 1.0, "seed": 1})
    )
    runner = CampaignRunner(jobs=1, max_retries=1, failure_mode="record")
    records = runner.run_sims(grid)
    assert runner.retried > 0
    assert [canonical_json(r.to_dict()) for r in records] == cold


def _plan_of(n_tasks: int) -> Schedule:
    plan = Schedule()
    for i in range(n_tasks):
        plan.add(f"t{i}", "dev", float(i), float(i + 1))
    return plan


def test_memo_keeps_its_task_budget_under_distinct_keys(fresh_memo):
    budget = jobs._PLAN_MEMO_TASKS
    sizes = [1, 7, 300, 64, budget, 5, budget + 1, 900, 1500, 33, 2, 700]
    for i, n in enumerate(sizes * 3):
        jobs._remember_plan(("cell", i), _plan_of(n))
        retained = sum(p.n_tasks for p in jobs._plan_memo.values())
        assert retained == jobs._plan_memo_tasks <= budget
    # The newest plan that fits is always kept; an oversized one never.
    assert jobs._plan_memo[("cell", len(sizes) * 3 - 1)].n_tasks == 700
    assert all(p.n_tasks <= budget for p in jobs._plan_memo.values())


def test_memo_evicts_the_least_recently_used_plan(fresh_memo):
    half = jobs._PLAN_MEMO_TASKS // 2
    jobs._remember_plan("a", _plan_of(half))
    jobs._remember_plan("b", _plan_of(half))
    assert jobs._recall_plan("a") is not None
    jobs._remember_plan("c", _plan_of(1))
    assert list(jobs._plan_memo) == ["a", "c"]


def test_timing_cells_never_consult_the_memo(fresh_memo, monkeypatch):
    def untouchable(*_args):
        raise AssertionError("a timing cell consulted the plan memo")

    for name in ("_plan_key", "_recall_plan", "_remember_plan"):
        monkeypatch.setattr(jobs, name, untouchable)
    job = make_timing_job(montage(n_images=3, seed=1), CLUSTER, "heft")
    record = jobs.execute_timing(job.payload())
    assert record["n_tasks"] > 0
    assert not jobs._plan_memo
