"""Plan, platform and context reuse across the cells of a grid row.

A static plan is a pure function of the workflow, platform, release
times and scheduler, and reads the run seed only through the
estimate-error draw.  ``execute_sim`` therefore memoizes static plans by
those planning inputs and hands a hit to ``run_workflow(plan=)``.  It
also keeps the most recent platform and, at zero estimate error, the
most recent ``SchedulingContext``, which it hands to
``run_workflow(context=)`` in any mode.  These tests pin the premises
(plans do not depend on the run seed; a context's tables do not depend
on which schedulers filled them), the invariant that makes sharing safe
(a run never mutates its plan), the memos' bounds, and that records
stay byte-identical.
"""

from __future__ import annotations

import json
from collections import OrderedDict

import pytest

from repro import Orchestrator, RunConfig, run_workflow
from repro.core.orchestrator import MODES
from repro.core.policies import StaticPolicy
from repro.experiments.common import make_job, make_timing_job, preset_spec
from repro.faults.models import FaultModel
from repro.faults.recovery import RecoveryPolicy
from repro.platform import presets
from repro.runner import CampaignRunner, jobs
from repro.runner.hashing import canonical_json
from repro.runner.specs import factory_spec
from repro.schedulers import REGISTRY
from repro.schedulers.base import SchedulingContext
from repro.schedulers.schedule import Schedule
from repro.staticcheck import StaticCheckError
from repro.workflows.generators import epigenomics, montage
from repro.workflows.serialize import workflow_to_dict

CLUSTER = preset_spec("hybrid", nodes=2, cores_per_node=2, gpus_per_node=1)


def _clear_memos() -> None:
    jobs._plan_memo.clear()
    jobs._plan_memo_tasks = 0
    jobs._platform_memo = None
    jobs._context_memo = None


@pytest.fixture
def fresh_memo(monkeypatch):
    """Empty worker memos for the test, the module's own restored after."""
    monkeypatch.setattr(jobs, "_plan_memo", OrderedDict())
    monkeypatch.setattr(jobs, "_plan_memo_tasks", 0)
    monkeypatch.setattr(jobs, "_platform_memo", None)
    monkeypatch.setattr(jobs, "_context_memo", None)


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
    """One cell's record with empty memos, as canonical JSON."""
    _clear_memos()
    return canonical_json(jobs.execute_sim(payload))


def test_warm_memo_records_equal_cold_memo_records(fresh_memo, monkeypatch):
    grid = _grid()
    payloads = [job.payload() for job in grid]
    cold = [_cold(p) for p in payloads]
    assert not any("kind" in json.loads(c) for c in cold)  # no CellFailure

    _clear_memos()
    hits = []
    recall = jobs._recall_plan

    def counting_recall(key):
        plan = recall(key)
        hits.append(plan is not None)
        return plan

    monkeypatch.setattr(jobs, "_recall_plan", counting_recall)
    warm = [canonical_json(jobs.execute_sim(p)) for p in payloads]
    assert warm == cold
    # 20 static cells over 6 plan keys: the estimate-error row keeps its
    # three seeds apart, each other static row shares one plan, and the
    # faulty heft row shares the plain heft row's (faults never plan).
    assert sum(hits) == 14
    assert len(jobs._plan_memo) == 6

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

    for name in ("_memo_keys", "_recall_plan", "_remember_plan"):
        monkeypatch.setattr(jobs, name, untouchable)
    job = make_timing_job(montage(n_images=3, seed=1), CLUSTER, "heft")
    record = jobs.execute_timing(job.payload())
    assert record["n_tasks"] > 0
    assert not jobs._plan_memo


def test_timing_cells_never_consult_the_platform_or_context_memo(
    fresh_memo, monkeypatch
):
    # A timing cell times schedule() on its own context: a retained
    # platform or context would change what it measures.
    def untouchable(*_args):
        raise AssertionError("a timing cell consulted a row memo")

    for name in ("_platform_for", "_recall_context", "_remember_context"):
        monkeypatch.setattr(jobs, name, untouchable)
    job = make_timing_job(montage(n_images=3, seed=1), CLUSTER, "peft")
    record = jobs.execute_timing(job.payload())
    assert record["n_tasks"] > 0
    assert jobs._platform_memo is None and jobs._context_memo is None


def test_pickled_timing_cells_decode_their_workflow_once(monkeypatch):
    # Pickling gives every payload copy a fresh document identity; the
    # fingerprint still names the one document they share.
    import pickle

    from repro.workflows import serialize

    monkeypatch.setattr(jobs, "_workflow_memo", {})
    decodes = []
    original = serialize.workflow_from_dict

    def counting(doc):
        decodes.append(doc)
        return original(doc)

    monkeypatch.setattr(serialize, "workflow_from_dict", counting)
    job = make_timing_job(montage(n_images=3, seed=1), CLUSTER, "heft")
    payload = job.payload()
    for _ in range(4):
        record = jobs.execute_timing(pickle.loads(pickle.dumps(payload)))
        assert record["n_tasks"] > 0
    assert len(decodes) == 1
    assert list(jobs._workflow_memo) == [payload["workflow_fp"]]


# --------------------------------------------------------------------- #
# the orchestrator's context= argument                                  #
# --------------------------------------------------------------------- #

class TestGivenContext:
    @pytest.mark.parametrize("mode", MODES)
    def test_given_context_is_planned_from(self, mode, small_montage,
                                           hybrid_cluster, monkeypatch):
        fresh = Orchestrator(RunConfig(mode=mode, seed=3, noise_cv=0.2)).run(
            small_montage, hybrid_cluster
        )
        context = SchedulingContext(small_montage, hybrid_cluster)

        def no_context(*_args, **_kwargs):
            raise AssertionError("built a context although one was given")

        monkeypatch.setattr(
            "repro.core.orchestrator.SchedulingContext", no_context
        )
        given = Orchestrator(RunConfig(mode=mode, seed=3, noise_cv=0.2)).run(
            small_montage, hybrid_cluster, context=context
        )
        assert given.context is context
        assert given.summary() == fresh.summary()
        assert fresh.context is not None and fresh.context is not context

    def test_a_run_from_a_given_plan_has_no_context(self, small_montage,
                                                    hybrid_cluster):
        plan = run_workflow(small_montage, hybrid_cluster).plan
        context = SchedulingContext(small_montage, hybrid_cluster)
        result = run_workflow(
            small_montage, hybrid_cluster, plan=plan, context=context
        )
        assert result.context is None

    @pytest.mark.parametrize("mode", MODES)
    def test_a_context_for_another_workflow_or_platform_is_refused(
        self, mode, small_montage, hybrid_cluster
    ):
        context = SchedulingContext(small_montage, hybrid_cluster)
        # An equal-content rebuild is another object, and is refused too.
        twin_wf = montage(n_images=5, seed=7)
        twin_cluster = presets.hybrid_cluster(
            nodes=2, cores_per_node=2, gpus_per_node=1
        )
        first = small_montage.topological_order()[0]
        cases = [
            (twin_wf, hybrid_cluster, {}),
            (small_montage, twin_cluster, {}),
            (small_montage, hybrid_cluster, {first: 1.0}),
        ]
        for wf, cluster, release in cases:
            orchestrator = Orchestrator(
                RunConfig(mode=mode, release_times=release)
            )
            with pytest.raises(ValueError, match="another workflow"):
                orchestrator.run(wf, cluster, context=context)


@pytest.mark.parametrize("order", ["sorted", "reversed"])
def test_one_context_plans_every_scheduler_as_a_fresh_one(
    order, small_montage, hybrid_cluster
):
    """A context's lazy tables are the same whichever schedulers fill them."""
    names = sorted(REGISTRY)
    if order == "reversed":
        names.reverse()
    shared = SchedulingContext(small_montage, hybrid_cluster)
    for name in names:
        fresh = SchedulingContext(small_montage, hybrid_cluster)
        expected = _snapshot(REGISTRY[name]().schedule(fresh))
        assert _snapshot(REGISTRY[name]().schedule(shared)) == expected, name


# --------------------------------------------------------------------- #
# the worker-side platform and context memos                            #
# --------------------------------------------------------------------- #

DVFS_CLUSTER = preset_spec(
    "hybrid", nodes=2, cores_per_node=2, gpus_per_node=1, dvfs=True
)
DEVICE_FAULTS = factory_spec(FaultModel, device_mtbf=2.0,
                             device_data_loss=True)
RETRY = factory_spec(RecoveryPolicy.retry, 10)


def _row(doc, cluster, tag, release):
    """One grid row: every mode and both estimate errors on one pair.

    Each cell gets its own seed, so context and plan hits prove the seed
    does not reach them at zero estimate error.
    """
    variants = [
        dict(scheduler="heft"),
        dict(scheduler="peft"),  # the OCT reads the device table
        dict(scheduler="hdws", mode="dynamic"),
        dict(scheduler="hdws", mode="adaptive"),
        dict(scheduler="hdws", mode="adaptive", estimate_error_cv=0.2),
        dict(scheduler="hdws", mode="dynamic", estimate_error_cv=0.2),
        # Device failures with output regeneration (the plain heft
        # plan), then a clean cell on the platform they ran on.
        dict(scheduler="heft", seed=1, fault_model=DEVICE_FAULTS,
             recovery=RETRY),
        dict(scheduler="minmin"),
        dict(scheduler="heft", mode="adaptive", fault_model=DEVICE_FAULTS,
             recovery=RETRY),
        dict(scheduler="heft", release_times=release),
        dict(scheduler="hdws", mode="dynamic", release_times=release),
        dict(scheduler="cpop"),
    ]
    cells = []
    for i, variant in enumerate(variants):
        config = dict(seed=100 + i, noise_cv=0.2)
        config.update(variant)
        cells.append(make_job(doc, cluster, label=f"{tag}:{i}", **config))
    return cells


def _row_grid():
    """Two workflows x two platforms, interleaved, then a platform bounce.

    Row order switches both one-entry memos.  The last three cells leave
    the retained context on (W1, P1), move the platform to P2 with a
    cell that bypasses the context, and come back to (W1, P1): the
    platform is rebuilt, so the retained context is for another cluster
    object and must not be handed over.
    """
    wfs = [montage(n_images=5, seed=7), epigenomics(n_lanes=2, seed=3)]
    docs = [workflow_to_dict(wf) for wf in wfs]
    releases = [
        {t: 0.5 for t in wf.topological_order()[:3]} for wf in wfs
    ]
    grid = []
    for p, cluster in enumerate((CLUSTER, DVFS_CLUSTER)):
        for w, doc in enumerate(docs):
            grid += _row(doc, cluster, f"row:w{w}:p{p}", releases[w])
    dynamic = dict(scheduler="hdws", mode="dynamic", noise_cv=0.2)
    grid += [
        make_job(docs[0], CLUSTER, seed=1, label="bounce:0", **dynamic),
        make_job(docs[0], DVFS_CLUSTER, seed=2, label="bounce:1",
                 scheduler="hdws", mode="adaptive", estimate_error_cv=0.2),
        make_job(docs[0], CLUSTER, seed=3, label="bounce:2", **dynamic),
    ]
    return grid


def test_warm_row_memos_records_equal_cold_records(fresh_memo, monkeypatch):
    grid = _row_grid()
    payloads = [job.payload() for job in grid]
    cold = [_cold(p) for p in payloads]
    decoded = [json.loads(c) for c in cold]
    assert not any("kind" in d for d in decoded)  # no CellFailure
    faulty = [d for job, d in zip(grid, decoded) if job.label.endswith(":6")]
    assert all(d["device_faults"] >= 1 for d in faulty)
    regenerating = run_workflow(
        montage(n_images=5, seed=7), presets.hybrid_cluster(
            nodes=2, cores_per_node=2, gpus_per_node=1
        ), scheduler="heft", seed=1, noise_cv=0.2,
        fault_model=FaultModel(device_mtbf=2.0, device_data_loss=True),
        recovery=RecoveryPolicy.retry(10),
    )
    assert regenerating.execution.regenerations >= 1  # row w0:p0's cell 6

    _clear_memos()
    recall = jobs._recall_context
    hits = []

    def counting_recall(key, wf, cluster):
        context = recall(key, wf, cluster)
        hits.append(context is not None)
        return context

    monkeypatch.setattr(jobs, "_recall_context", counting_recall)
    warm = [canonical_json(jobs.execute_sim(p)) for p in payloads]
    assert warm == cold
    # Per row, cells 1-3, the clean cell after the faults, the adaptive
    # cell with device failures and the dynamic cell with release times
    # reuse the context: 6 hits x 4 rows.  The bounce never hits.
    assert sum(hits) == 24
    assert not any(hits[-3:])
    assert jobs._context_memo[1].cluster is jobs._platform_memo[1]

    # Transient retries through the runner, on the now-warm memos.
    monkeypatch.setenv(
        "REPRO_FAIL_INJECT", json.dumps({"rate": 1.0, "seed": 1})
    )
    runner = CampaignRunner(jobs=1, max_retries=1, failure_mode="record")
    records = runner.run_sims(grid)
    assert runner.retried > 0
    assert [canonical_json(r.to_dict()) for r in records] == cold


def test_cells_with_estimate_error_never_touch_the_context_memo(fresh_memo):
    doc = workflow_to_dict(montage(n_images=5, seed=7))
    for mode in MODES:
        job = make_job(doc, CLUSTER, scheduler="hdws", mode=mode, seed=4,
                       estimate_error_cv=0.2, label=f"err:{mode}")
        jobs.execute_sim(job.payload())
        assert jobs._context_memo is None
    job = make_job(doc, CLUSTER, scheduler="hdws", mode="dynamic", seed=4,
                   label="clean")
    jobs.execute_sim(job.payload())
    assert jobs._context_memo is not None
