"""Tests for execution policies."""

import pytest

from repro.core.executor import WorkflowExecutor
from repro.core.policies import DynamicMctPolicy, StaticPolicy
from repro.platform import presets
from repro.schedulers.base import SchedulingContext
from repro.schedulers.heft import HeftScheduler
from repro.workflows.generators import montage


@pytest.fixture
def setup():
    wf = montage(n_images=6, seed=4)
    cluster = presets.hybrid_cluster(nodes=2, cores_per_node=2)
    plan = HeftScheduler().schedule(SchedulingContext(wf, cluster))
    return wf, cluster, plan


class TestStaticPolicy:
    def test_follows_planned_devices_without_noise(self, setup):
        wf, cluster, plan = setup
        cluster.reset()
        executor = WorkflowExecutor(wf, cluster, StaticPolicy(plan))
        result = executor.run()
        assert result.success
        for name, rec in result.records.items():
            assert rec.device == plan.device_of(name)

    def test_queues_built_in_plan_order(self, setup):
        wf, cluster, plan = setup
        cluster.reset()
        policy = StaticPolicy(plan)
        executor = WorkflowExecutor(wf, cluster, policy)
        policy.prepare(executor)
        for uid, queue in policy._queues.items():
            assert queue == plan.tasks_on(uid)

    def test_select_only_offers_ready_heads(self, setup):
        wf, cluster, plan = setup
        cluster.reset()
        policy = StaticPolicy(plan)
        executor = WorkflowExecutor(wf, cluster, policy)
        policy.prepare(executor)
        # before run() marks entries ready, nothing is dispatchable
        assert policy.select(executor) == []


class TestDynamicMctPolicy:
    def test_prefers_fast_devices(self, setup):
        wf, cluster, _plan = setup
        cluster.reset()
        policy = DynamicMctPolicy(SchedulingContext(wf, cluster))
        executor = WorkflowExecutor(wf, cluster, policy)
        result = executor.run()
        assert result.success
        # mProject tasks are strongly GPU-accelerable; with free choice the
        # greedy mapper must put at least one on a GPU.
        gpu_used = any(
            "gpu" in rec.device for rec in result.records.values()
            if rec.name.startswith("mProject")
        )
        assert gpu_used

    def test_one_task_per_device_per_round(self, setup):
        wf, cluster, _plan = setup
        cluster.reset()
        policy = DynamicMctPolicy(SchedulingContext(wf, cluster))
        executor = WorkflowExecutor(wf, cluster, policy)
        policy.prepare(executor)
        for name, preds in executor.unfinished_preds.items():
            if not preds:
                executor._mark_ready(name)
        decisions = policy.select(executor)
        devices = [d.uid for _t, d, _s in decisions]
        assert len(devices) == len(set(devices))


def _per_device_select(policy, executor):
    """DynamicMct's selection as it priced before: per (task, device) pair."""
    from repro.data.staging import choose_source

    wf = executor.workflow
    free = {d.uid: d for d in executor.free_devices()}
    decisions = []
    for name in sorted(executor.ready_tasks(),
                       key=lambda n: (-policy._ranks[n], n)):
        if not free:
            break
        best = None
        for uid, device in sorted(free.items()):
            if not executor.eligible(name, device):
                continue
            cost = policy._context.exec_time(name, uid)
            if policy.locality_aware:
                staging = 0.0
                for fname in wf.tasks[name].inputs:
                    try:
                        staging += choose_source(
                            executor.catalog, executor.cluster, fname,
                            wf.files[fname].size_mb, device.node.name,
                        ).cost
                    except LookupError:
                        continue
                cost += staging
            if best is None or cost < best[0] - 1e-15:
                best = (cost, uid, device)
        if best is not None:
            decisions.append((name, best[2], None))
            del free[best[1]]
    return decisions


class TestDynamicMctPricing:
    @pytest.mark.parametrize("locality_aware", [True, False])
    def test_per_node_staging_equals_per_device_pricing(self, locality_aware):
        """Replicas on several nodes: pricing per node picks what per device did."""
        from repro.data.catalog import ReplicaCatalog

        wf = montage(n_images=6, seed=4)
        cluster = presets.hybrid_cluster(
            nodes=3, cores_per_node=2, gpus_per_node=1
        )
        cluster.reset()
        policy = DynamicMctPolicy(
            SchedulingContext(wf, cluster), locality_aware=locality_aware
        )
        executor = WorkflowExecutor(wf, cluster, policy)
        policy.prepare(executor)
        nodes = [n.name for n in cluster.nodes]
        produced = sorted(f for f in wf.files if not wf.files[f].initial)
        for f in wf.files.values():
            if f.initial:
                executor.catalog.register(f.name, ReplicaCatalog.STORAGE)
        # Produced files on one, two or three nodes, some archived; the
        # last few exist nowhere (not produced yet).
        for i, fname in enumerate(produced[:-3]):
            for node in nodes[i % 3: i % 3 + 1 + i % 2]:
                executor.catalog.register(fname, node)
            if i % 4 == 0:
                executor.catalog.register(fname, ReplicaCatalog.STORAGE)
        executor.ready = set(wf.tasks)
        for busy in ([], [cluster.devices[0].uid, cluster.devices[4].uid]):
            executor.busy_devices = set(busy)
            got = policy.select(executor)
            want = _per_device_select(policy, executor)
            assert [(n, d.uid) for n, d, _ in got] == [
                (n, d.uid) for n, d, _ in want
            ]
            assert got
