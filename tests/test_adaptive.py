"""Tests for the adaptive (re-planning) policy."""

import pytest

from repro.core.adaptive import AdaptivePolicy
from repro.core.executor import WorkflowExecutor
from repro.core.hdws import HdwsScheduler
from repro.faults.models import FaultModel
from repro.faults.recovery import RecoveryPolicy
from repro.platform import presets
from repro.schedulers.base import SchedulingContext
from repro.workflows.generators import montage


@pytest.fixture
def wf():
    return montage(n_images=8, seed=6)


@pytest.fixture
def cluster():
    return presets.hybrid_cluster(nodes=2, cores_per_node=2)


def adaptive(wf, cluster, **kwargs):
    """An adaptive policy planning from a fresh context of the pair."""
    return AdaptivePolicy(SchedulingContext(wf, cluster), **kwargs)


class TestAdaptivePolicy:
    def test_completes_without_noise(self, wf, cluster):
        cluster.reset()
        executor = WorkflowExecutor(wf, cluster, adaptive(wf, cluster))
        result = executor.run()
        assert result.success

    def test_no_replans_when_execution_matches_plan(self, wf, cluster):
        cluster.reset()
        policy = adaptive(wf, cluster, drift_threshold=0.5)
        executor = WorkflowExecutor(wf, cluster, policy)
        executor.run()
        assert policy.replans == 0

    def test_replans_triggered_by_noise(self, wf, cluster):
        cluster.reset()
        cluster.execution_model.noise_cv = 1.0
        try:
            policy = adaptive(wf, cluster, drift_threshold=0.02)
            executor = WorkflowExecutor(wf, cluster, policy, seed=3)
            result = executor.run()
            assert result.success
            assert policy.replans > 0
        finally:
            cluster.execution_model.noise_cv = 0.0

    def test_replans_on_device_failure(self, wf, cluster):
        cluster.reset()
        policy = adaptive(wf, cluster, drift_threshold=10.0)  # drift never triggers
        executor = WorkflowExecutor(
            wf, cluster, policy, seed=4,
            fault_model=FaultModel(device_mtbf=3.0),
            recovery=RecoveryPolicy.retry(20),
        )
        result = executor.run()
        assert result.success
        if result.device_faults > 0:
            assert policy.replans > 0

    def test_max_replans_respected(self, wf, cluster):
        cluster.reset()
        cluster.execution_model.noise_cv = 1.5
        try:
            policy = adaptive(wf, cluster, drift_threshold=0.001, max_replans=2)
            executor = WorkflowExecutor(wf, cluster, policy, seed=3)
            executor.run()
            assert policy.replans <= 2
        finally:
            cluster.execution_model.noise_cv = 0.0

    def test_custom_planner_accepted(self, wf, cluster):
        cluster.reset()
        policy = adaptive(wf, cluster, planner=HdwsScheduler(use_lookahead=False))
        executor = WorkflowExecutor(wf, cluster, policy)
        assert executor.run().success
