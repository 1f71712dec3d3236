"""Tests for fault models, injection and recovery policies."""

import numpy as np
import pytest

from repro.faults.injector import FaultInjector
from repro.faults.models import DeviceFault, FaultModel
from repro.faults.recovery import RecoveryPolicy
from repro.sim.rng import RngStreams


class TestFaultModel:
    def test_disabled_by_default(self):
        fm = FaultModel()
        assert not fm.enabled
        assert fm.draw_task_failure(np.random.default_rng(0), 100.0) is None

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultModel(task_fault_rate=-1.0)

    def test_bad_mtbf_rejected(self):
        with pytest.raises(ValueError):
            FaultModel(device_mtbf=0.0)

    def test_task_failure_within_duration(self):
        fm = FaultModel(task_fault_rate=10.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            t = fm.draw_task_failure(rng, 5.0)
            if t is not None:
                assert 0 <= t < 5.0

    def test_high_rate_fails_often(self):
        fm = FaultModel(task_fault_rate=100.0)
        rng = np.random.default_rng(2)
        fails = sum(
            fm.draw_task_failure(rng, 1.0) is not None for _ in range(200)
        )
        assert fails > 180

    def test_zero_duration_never_fails(self):
        fm = FaultModel(task_fault_rate=100.0)
        assert fm.draw_task_failure(np.random.default_rng(0), 0.0) is None

    def test_device_failures_capped(self):
        fm = FaultModel(device_mtbf=1.0)
        rng = np.random.default_rng(3)
        faults = fm.draw_device_failures(
            rng, [f"d{i}" for i in range(10)], horizon=100.0, max_failures=3
        )
        assert len(faults) == 3
        # sorted by time
        times = [f.time for f in faults]
        assert times == sorted(times)

    def test_device_failures_none_without_mtbf(self):
        fm = FaultModel()
        assert fm.draw_device_failures(np.random.default_rng(0), ["d"], 10.0) == []

    def test_at_most_one_failure_per_device(self):
        fm = FaultModel(device_mtbf=0.1)
        rng = np.random.default_rng(4)
        faults = fm.draw_device_failures(rng, ["a", "b"], horizon=1000.0)
        assert len(faults) <= 2
        assert len({f.device_uid for f in faults}) == len(faults)


class TestInjector:
    def test_deterministic_sequences(self):
        fm = FaultModel(task_fault_rate=1.0, device_mtbf=10.0)
        i1 = FaultInjector(fm, RngStreams(7))
        i2 = FaultInjector(fm, RngStreams(7))
        seq1 = [i1.task_failure_at(2.0) for _ in range(20)]
        seq2 = [i2.task_failure_at(2.0) for _ in range(20)]
        assert seq1 == seq2
        assert i1.plan_device_failures(["a", "b"], 100.0) == \
            i2.plan_device_failures(["a", "b"], 100.0)

    def test_counters(self):
        fm = FaultModel(task_fault_rate=100.0)
        inj = FaultInjector(fm, RngStreams(0))
        for _ in range(10):
            inj.task_failure_at(10.0)
        assert inj.task_faults_injected > 0

    def test_fault_free_run_builds_no_fault_stream(self):
        from repro.core.executor import WorkflowExecutor
        from repro.core.policies import StaticPolicy
        from repro.platform import presets
        from repro.schedulers.base import SchedulingContext
        from repro.schedulers.heft import HeftScheduler
        from repro.workflows.generators import montage

        wf = montage(size=10, seed=3)
        cluster = presets.hybrid_cluster(nodes=2)
        plan = HeftScheduler().schedule(SchedulingContext(wf, cluster))
        executor = WorkflowExecutor(wf, cluster, StaticPolicy(plan), seed=5)
        assert executor.run().success
        assert not [n for n in executor.rng.names() if n.startswith("faults.")]

    def test_streams_built_on_first_draw_draw_as_if_built_first(self):
        fm = FaultModel(task_fault_rate=1.0, device_mtbf=10.0)
        eager = RngStreams(7)
        task_rng = eager.stream("faults.task")
        device_rng = eager.stream("faults.device")
        late = RngStreams(7)
        late.stream("other").random(3)  # built and drawn from first
        inj = FaultInjector(fm, late)
        assert [inj.task_failure_at(2.0) for _ in range(20)] == [
            fm.draw_task_failure(task_rng, 2.0) for _ in range(20)
        ]
        assert inj.plan_device_failures(["a", "b"], 100.0) == \
            fm.draw_device_failures(device_rng, ["a", "b"], 100.0)


class TestRecoveryPolicy:
    def test_defaults_valid(self):
        p = RecoveryPolicy()
        assert not p.checkpointing
        assert p.effective_duration(10.0) == 10.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(checkpoint_interval_s=0.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(checkpoint_overhead=1.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(replicate_tasks=0)

    def test_checkpoint_overhead_applied(self):
        p = RecoveryPolicy.checkpoint(1.0, overhead=0.10)
        assert p.effective_duration(10.0) == pytest.approx(11.0)

    def test_lost_work_without_checkpoint(self):
        p = RecoveryPolicy.retry(3)
        assert p.lost_work(7.3) == 7.3

    def test_lost_work_with_checkpoint(self):
        p = RecoveryPolicy.checkpoint(2.0)
        assert p.lost_work(7.3) == pytest.approx(1.3)
        assert p.lost_work(4.0) == pytest.approx(0.0)

    def test_lost_work_negative_rejected(self):
        with pytest.raises(ValueError):
            RecoveryPolicy().lost_work(-1.0)

    def test_constructors(self):
        assert RecoveryPolicy.none().max_retries == 0
        assert RecoveryPolicy.retry(5).max_retries == 5
        assert RecoveryPolicy.replicated(3).replicate_tasks == 3
        ck = RecoveryPolicy.checkpoint(2.5)
        assert ck.checkpointing
        assert ck.checkpoint_interval_s == 2.5
