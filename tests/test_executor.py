"""Tests for the event-driven workflow executor."""

import pytest

from repro.core.executor import DONE, WorkflowExecutor
from repro.core.policies import DynamicMctPolicy, StaticPolicy
from repro.faults.models import FaultModel
from repro.faults.recovery import RecoveryPolicy
from repro.platform import presets
from repro.schedulers.base import SchedulingContext
from repro.schedulers.heft import HeftScheduler
from repro.workflows.generators import cybershake, montage
from repro.workflows.graph import Workflow
from repro.workflows.task import DataFile, cpu_task


def run_static(wf, cluster, **kwargs):
    cluster.reset()
    plan = HeftScheduler().schedule(SchedulingContext(wf, cluster))
    executor = WorkflowExecutor(wf, cluster, StaticPolicy(plan), **kwargs)
    return executor.run(), plan


class TestBasicExecution:
    def test_all_tasks_complete(self, small_montage, hybrid_cluster):
        result, _plan = run_static(small_montage, hybrid_cluster)
        assert result.success
        assert result.completed_tasks == small_montage.n_tasks
        assert result.makespan > 0

    def test_noise_free_matches_plan_reasonably(self, small_montage, hybrid_cluster):
        result, plan = run_static(small_montage, hybrid_cluster)
        # The executor pays real contention the plan estimated; allow slack
        # but the two must be the same order of magnitude.
        assert result.makespan <= plan.makespan * 3.0
        assert result.makespan >= plan.makespan * 0.3

    def test_precedence_respected_in_execution(self, small_montage, hybrid_cluster):
        result, _plan = run_static(small_montage, hybrid_cluster)
        for name, rec in result.records.items():
            for pred in small_montage.predecessors(name):
                assert result.records[pred].finish <= rec.start + 1e-9

    def test_trace_has_start_finish_pairs(self, small_montage, hybrid_cluster):
        result, _plan = run_static(small_montage, hybrid_cluster)
        kinds = result.trace.kinds()
        assert kinds["task.start"] == small_montage.n_tasks
        assert kinds["task.finish"] == small_montage.n_tasks

    def test_network_and_staging_accounted(self, small_montage, hybrid_cluster):
        result, _plan = run_static(small_montage, hybrid_cluster)
        assert result.staging_mb > 0  # raw images staged from storage
        assert result.network_mb >= 0

    def test_device_busy_intervals_recorded(self, small_montage, hybrid_cluster):
        result, _plan = run_static(small_montage, hybrid_cluster)
        busy = sum(d.busy_time() for d in hybrid_cluster.devices)
        assert busy > 0

    def test_determinism(self, small_montage, hybrid_cluster):
        r1, _ = run_static(small_montage, hybrid_cluster, seed=5)
        r2, _ = run_static(small_montage, hybrid_cluster, seed=5)
        assert r1.makespan == r2.makespan

    def test_seed_changes_noisy_runs(self, small_montage, hybrid_cluster):
        hybrid_cluster.execution_model.noise_cv = 0.3
        try:
            r1, _ = run_static(small_montage, hybrid_cluster, seed=1)
            r2, _ = run_static(small_montage, hybrid_cluster, seed=2)
            assert r1.makespan != r2.makespan
        finally:
            hybrid_cluster.execution_model.noise_cv = 0.0


class TestCaching:
    def test_shared_input_staged_once_per_node(self):
        """Two consumers of one storage file on one node: one staging."""
        wf = Workflow("shared")
        wf.add_file(DataFile("big", 500.0, initial=True))
        for i in range(2):
            out = wf.add_file(DataFile(f"o{i}", 1.0))
            wf.add_task(cpu_task(f"t{i}", 10.0, inputs=("big",),
                                 outputs=(out.name,)))
        cluster = presets.single_node_workstation()
        result, _plan = run_static(wf, cluster)
        assert result.success
        # staged once: 500 MB, not 1000
        assert result.staging_mb == pytest.approx(500.0)


class TestTransientFaults:
    def test_retry_recovers(self):
        wf = cybershake(n_variations=6, seed=1)
        cluster = presets.hybrid_cluster(nodes=2)
        result, _plan = run_static(
            wf, cluster, seed=3,
            fault_model=FaultModel(task_fault_rate=0.5),
            recovery=RecoveryPolicy.retry(30),
        )
        assert result.success
        assert result.task_faults > 0
        assert result.retries == result.task_faults

    def test_no_protection_fails_run(self):
        wf = cybershake(n_variations=6, seed=1)
        cluster = presets.hybrid_cluster(nodes=2)
        result, _plan = run_static(
            wf, cluster, seed=3,
            fault_model=FaultModel(task_fault_rate=2.0),
            recovery=RecoveryPolicy.none(),
        )
        assert not result.success
        assert result.retries == 0

    def test_faults_lengthen_makespan(self):
        wf = cybershake(n_variations=6, seed=1).scaled(3.0)
        cluster = presets.hybrid_cluster(nodes=2)
        clean, _ = run_static(wf, cluster, seed=3)
        faulty, _ = run_static(
            wf, cluster, seed=3,
            fault_model=FaultModel(task_fault_rate=0.3),
            recovery=RecoveryPolicy.retry(50),
        )
        assert faulty.makespan > clean.makespan

    def test_checkpoint_bounds_lost_work(self):
        wf = cybershake(n_variations=6, seed=1).scaled(5.0)
        cluster = presets.hybrid_cluster(nodes=2)
        retry, _ = run_static(
            wf, cluster, seed=3,
            fault_model=FaultModel(task_fault_rate=0.3),
            recovery=RecoveryPolicy.retry(60),
        )
        ckpt, _ = run_static(
            wf, cluster, seed=3,
            fault_model=FaultModel(task_fault_rate=0.3),
            recovery=RecoveryPolicy.checkpoint(0.5, overhead=0.02, retries=60),
        )
        assert ckpt.success and retry.success
        assert ckpt.makespan < retry.makespan * 1.05

    def test_progress_fraction_accumulates(self):
        wf = cybershake(n_variations=4, seed=1).scaled(5.0)
        cluster = presets.hybrid_cluster(nodes=2)
        result, _ = run_static(
            wf, cluster, seed=3,
            fault_model=FaultModel(task_fault_rate=0.4),
            recovery=RecoveryPolicy.checkpoint(0.5, retries=60),
        )
        assert result.success
        assert all(
            rec.progress_fraction == 1.0 for rec in result.records.values()
        )


class TestDeviceFaults:
    def test_run_survives_device_loss(self):
        wf = montage(n_images=8, seed=2)
        cluster = presets.hybrid_cluster(nodes=2)
        result, _plan = run_static(
            wf, cluster, seed=7,
            fault_model=FaultModel(device_mtbf=5.0),
            recovery=RecoveryPolicy.retry(20),
        )
        assert result.device_faults > 0
        assert result.success

    def test_failed_devices_not_reused(self):
        wf = montage(n_images=8, seed=2)
        cluster = presets.hybrid_cluster(nodes=2)
        result, _plan = run_static(
            wf, cluster, seed=7,
            fault_model=FaultModel(device_mtbf=5.0),
            recovery=RecoveryPolicy.retry(20),
        )
        failures = result.trace.of_kind("fault.device")
        for frec in failures:
            dead_uid = frec.get("device")
            dead_time = frec.time
            for srec in result.trace.of_kind("task.start"):
                if srec.get("device") == dead_uid:
                    assert srec.time <= dead_time + 1e-9

    def test_last_device_never_killed(self):
        # All-CPU platform: any surviving device can run any task, so the
        # run must complete even when every other device dies.
        wf = montage(n_images=4, seed=2)
        cluster = presets.cpu_cluster(nodes=2, cores_per_node=2)
        result, _plan = run_static(
            wf, cluster, seed=7,
            fault_model=FaultModel(device_mtbf=0.5),
            recovery=RecoveryPolicy.retry(50),
        )
        assert len(cluster.alive_devices()) >= 1
        assert result.success


class TestDynamicPolicy:
    def test_dynamic_completes(self, small_montage, hybrid_cluster):
        hybrid_cluster.reset()
        executor = WorkflowExecutor(
            small_montage, hybrid_cluster,
            DynamicMctPolicy(SchedulingContext(small_montage, hybrid_cluster)),
        )
        result = executor.run()
        assert result.success

    def test_dynamic_locality_completes(self, small_montage, hybrid_cluster):
        hybrid_cluster.reset()
        executor = WorkflowExecutor(
            small_montage, hybrid_cluster,
            DynamicMctPolicy(
                SchedulingContext(small_montage, hybrid_cluster),
                locality_aware=True,
            ),
        )
        result = executor.run()
        assert result.success


class TestArchive:
    def test_archive_records_outputs_at_storage(self, small_montage, hybrid_cluster):
        hybrid_cluster.reset()
        plan = HeftScheduler().schedule(
            SchedulingContext(small_montage, hybrid_cluster)
        )
        executor = WorkflowExecutor(
            small_montage, hybrid_cluster, StaticPolicy(plan),
            recovery=RecoveryPolicy(max_retries=0, archive_outputs=True),
        )
        result = executor.run()
        assert result.success
        from repro.data.catalog import ReplicaCatalog

        for task in small_montage.tasks.values():
            for fname in task.outputs:
                assert executor.catalog.has(fname, ReplicaCatalog.STORAGE)

    def test_max_time_stops_early(self, small_montage, hybrid_cluster):
        hybrid_cluster.reset()
        plan = HeftScheduler().schedule(
            SchedulingContext(small_montage, hybrid_cluster)
        )
        executor = WorkflowExecutor(
            small_montage, hybrid_cluster, StaticPolicy(plan)
        )
        result = executor.run(max_time=0.01)
        assert not result.success
