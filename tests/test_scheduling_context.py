"""Tests for the shared scheduling context."""

import numpy as np
import pytest

from repro.platform import presets
from repro.platform.devices import DeviceClass
from repro.schedulers.base import SchedulingContext, SchedulingError
from repro.workflows.generators import montage
from repro.workflows.graph import Workflow
from repro.workflows.task import DataFile, Task, cpu_task, gpu_task


class TestEligibility:
    def test_memory_filters_devices(self, hybrid_cluster):
        wf = Workflow("w")
        wf.add_file(DataFile("o", 1.0))
        wf.add_task(cpu_task("big", 1.0, outputs=("o",), memory_gb=48.0))
        wf.add_task(cpu_task("c", 1.0, inputs=("o",)))
        ctx = SchedulingContext(wf, hybrid_cluster)
        # cpu-std has 64 GB, gpu-std has 24 GB: GPUs excluded by memory
        # (CPU-only task anyway) — now force a GPU task needing 48 GB:
        wf2 = Workflow("w2")
        wf2.add_file(DataFile("o", 1.0))
        wf2.add_task(gpu_task("big", 1.0, outputs=("o",), memory_gb=48.0))
        wf2.add_task(cpu_task("c", 1.0, inputs=("o",)))
        ctx2 = SchedulingContext(wf2, hybrid_cluster)
        classes = {d.device_class for d in ctx2.eligible_devices("big")}
        assert classes == {DeviceClass.CPU}

    def test_no_eligible_device_raises(self, cpu_cluster):
        wf = Workflow("w")
        wf.add_file(DataFile("o", 1.0))
        wf.add_task(Task("gpuonly", 1.0,
                         affinity={DeviceClass.CPU: 0.0, DeviceClass.GPU: 5.0},
                         outputs=("o",)))
        wf.add_task(cpu_task("c", 1.0, inputs=("o",)))
        with pytest.raises(SchedulingError):
            SchedulingContext(wf, cpu_cluster)

    def test_failed_devices_excluded(self, small_montage, hybrid_cluster):
        hybrid_cluster.reset()
        hybrid_cluster.devices[0].failed = True
        ctx = SchedulingContext(small_montage, hybrid_cluster)
        uids = {d.uid for d in ctx.eligible_devices("mConcatFit")}
        assert hybrid_cluster.devices[0].uid not in uids
        hybrid_cluster.reset()


class TestEstimates:
    def test_exec_time_matches_model(self, montage_context, hybrid_cluster):
        ctx = montage_context
        wf = ctx.workflow
        dev = hybrid_cluster.devices[0]
        model = hybrid_cluster.execution_model
        t = next(iter(wf.tasks))
        assert ctx.exec_time(t, dev.uid) == pytest.approx(
            model.estimate(wf.tasks[t], dev.spec)
        )

    def test_exec_time_unknown_device_raises(self, montage_context):
        with pytest.raises(SchedulingError):
            montage_context.exec_time("mConcatFit", "nope")

    def test_best_leq_mean(self, montage_context):
        for t in montage_context.workflow.tasks:
            assert montage_context.best_exec(t) <= montage_context.mean_exec(t) + 1e-12

    def test_best_device_is_argmin(self, montage_context):
        for t in list(montage_context.workflow.tasks)[:5]:
            d = montage_context.best_device(t)
            assert montage_context.exec_time(t, d.uid) == pytest.approx(
                montage_context.best_exec(t)
            )

    def test_comm_time_zero_same_node(self, montage_context, hybrid_cluster):
        ctx = montage_context
        wf = ctx.workflow
        # pick a real edge
        src = "mProject_0"
        dst = wf.successors(src)[0]
        node0 = hybrid_cluster.nodes[0]
        d1, d2 = node0.devices[0], node0.devices[1]
        assert ctx.comm_time(src, dst, d1.uid, d2.uid) == 0.0

    def test_comm_time_positive_cross_node(self, montage_context, hybrid_cluster):
        ctx = montage_context
        wf = ctx.workflow
        src = "mProject_0"
        dst = wf.successors(src)[0]
        d1 = hybrid_cluster.nodes[0].devices[0]
        d2 = hybrid_cluster.nodes[1].devices[0]
        assert ctx.comm_time(src, dst, d1.uid, d2.uid) > 0.0

    def test_mean_comm_zero_for_non_edge(self, montage_context):
        assert montage_context.mean_comm("mConcatFit", "mProject_0") == 0.0

    def test_staging_time_counts_initial_inputs_only(
        self, montage_context, hybrid_cluster
    ):
        ctx = montage_context
        dev = hybrid_cluster.devices[0]
        # mProject reads a raw image + header (both initial)
        assert ctx.staging_time("mProject_0", dev.uid) > 0.0
        # mConcatFit reads only produced diffs
        assert ctx.staging_time("mConcatFit", dev.uid) == 0.0

    def test_single_node_cluster_mean_comm_zero(self, small_montage):
        ws = presets.single_node_workstation()
        ctx = SchedulingContext(small_montage, ws)
        src = "mProject_0"
        dst = small_montage.successors(src)[0]
        assert ctx.mean_comm(src, dst) == 0.0


class TestRanks:
    def test_upward_rank_parent_exceeds_child(self, montage_context):
        ranks = montage_context.upward_ranks()
        wf = montage_context.workflow
        for name in wf.tasks:
            for child in wf.successors(name):
                assert ranks[name] > ranks[child]

    def test_downward_rank_entry_zero(self, montage_context):
        down = montage_context.downward_ranks()
        for entry in montage_context.workflow.entry_tasks():
            assert down[entry] == 0.0

    def test_best_ranks_leq_mean_ranks(self, montage_context):
        mean_ranks = montage_context.upward_ranks(use_best=False)
        best_ranks = montage_context.upward_ranks(use_best=True)
        for t in montage_context.workflow.tasks:
            assert best_ranks[t] <= mean_ranks[t] + 1e-9


class TestEstimateError:
    def test_error_factor_is_per_task(self, small_montage, hybrid_cluster):
        rng = np.random.default_rng(0)
        ctx = SchedulingContext(
            small_montage, hybrid_cluster, estimate_error_cv=1.0, rng=rng
        )
        clean = SchedulingContext(small_montage, hybrid_cluster)
        # same multiplicative factor across all devices of one task
        t = "mProject_0"
        factors = {
            d.uid: ctx.exec_time(t, d.uid) / clean.exec_time(t, d.uid)
            for d in ctx.eligible_devices(t)
        }
        vals = list(factors.values())
        assert max(vals) == pytest.approx(min(vals))

    def test_error_reproducible_with_same_rng_seed(
        self, small_montage, hybrid_cluster
    ):
        c1 = SchedulingContext(
            small_montage, hybrid_cluster, estimate_error_cv=0.5,
            rng=np.random.default_rng(5),
        )
        c2 = SchedulingContext(
            small_montage, hybrid_cluster, estimate_error_cv=0.5,
            rng=np.random.default_rng(5),
        )
        t = "mConcatFit"
        d = c1.eligible_devices(t)[0]
        assert c1.exec_time(t, d.uid) == c2.exec_time(t, d.uid)


class TestPlatformReadOnce:
    """A context reads the platform's runtime state only when built."""

    def test_oct_after_a_device_fails_prices_the_build_time_devices(self):
        from repro.schedulers.peft import optimistic_cost_table

        wf = montage(n_images=5, seed=7)
        cluster = presets.hybrid_cluster(
            nodes=2, cores_per_node=2, gpus_per_node=1
        )
        ctx = SchedulingContext(wf, cluster)
        fresh = optimistic_cost_table(SchedulingContext(wf, cluster))
        cluster.device("n0:cpu-std#0").failed = True
        # The first OCT call builds the device table after the failure.
        assert optimistic_cost_table(ctx) == fresh


class TestContextTables:
    """OCT and upward ranks are computed once per context and shared."""

    def test_memoized_tables_equal_fresh_computations(
        self, small_montage, hybrid_cluster
    ):
        from repro.core.hdws import HdwsScheduler
        from repro.schedulers.base import _vec_upward_ranks
        from repro.schedulers.peft import (
            PeftScheduler,
            _vec_optimistic_cost_table,
            optimistic_cost_table,
        )

        ctx = SchedulingContext(small_montage, hybrid_cluster)
        # Planning from the context fills the tables the way a grid row does.
        HdwsScheduler().schedule(ctx)
        PeftScheduler().schedule(ctx)
        table = optimistic_cost_table(ctx)
        assert optimistic_cost_table(ctx) is table
        assert table == _vec_optimistic_cost_table(
            SchedulingContext(small_montage, hybrid_cluster)
        )
        for use_best in (False, True):
            ranks = ctx.upward_ranks(use_best)
            assert ctx.upward_ranks(use_best) is ranks
            assert ranks == _vec_upward_ranks(
                SchedulingContext(small_montage, hybrid_cluster), use_best
            )
        assert ctx.upward_ranks(True) != ctx.upward_ranks(False)

    def test_exec_row_agrees_with_executor_eligibility(
        self, small_montage, hybrid_cluster
    ):
        from repro.core.executor import WorkflowExecutor
        from repro.core.policies import DynamicMctPolicy

        hybrid_cluster.reset()
        ctx = SchedulingContext(small_montage, hybrid_cluster)
        executor = WorkflowExecutor(
            small_montage, hybrid_cluster, DynamicMctPolicy(ctx)
        )
        for name in small_montage.tasks:
            row = ctx.exec_row(name)
            for device in hybrid_cluster.devices:
                assert (device.uid in row) == executor.eligible(name, device)
                if device.uid in row:
                    assert row[device.uid] == ctx.exec_time(name, device.uid)
