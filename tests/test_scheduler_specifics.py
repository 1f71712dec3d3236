"""Algorithm-specific behavioural tests."""

import pytest

import repro.core  # noqa: F401
from repro.platform import presets
from repro.schedulers import by_name
from repro.schedulers.base import SchedulingContext
from repro.schedulers.energy_aware import EnergyAwareHeftScheduler
from repro.schedulers.genetic import GeneticScheduler
from repro.schedulers.heft import HeftScheduler
from repro.schedulers.peft import optimistic_cost_table
from repro.workflows.generators import ligo_inspiral, montage, random_dag
from repro.workflows.graph import Workflow
from repro.workflows.task import DataFile, cpu_task, gpu_task


@pytest.fixture(scope="module")
def ctx():
    cluster = presets.hybrid_cluster(nodes=2, cores_per_node=2, gpus_per_node=1)
    return SchedulingContext(ligo_inspiral(n_segments=6, group_size=3, seed=1), cluster)


class TestHeft:
    def test_insertion_never_hurts(self, ctx):
        with_ins = HeftScheduler(allow_insertion=True).schedule(ctx).makespan
        without = HeftScheduler(allow_insertion=False).schedule(ctx).makespan
        assert with_ins <= without + 1e-9

    def test_serial_chain_on_one_fast_device(self):
        """A pure chain should stay on a single fast device (no comm)."""
        wf = Workflow("chain")
        prev = None
        for i in range(5):
            out = wf.add_file(DataFile(f"f{i}", 100.0))
            inputs = (prev,) if prev else ()
            wf.add_task(gpu_task(f"t{i}", 500.0, inputs=inputs,
                                 outputs=(out.name,)))
            prev = out.name
        # terminal consumer for validation cleanliness
        wf.add_task(cpu_task("sink", 1.0, inputs=(prev,)))
        cluster = presets.hybrid_cluster(nodes=2, cores_per_node=2)
        schedule = HeftScheduler().schedule(SchedulingContext(wf, cluster))
        chain_devices = {schedule.device_of(f"t{i}") for i in range(5)}
        assert len(chain_devices) == 1
        assert "gpu" in next(iter(chain_devices))


class TestPeft:
    def test_oct_exit_tasks_zero(self, ctx):
        table = optimistic_cost_table(ctx)
        for name in ctx.workflow.exit_tasks():
            assert all(v == 0.0 for v in table[name].values())

    def test_oct_nonnegative_everywhere(self, ctx):
        table = optimistic_cost_table(ctx)
        for row in table.values():
            assert all(v >= 0.0 for v in row.values())

    def test_oct_parent_geq_best_child(self, ctx):
        """OCT of a task is at least the best OCT+exec of each child."""
        table = optimistic_cost_table(ctx)
        wf = ctx.workflow
        for name in wf.tasks:
            for device in ctx.eligible_devices(name):
                for child in wf.successors(name):
                    best_child = min(
                        table[child][d.uid] + ctx.exec_time(child, d.uid)
                        for d in ctx.eligible_devices(child)
                    )
                    assert table[name][device.uid] >= best_child - 1e-9


class TestCpop:
    def test_critical_path_pinned_when_possible(self):
        # CPU-only chain: every device is eligible; CPOP must pin the
        # whole chain to one device.
        wf = Workflow("chain")
        prev = None
        for i in range(4):
            out = wf.add_file(DataFile(f"f{i}", 50.0))
            inputs = (prev,) if prev else ()
            wf.add_task(cpu_task(f"t{i}", 100.0, inputs=inputs,
                                 outputs=(out.name,)))
            prev = out.name
        wf.add_task(cpu_task("sink", 0.1, inputs=(prev,)))
        cluster = presets.cpu_cluster(nodes=2, cores_per_node=2)
        schedule = by_name("cpop").schedule(SchedulingContext(wf, cluster))
        devices = {schedule.device_of(f"t{i}") for i in range(4)}
        assert len(devices) == 1


class TestGenetic:
    def test_never_worse_than_heft_seed(self):
        cluster = presets.hybrid_cluster(nodes=2, cores_per_node=2)
        ctx = SchedulingContext(random_dag(n_tasks=30, ccr=1.0, seed=2), cluster)
        heft = HeftScheduler().schedule(ctx).makespan
        ga = GeneticScheduler(population=10, generations=5, seed=1).schedule(ctx)
        assert ga.makespan <= heft + 1e-9

    def test_zero_generations_reproduces_heft(self):
        cluster = presets.hybrid_cluster(nodes=2, cores_per_node=2)
        ctx = SchedulingContext(montage(n_images=5, seed=2), cluster)
        heft = HeftScheduler().schedule(ctx).makespan
        ga = GeneticScheduler(population=4, generations=0, seed=0).schedule(ctx)
        assert ga.makespan <= heft + 1e-9

    def test_bad_population_rejected(self):
        with pytest.raises(ValueError):
            GeneticScheduler(population=1)

    def test_seed_determinism(self):
        cluster = presets.hybrid_cluster(nodes=2, cores_per_node=2)
        ctx = SchedulingContext(montage(n_images=5, seed=2), cluster)
        a = GeneticScheduler(population=8, generations=4, seed=3).schedule(ctx)
        b = GeneticScheduler(population=8, generations=4, seed=3).schedule(ctx)
        assert a.makespan == b.makespan


class TestEnergyAware:
    def test_alpha_one_matches_heft_closely(self):
        cluster = presets.hybrid_cluster(nodes=2, cores_per_node=2, dvfs=False)
        ctx = SchedulingContext(montage(n_images=6, seed=1), cluster)
        heft = HeftScheduler().schedule(ctx).makespan
        ea = EnergyAwareHeftScheduler(alpha=1.0, use_dvfs=False).schedule(ctx)
        assert ea.makespan == pytest.approx(heft, rel=0.01)

    def test_lower_alpha_saves_planned_energy(self):
        cluster = presets.hybrid_cluster(nodes=2, cores_per_node=2, dvfs=True)
        ctx = SchedulingContext(montage(n_images=6, seed=1), cluster)

        def planned_energy(schedule):
            total = 0.0
            for name, a in schedule.assignments.items():
                device = cluster.device(a.device)
                state = None
                if name in schedule.dvfs_choice:
                    state = device.spec.power.state(schedule.dvfs_choice[name])
                total += device.spec.power.busy_power(state) * a.duration
            return total

        fast = EnergyAwareHeftScheduler(alpha=1.0).schedule(ctx)
        green = EnergyAwareHeftScheduler(alpha=0.1).schedule(ctx)
        assert planned_energy(green) < planned_energy(fast)
        assert green.makespan >= fast.makespan - 1e-9

    def test_dvfs_choices_recorded(self):
        cluster = presets.hybrid_cluster(nodes=2, cores_per_node=2, dvfs=True)
        ctx = SchedulingContext(montage(n_images=6, seed=1), cluster)
        green = EnergyAwareHeftScheduler(alpha=0.0).schedule(ctx)
        assert green.dvfs_choice  # at least one task slowed down

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            EnergyAwareHeftScheduler(alpha=1.5)


class TestRoundRobinAndRandom:
    def test_roundrobin_spreads_load(self):
        cluster = presets.cpu_cluster(nodes=2, cores_per_node=2)
        ctx = SchedulingContext(random_dag(n_tasks=40, ccr=0.0, seed=1), cluster)
        schedule = by_name("roundrobin").schedule(ctx)
        used = schedule.devices_used()
        assert len(used) == 4  # every CPU touched

    def test_random_seed_changes_placement(self):
        from repro.schedulers.randomsched import RandomScheduler

        cluster = presets.hybrid_cluster(nodes=2, cores_per_node=2)
        ctx = SchedulingContext(montage(n_images=6, seed=1), cluster)
        s1 = RandomScheduler(seed=1).schedule(ctx)
        s2 = RandomScheduler(seed=2).schedule(ctx)
        placements1 = {t: a.device for t, a in s1.assignments.items()}
        placements2 = {t: a.device for t, a in s2.assignments.items()}
        assert placements1 != placements2
