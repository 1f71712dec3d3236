"""Tests for the execution-time model."""

import numpy as np
import pytest

from repro.platform.devices import DeviceClass, catalogue
from repro.platform.perfmodel import ExecutionModel
from repro.platform.power import DvfsState
from repro.workflows.task import Task, accelerable_task, cpu_task, gpu_task


@pytest.fixture
def model():
    return ExecutionModel()


@pytest.fixture
def cat():
    return catalogue()


class TestEligibility:
    def test_cpu_task_only_on_cpu(self, model, cat):
        t = cpu_task("t", 100.0)
        assert model.eligible(t, cat["cpu-std"])
        assert not model.eligible(t, cat["gpu-std"])

    def test_gpu_task_on_both(self, model, cat):
        t = gpu_task("t", 100.0)
        assert model.eligible(t, cat["cpu-std"])
        assert model.eligible(t, cat["gpu-std"])

    def test_cpu_opt_out(self, model, cat):
        t = Task("t", 100.0, affinity={DeviceClass.CPU: 0.0,
                                       DeviceClass.GPU: 5.0})
        assert not model.eligible(t, cat["cpu-std"])
        assert model.eligible(t, cat["gpu-std"])


class TestEstimate:
    def test_basic_formula(self, model, cat):
        t = cpu_task("t", 100.0)
        # cpu-std: 50 Gop/s, zero CPU overhead
        assert model.estimate(t, cat["cpu-std"]) == pytest.approx(2.0)

    def test_affinity_scales_speed(self, model, cat):
        t = gpu_task("t", 700.0, gpu_speedup=10.0)
        # gpu-std: 700 Gop/s * 10 affinity + 0.05 launch overhead
        assert model.estimate(t, cat["gpu-std"]) == pytest.approx(
            0.05 + 700.0 / 7000.0
        )

    def test_ineligible_estimate_raises(self, model, cat):
        t = cpu_task("t", 100.0)
        with pytest.raises(ValueError):
            model.estimate(t, cat["gpu-std"])

    def test_overhead_hurts_short_tasks(self, model, cat):
        short = gpu_task("s", 1.0, gpu_speedup=10.0)
        # CPU: 1/50 = 0.02 s.  GPU: 0.05 + tiny -> GPU slower.
        assert model.estimate(short, cat["cpu-std"]) < model.estimate(
            short, cat["gpu-std"]
        )

    def test_overhead_amortized_for_long_tasks(self, model, cat):
        long = gpu_task("l", 5000.0, gpu_speedup=10.0)
        assert model.estimate(long, cat["gpu-std"]) < model.estimate(
            long, cat["cpu-std"]
        )

    def test_dvfs_stretches_time(self, model, cat):
        t = cpu_task("t", 100.0)
        state = DvfsState("half", freq_scale=0.5, power_scale=0.2)
        assert model.estimate(t, cat["cpu-std"], state) == pytest.approx(4.0)


class TestSampling:
    def test_zero_noise_returns_estimate(self, cat):
        model = ExecutionModel(noise_cv=0.0)
        t = cpu_task("t", 100.0)
        rng = np.random.default_rng(0)
        assert model.sample(t, cat["cpu-std"], rng) == model.estimate(
            t, cat["cpu-std"]
        )

    def test_noise_mean_preserving(self, cat):
        model = ExecutionModel(noise_cv=0.5)
        t = cpu_task("t", 100.0)
        rng = np.random.default_rng(1)
        samples = [model.sample(t, cat["cpu-std"], rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(2.0, rel=0.05)

    def test_samples_always_positive(self, cat):
        model = ExecutionModel(noise_cv=2.0)
        t = cpu_task("t", 1.0)
        rng = np.random.default_rng(2)
        assert all(
            model.sample(t, cat["cpu-std"], rng) > 0 for _ in range(200)
        )

    def test_noise_level_change_between_samples(self, cat):
        """One model re-tuned between runs draws as fresh models would."""
        t = cpu_task("t", 100.0)
        reused = ExecutionModel()
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        for cv in (0.1, 0.5, 0.1, 2.0):
            reused.noise_cv = cv
            fresh = ExecutionModel(noise_cv=cv)
            assert reused.sample(t, cat["cpu-std"], rng_a) == fresh.sample(
                t, cat["cpu-std"], rng_b
            )
