"""Metrics registry: instrument semantics, collector mapping, purity.

The collector tests are mutation-style: for every metric in the catalog
(see :mod:`repro.observe.collect`), a synthetic trace record must move
exactly the expected instruments and nothing else — a metric nothing can
move is dead weight, and a record that moves a neighbour's metric is a
mapping bug.
"""

import json

import pytest

from repro.core.api import run_workflow
from repro.observe import (
    Counter,
    Gauge,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
    SNAPSHOT_SCHEMA,
    env_metrics,
)
from repro.platform import presets
from repro.sim.trace import TraceRecord
from repro.workflows.generators import montage


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1.0)


class TestGauge:
    def test_set_last_write_wins(self):
        g = Gauge("x")
        g.set(5)
        g.set(2)
        assert g.value == 2.0


class TestHistogram:
    def test_bucket_placement_inclusive_upper_bounds(self):
        h = Histogram("x", buckets=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 10.0, 11.0):
            h.observe(v)
        # [<=1, <=10, overflow]
        assert h.counts == [2, 2, 1]
        assert h.count == 5
        assert h.min == 0.5 and h.max == 11.0
        assert h.mean == pytest.approx((0.5 + 1 + 5 + 10 + 11) / 5)

    def test_empty_histogram(self):
        h = Histogram("x")
        assert h.mean == 0.0
        assert h.min is None and h.max is None

    def test_rejects_unsorted_or_duplicate_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("x", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("x", buckets=())

    def test_as_dict_is_json_native(self):
        h = Histogram("x", buckets=(1.0,))
        h.observe(0.5)
        doc = json.loads(json.dumps(h.as_dict()))
        assert doc["counts"] == [1, 0]
        assert doc["sum"] == 0.5


class TestRegistry:
    def test_create_on_first_use_returns_same_instrument(self):
        m = MetricsRegistry()
        assert m.counter("a") is m.counter("a")
        assert m.gauge("b") is m.gauge("b")
        assert m.histogram("c") is m.histogram("c")

    def test_helpers_and_value(self):
        m = MetricsRegistry()
        m.inc("a", 2)
        m.set_gauge("b", 7)
        m.observe("c", 0.5)
        assert m.value("a") == 2.0
        assert m.value("b") == 7.0
        assert m.value("missing") == 0.0
        assert m.names() == ["a", "b", "c"]

    def test_snapshot_sorted_and_json_serializable(self):
        m = MetricsRegistry()
        m.inc("z")
        m.inc("a")
        m.profile("wall", 0.1)
        snap = m.snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["profile"] == {"wall": 0.1}
        json.dumps(snap)  # must not raise

    def test_profile_separate_from_instruments(self):
        m = MetricsRegistry()
        m.profile("wall", 1.0)
        assert m.names() == []
        assert m.value("wall") == 0.0


def _fed(kind, **data):
    """A fresh registry after the collector consumed one synthetic record."""
    registry = MetricsRegistry()
    collector = MetricsCollector(registry)
    collector.on_record(TraceRecord(1.0, kind, data))
    return registry


#: (record kind, payload) -> exactly these (metric, value) moves.
COLLECTOR_CASES = [
    ("task.stage", {"task": "t", "device": "d"},
     {"tasks.dispatched": 1.0}),
    ("task.finish", {"task": "t", "device": "d", "duration": 2.0,
                     "energy_j": 5.0},
     {"tasks.completed": 1.0, "energy.joules": 5.0, "task.duration_s": 2.0}),
    ("task.dead", {"task": "t"}, {"tasks.dead": 1.0}),
    ("task.regenerate", {"task": "t"}, {"tasks.regenerated": 1.0}),
    ("task.preempt", {"task": "t", "device": "d", "energy_j": 3.0},
     {"tasks.preempted": 1.0, "energy.joules": 3.0}),
    ("fault.task", {"task": "t", "device": "d", "energy_j": 1.5},
     {"faults.task": 1.0, "energy.joules": 1.5}),
    ("fault.device", {"device": "d"}, {"faults.device": 1.0}),
    ("transfer.start", {"file": "f", "src": "n0", "dst": "n1",
                        "size_mb": 8.0},
     {"transfers.count": 1.0, "transfers.mb": 8.0, "transfer.size_mb": 8.0}),
    ("store.evict", {"node": "n0"}, {"store.evictions": 1.0}),
    ("store.overflow", {"node": "n0"}, {"store.overflows": 1.0}),
    ("data.lost", {"file": "f"}, {"data.lost": 1.0}),
    ("archive", {"file": "f"}, {"files.archived": 1.0}),
]


class TestCollectorMapping:
    @pytest.mark.parametrize(
        "kind,payload,expected",
        COLLECTOR_CASES,
        ids=[k for k, _, _ in COLLECTOR_CASES],
    )
    def test_record_moves_exactly_its_metrics(self, kind, payload, expected):
        registry = _fed(kind, **payload)
        # Every expected instrument moved to the expected value...
        snap = registry.snapshot()
        for name, value in expected.items():
            if name in snap["histograms"]:
                hist = snap["histograms"][name]
                assert hist["count"] == 1 and hist["sum"] == value
            else:
                assert registry.value(name) == value, name
        # ...and nothing else was touched (mutation-style exactness).
        assert set(registry.names()) == set(expected)

    def test_unknown_kind_moves_nothing(self):
        assert _fed("dvfs.transition", device="d").names() == []

    def test_zero_energy_not_counted(self):
        registry = _fed("task.finish", task="t", device="d",
                        duration=1.0, energy_j=0.0)
        assert "energy.joules" not in registry.names()


class TestIntegration:
    def _run(self, **kw):
        return run_workflow(
            montage(size=20, seed=3),
            presets.hybrid_cluster(),
            scheduler="heft",
            seed=3,
            noise_cv=0.1,
            **kw,
        )

    def test_instrumented_run_snapshot_consistency(self):
        res = self._run(metrics=True)
        snap = res.metrics
        assert snap is not None and snap["schema"] == SNAPSHOT_SCHEMA
        c = snap["counters"]
        assert c["tasks.completed"] == c["tasks.dispatched"]
        assert c["sim.events"] == float(res.execution.events) > 0
        assert snap["gauges"]["run.makespan"] == pytest.approx(res.makespan)
        n_devices = snap["gauges"]["devices.alive"] + snap["gauges"]["devices.failed"]
        assert snap["histograms"]["device.busy_s"]["count"] == n_devices > 0
        assert snap["histograms"]["device.utilization"]["count"] == n_devices
        # Planning + run wall-time and throughput profile in place.
        assert {"plan.wall_s", "run.wall_s", "sim.events_per_sec"} <= set(
            snap["profile"]
        )
        json.dumps(snap)

    def test_metrics_are_pure_observation(self):
        bare = self._run()
        observed = self._run(metrics=True)
        assert bare.metrics is None
        assert observed.makespan == bare.makespan
        assert len(observed.execution.trace.records) == len(
            bare.execution.trace.records
        )

    def test_instrumented_runs_deterministic(self):
        a, b = self._run(metrics=True).metrics, self._run(metrics=True).metrics
        # Deterministic sections identical; profile is wall-clock and may
        # differ — that is its contract.
        for section in ("counters", "gauges", "histograms"):
            assert a[section] == b[section]

    def test_env_variable_enables_and_explicit_false_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        assert self._run().metrics is not None
        assert self._run(metrics=False).metrics is None


class TestEnvSwitch:
    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("", False), ("no", False),
    ])
    def test_env_metrics(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_METRICS", value)
        assert env_metrics() is expected

    def test_env_metrics_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        assert env_metrics() is False
