"""Tests for stats, comparison tables, report formatting and Gantt."""

import pytest

from repro.analysis.compare import ComparisonTable
from repro.analysis.gantt import ascii_gantt
from repro.analysis.report import format_table
from repro.analysis.stats import (
    confidence_interval,
    geometric_mean,
    summarize,
)
from repro.sim.trace import TraceRecorder


class TestStats:
    def test_summarize_basic(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == 2.0
        assert s.minimum == 1.0
        assert s.maximum == 3.0
        assert s.n == 3
        assert s.ci95 > 0

    def test_summarize_single_value(self):
        s = summarize([5.0])
        assert s.std == 0.0
        assert s.ci95 == 0.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_confidence_interval_shrinks_with_n(self):
        narrow = confidence_interval([1.0, 2.0] * 50)
        wide = confidence_interval([1.0, 2.0])
        assert narrow < wide

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_summary_as_dict(self):
        d = summarize([1.0, 2.0]).as_dict()
        assert set(d) == {"n", "mean", "std", "ci95", "min", "max"}


class TestComparisonTable:
    def make(self):
        t = ComparisonTable("wf")
        t.set("m", "heft", 10.0)
        t.set("m", "hdws", 8.0)
        t.set("c", "heft", 20.0)
        t.set("c", "hdws", 10.0)
        return t

    def test_set_get(self):
        t = self.make()
        assert t.get("m", "heft") == 10.0
        assert t.rows == ["m", "c"]
        assert t.columns == ["heft", "hdws"]

    def test_missing_cell_raises(self):
        with pytest.raises(KeyError):
            self.make().get("m", "zzz")

    def test_row_and_column_values(self):
        t = self.make()
        assert t.row_values("m") == {"heft": 10.0, "hdws": 8.0}
        assert t.column_values("hdws") == {"m": 8.0, "c": 10.0}

    def test_normalized(self):
        norm = self.make().normalized("heft")
        assert norm.get("m", "hdws") == pytest.approx(0.8)
        assert norm.get("c", "heft") == 1.0

    def test_normalized_missing_reference_raises(self):
        t = ComparisonTable()
        t.set("r", "a", 1.0)
        with pytest.raises(ValueError):
            t.normalized("b")

    def test_geomean_row(self):
        t = self.make().with_geomean_row()
        assert "geo-mean" in t.rows
        assert t.get("geo-mean", "heft") == pytest.approx(
            geometric_mean([10.0, 20.0])
        )

    def test_best_column_per_row(self):
        winners = self.make().best_column_per_row()
        assert winners == {"m": "hdws", "c": "hdws"}

    def test_render_contains_cells(self):
        text = self.make().render(precision=1)
        assert "heft" in text
        assert "10.0" in text

    def test_render_handles_missing_cells(self):
        t = ComparisonTable()
        t.set("r1", "a", 1.0)
        t.set("r2", "b", 2.0)
        assert "-" in t.render()


class TestFormatTable:
    def test_basic_render(self):
        text = format_table(["name", "value"], [["x", 1.5], ["y", 2.25]])
        lines = text.splitlines()
        assert "name" in lines[0]
        assert "-" in lines[1]
        assert len(lines) == 4

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_large_numbers_scientific(self):
        text = format_table(["v"], [[1.5e9]])
        assert "e+" in text

    def test_nan_rendered_as_dash(self):
        text = format_table(["v"], [[float("nan")]])
        assert "-" in text.splitlines()[-1]

    def test_title_prepended(self):
        text = format_table(["v"], [[1.0]], title="My Table")
        assert text.startswith("My Table")

    def test_bools_rendered(self):
        text = format_table(["ok"], [[True], [False]])
        assert "yes" in text and "no" in text


class TestGantt:
    def test_empty_trace(self):
        assert "empty" in ascii_gantt(TraceRecorder())

    def test_devices_and_bars_rendered(self):
        tr = TraceRecorder()
        tr.record(0.0, "task.start", task="t1", device="d0")
        tr.record(5.0, "task.finish", task="t1", device="d0")
        tr.record(5.0, "task.start", task="t2", device="d1")
        tr.record(10.0, "task.finish", task="t2", device="d1")
        out = ascii_gantt(tr, width=40)
        assert "d0" in out and "d1" in out
        assert "#" in out

    def test_crashed_attempts_appear(self):
        tr = TraceRecorder()
        tr.record(0.0, "task.start", task="t", device="d0")
        tr.record(2.0, "fault.task", task="t", device="d0")
        tr.record(2.0, "task.start", task="t", device="d0")
        tr.record(6.0, "task.finish", task="t", device="d0")
        out = ascii_gantt(tr, width=40)
        assert "d0" in out

    def test_real_run_gantt(self, small_montage, hybrid_cluster):
        from repro import run_workflow

        result = run_workflow(small_montage, hybrid_cluster, seed=1)
        out = ascii_gantt(result.execution.trace)
        assert len(out.splitlines()) >= 2
