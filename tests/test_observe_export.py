"""Exporters: Chrome trace round-trip, CLI artifact flags."""

import json

from repro.cli import main
from repro.core.api import run_workflow
from repro.observe import Span, chrome_trace, spans_from_trace, write_json
from repro.platform import presets
from repro.workflows.generators import montage


def _spans():
    return [
        Span(sid=0, name="task a", track="dev0", start=0.0, end=2.0,
             attrs={"outcome": "done"}),
        Span(sid=1, name="exec", track="dev0", start=0.5, end=2.0, parent=0),
        Span(sid=2, name="task b", track="dev1", start=1.0, end=3.0),
        Span(sid=3, name="fault.device", track="dev1", start=2.5, end=2.5),
    ]


def _real_spans():
    result = run_workflow(
        montage(size=25, seed=5), presets.hybrid_cluster(),
        scheduler="heft", seed=5, noise_cv=0.1,
    )
    return spans_from_trace(result.execution.trace)


class TestChromeTrace:
    def test_round_trip_valid_json(self):
        doc = chrome_trace(_spans(), metadata={"scheduler": "heft"})
        parsed = json.loads(json.dumps(doc))
        assert parsed["displayTimeUnit"] == "ms"
        assert parsed["metadata"] == {"scheduler": "heft"}
        events = parsed["traceEvents"]
        assert all("ph" in e and "pid" in e for e in events)

    def test_metadata_events_name_process_and_tracks(self):
        events = chrome_trace(_spans(), process_name="proc")["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {"name": "proc"} in [e["args"] for e in meta]
        thread_names = {
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        assert thread_names == {"dev0", "dev1"}

    def test_complete_events_microseconds_and_parent(self):
        events = chrome_trace(_spans())["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        child = next(e for e in xs if e["name"] == "exec")
        assert child["ts"] == 0.5e6 and child["dur"] == 1.5e6
        assert child["args"]["parent"] == 0
        point = next(e for e in xs if e["name"] == "fault.device")
        assert point["dur"] == 0.0

    def _assert_monotone_per_tid(self, events):
        last = {}
        for e in events:
            if e["ph"] != "X":
                continue
            assert e["ts"] >= last.get(e["tid"], float("-inf"))
            last[e["tid"]] = e["ts"]
        assert last, "no complete events"

    def test_ts_monotone_per_tid_synthetic(self):
        self._assert_monotone_per_tid(chrome_trace(_spans())["traceEvents"])

    def test_ts_monotone_per_tid_real_run(self):
        doc = chrome_trace(_real_spans())
        json.dumps(doc)
        self._assert_monotone_per_tid(doc["traceEvents"])


class TestWriteJson:
    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(str(path), {"b": 1, "a": 2})
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": 2, "b": 1}


class TestCliArtifacts:
    def test_run_metrics_and_trace_out(self, tmp_path, capsys):
        mpath = tmp_path / "metrics.json"
        tpath = tmp_path / "trace.json"
        rc = main([
            "run", "--workflow", "montage", "--size", "15",
            "--cluster", "workstation", "--noise", "0",
            "--metrics", "--metrics-out", str(mpath),
            "--trace-out", str(tpath),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tasks.completed" in out
        snap = json.loads(mpath.read_text())
        assert snap["schema"] == "repro.metrics/v1"
        assert snap["counters"]["tasks.completed"] > 0
        trace = json.loads(tpath.read_text())
        kinds = {e["ph"] for e in trace["traceEvents"]}
        assert kinds == {"M", "X"}
        assert trace["metadata"]["workflow"].startswith("montage")

    def test_campaign_artifacts(self, tmp_path, capsys):
        mpath = tmp_path / "campaign-metrics.json"
        tpath = tmp_path / "campaign-trace.json"
        rc = main([
            "exp", "t1", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--metrics-out", str(mpath), "--trace-out", str(tpath),
        ])
        assert rc == 0
        snap = json.loads(mpath.read_text())
        assert snap["schema"] == "repro.campaign-metrics/v1"
        assert "t1" in snap["experiments"]
        trace = json.loads(tpath.read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
