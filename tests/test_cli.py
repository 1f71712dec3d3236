"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheduler_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheduler", "nonesuch"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "hdws" in out
        assert "montage" in out
        assert "t1" in out

    def test_run_basic(self, capsys):
        rc = main(["run", "--workflow", "blast", "--size", "12",
                   "--cluster", "workstation", "--noise", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "success" in out

    def test_run_with_gantt(self, capsys):
        rc = main(["run", "--workflow", "montage", "--size", "15",
                   "--cluster", "workstation", "--gantt", "--noise", "0"])
        assert rc == 0
        assert "#" in capsys.readouterr().out

    def test_run_dynamic_mode(self, capsys):
        rc = main(["run", "--workflow", "montage", "--size", "15",
                   "--mode", "dynamic", "--cluster", "workstation"])
        assert rc == 0

    def test_compare(self, capsys):
        rc = main(["compare", "--workflow", "sipht", "--size", "15",
                   "--schedulers", "heft,minmin", "--cluster", "workstation"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "heft" in out and "minmin" in out

    def test_compare_unknown_scheduler_errors(self, capsys):
        rc = main(["compare", "--schedulers", "heft,zzz"])
        assert rc == 2

    def test_generate_to_stdout(self, capsys):
        rc = main(["generate", "--workflow", "ligo", "--size", "20"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tasks"]

    def test_generate_to_file(self, tmp_path, capsys):
        path = str(tmp_path / "wf.json")
        rc = main(["generate", "--workflow", "montage", "--size", "15",
                   "--output", path])
        assert rc == 0
        with open(path) as fh:
            assert json.load(fh)["tasks"]

    def test_exp_quick(self, capsys):
        rc = main(["exp", "f7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "F7" in out

    def test_ensemble(self, capsys):
        rc = main(["ensemble", "--members", "montage:15,blast:12",
                   "--cluster", "workstation"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shared" in out and "sequential" in out

    def test_ensemble_unknown_member_errors(self, capsys):
        rc = main(["ensemble", "--members", "montage,unicorn"])
        assert rc == 2


class TestLint:
    """``repro-flow lint`` runs the lint module's own flags and entry."""

    def test_exit_codes_and_deep_json_report(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "mod.py").write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", str(clean)]) == 0
        assert "determinism lint: clean" in capsys.readouterr().out

        report = tmp_path / "out" / "findings.json"
        assert main(["lint", str(clean), "--deep", "--json", str(report)]) == 0
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["schema"] == "repro.staticcheck-findings/v1"
        assert doc["counts"]["total"] == 0

        dirty = tmp_path / "dirty"
        dirty.mkdir()
        (dirty / "mod.py").write_text("import time\nnow = time.time()\n",
                                      encoding="utf-8")
        assert main(["lint", str(dirty)]) == 1
        assert "wall-clock" in capsys.readouterr().out
