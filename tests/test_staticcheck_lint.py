"""Determinism-lint tests.

Mutation self-tests (every lint check must fire on a seeded snippet and
stay silent on the blessed idiom), allowlist behaviour, and the
tree-level guarantee the CI gate relies on: the shipped ``src/repro``
source lints clean.
"""

import os
import textwrap

import numpy as np
import pytest

from repro.staticcheck.lint import (
    DEFAULT_ALLOWLIST,
    lint_paths,
    lint_source,
    load_allowlist,
    main as lint_main,
)
from repro.staticcheck.source import iter_python_files


def run_lint(snippet, allow=()):
    return lint_source(textwrap.dedent(snippet), path="mod.py", allow=allow)


def checks(findings):
    return {f.check for f in findings}


class TestWallClock:
    def test_time_time_fires(self):
        fs = run_lint("""
            import time
            now = time.time()
        """)
        assert checks(fs) == {"wall-clock"}

    def test_datetime_now_fires(self):
        fs = run_lint("""
            from datetime import datetime
            stamp = datetime.now()
        """)
        assert checks(fs) == {"wall-clock"}

    def test_datetime_module_utcnow_fires(self):
        fs = run_lint("""
            import datetime
            stamp = datetime.datetime.utcnow()
        """)
        assert checks(fs) == {"wall-clock"}

    def test_perf_counter_is_allowed(self):
        fs = run_lint("""
            import time
            t0 = time.perf_counter()
        """)
        assert fs == []

    def test_local_variable_named_time_is_not_flagged(self):
        fs = run_lint("""
            def f(time):
                return time()
        """)
        assert fs == []


class TestGlobalRandom:
    def test_np_random_module_call_fires(self):
        fs = run_lint("""
            import numpy as np
            x = np.random.rand(3)
        """)
        assert checks(fs) == {"global-random"}

    def test_stdlib_random_fires(self):
        fs = run_lint("""
            import random
            x = random.random()
        """)
        assert checks(fs) == {"global-random"}

    def test_seeded_generator_draw_is_allowed(self):
        fs = run_lint("""
            import numpy as np
            def f(rng):
                return rng.normal()
        """)
        assert fs == []

    def test_rng_constructors_are_allowed(self):
        fs = run_lint("""
            import numpy as np
            def f(seed):
                seq = np.random.SeedSequence(seed)
                return np.random.Generator(np.random.PCG64(seq))
        """)
        assert fs == []


class TestUnseededRng:
    def test_no_seed_fires(self):
        fs = run_lint("""
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert checks(fs) == {"unseeded-rng"}

    def test_constant_literal_seed_fires(self):
        fs = run_lint("""
            import numpy as np
            rng = np.random.default_rng(0)
        """)
        assert checks(fs) == {"unseeded-rng"}

    def test_threaded_seed_is_allowed(self):
        fs = run_lint("""
            import numpy as np
            def f(seed):
                return np.random.default_rng(seed + 7919)
        """)
        assert fs == []

    def test_from_import_alias_is_resolved(self):
        fs = run_lint("""
            from numpy.random import default_rng
            rng = default_rng()
        """)
        assert checks(fs) == {"unseeded-rng"}


class TestSetIteration:
    def test_for_over_set_literal_fires(self):
        fs = run_lint("""
            for x in {"a", "b"}:
                print(x)
        """)
        assert checks(fs) == {"set-iteration"}

    def test_comprehension_over_set_call_fires(self):
        fs = run_lint("""
            def f(xs):
                return [x for x in set(xs)]
        """)
        assert checks(fs) == {"set-iteration"}

    def test_sorted_set_is_allowed(self):
        fs = run_lint("""
            def f(xs):
                for x in sorted(set(xs)):
                    print(x)
        """)
        assert fs == []


class TestDictMutation:
    def test_subscript_assign_during_iteration_fires(self):
        fs = run_lint("""
            def f(d):
                for k in d:
                    d[k + 1] = 0
        """)
        assert checks(fs) == {"dict-mutation-in-loop"}

    def test_pop_during_items_iteration_fires(self):
        fs = run_lint("""
            def f(d):
                for k, v in d.items():
                    d.pop(k)
        """)
        assert checks(fs) == {"dict-mutation-in-loop"}

    def test_del_during_iteration_fires(self):
        fs = run_lint("""
            def f(d):
                for k in d.keys():
                    del d[k]
        """)
        assert checks(fs) == {"dict-mutation-in-loop"}

    def test_list_snapshot_is_allowed(self):
        fs = run_lint("""
            def f(d):
                for k in list(d):
                    del d[k]
        """)
        assert fs == []

    def test_mutating_a_different_dict_is_allowed(self):
        fs = run_lint("""
            def f(d, out):
                for k in d:
                    out[k] = d[k]
        """)
        assert fs == []


class TestAmbientEntropy:
    def test_os_urandom_fires(self):
        fs = run_lint("""
            import os
            token = os.urandom(16)
        """)
        assert checks(fs) == {"ambient-entropy"}

    def test_uuid4_fires(self):
        fs = run_lint("""
            import uuid
            run_id = uuid.uuid4()
        """)
        assert checks(fs) == {"ambient-entropy"}

    def test_secrets_fires(self):
        fs = run_lint("""
            import secrets
            tag = secrets.token_hex(8)
        """)
        assert checks(fs) == {"ambient-entropy"}

    def test_seed_derived_id_is_clean(self):
        fs = run_lint("""
            import hashlib
            def run_id(seed):
                return hashlib.sha256(str(seed).encode()).hexdigest()[:12]
        """)
        assert fs == []

    def test_time_ns_is_wall_clock(self):
        fs = run_lint("""
            import time
            stamp = time.time_ns()
        """)
        assert checks(fs) == {"wall-clock"}


class TestHashOrdering:
    def test_sorted_key_hash_fires(self):
        fs = run_lint("""
            def stable(names):
                return sorted(names, key=hash)
        """)
        assert checks(fs) == {"hash-ordering"}

    def test_lambda_wrapping_hash_fires(self):
        fs = run_lint("""
            def stable(pairs):
                return sorted(pairs, key=lambda p: hash(p[0]))
        """)
        assert checks(fs) == {"hash-ordering"}

    def test_min_key_hash_fires(self):
        fs = run_lint("""
            def pick(names):
                return min(names, key=hash)
        """)
        assert checks(fs) == {"hash-ordering"}

    def test_value_key_is_clean(self):
        fs = run_lint("""
            def stable(pairs):
                return sorted(pairs, key=lambda p: p[0])
        """)
        assert fs == []


class TestFsOrdering:
    def test_for_loop_over_listdir_fires(self):
        fs = run_lint("""
            import os
            def names(d):
                out = []
                for name in os.listdir(d):
                    out.append(name)
                return out
        """)
        assert checks(fs) == {"fs-ordering"}

    def test_comprehension_over_glob_fires(self):
        fs = run_lint("""
            import glob
            def shards(d):
                return [p for p in glob.glob(d + "/*.jsonl")]
        """)
        assert checks(fs) == {"fs-ordering"}

    def test_sorted_listing_is_clean(self):
        fs = run_lint("""
            import os
            def names(d):
                return [n for n in sorted(os.listdir(d))]
        """)
        assert fs == []

    def test_order_insensitive_reduction_is_clean(self):
        fs = run_lint("""
            import os
            def count(d):
                return sum(1 for f in os.listdir(d) if f.endswith(".json"))
        """)
        assert fs == []


class TestAllowlist:
    def test_allow_entry_suppresses_matching_check(self):
        snippet = """
            import time
            now = time.time()
        """
        assert run_lint(snippet, allow=[("mod.py", "wall-clock", None)]) == []
        # Wrong check id does not suppress.
        assert run_lint(
            snippet, allow=[("mod.py", "global-random", None)]
        ) != []
        # Non-matching path does not suppress.
        assert run_lint(snippet, allow=[("other.py", "wall-clock", None)]) != []

    def test_load_allowlist_parses_and_rejects(self, tmp_path):
        good = tmp_path / "allow.txt"
        good.write_text(
            "# comment\n"
            "src/foo.py::wall-clock  # trailing comment\n"
            "\n"
            "bar::set-iteration\n"
            "src/baz.py::worker-global-mutation::_memo  # sited entry\n",
            encoding="utf-8",
        )
        assert load_allowlist(str(good)) == [
            ("src/foo.py", "wall-clock", None),
            ("bar", "set-iteration", None),
            ("src/baz.py", "worker-global-mutation", "_memo"),
        ]
        bad = tmp_path / "bad.txt"
        bad.write_text("no-separator-here\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_allowlist(str(bad))

    def test_sited_entry_suppresses_only_its_site(self):
        snippet = """
            import time
            now = time.time()
        """
        # Site substring present in the message -> suppressed.
        assert run_lint(
            snippet, allow=[("mod.py", "wall-clock", "time.time")]
        ) == []
        # Site substring matching the location line also suppresses.
        assert run_lint(
            snippet, allow=[("mod.py", "wall-clock", "mod.py:3")]
        ) == []
        # Non-matching site leaves the finding alone.
        assert run_lint(
            snippet, allow=[("mod.py", "wall-clock", "monotonic")]
        ) != []

    def test_allow_match_records_used_entries(self):
        from repro.staticcheck.lint import allow_match

        used = set()
        assert allow_match(
            [("mod.py", "wall-clock", None)], "mod.py", "wall-clock",
            used=used,
        )
        assert used == {("mod.py", "wall-clock", None)}


class TestStaleAllowlist:
    def test_stale_entry_fails_and_prune_fixes(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("import time\nnow = time.time()\n",
                          encoding="utf-8")
        allowfile = tmp_path / "allow.txt"
        allowfile.write_text(
            "mod.py::wall-clock  # live\n"
            "mod.py::set-iteration  # stale: nothing to suppress\n",
            encoding="utf-8",
        )
        rc = lint_main([str(target), "--allowlist", str(allowfile)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "stale allowlist entry" in out
        assert "--prune" in out
        # --prune rewrites the file and the run goes green.
        rc = lint_main([str(target), "--allowlist", str(allowfile),
                        "--prune"])
        assert rc == 0
        kept = allowfile.read_text(encoding="utf-8")
        assert "wall-clock" in kept and "set-iteration" not in kept

    def test_out_of_scope_entries_are_not_stale(self, tmp_path):
        # An entry whose path matches no linted file is neither live nor
        # stale — the packaged allowlist must not trip runs on tmp trees.
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n", encoding="utf-8")
        allowfile = tmp_path / "allow.txt"
        allowfile.write_text("src/repro/observe/clock.py::wall-clock\n",
                             encoding="utf-8")
        assert lint_main([str(target), "--allowlist", str(allowfile)]) == 0

    def test_deep_check_entries_need_deep_run_to_go_stale(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n", encoding="utf-8")
        allowfile = tmp_path / "allow.txt"
        allowfile.write_text("mod.py::taint-flow\n", encoding="utf-8")
        # Shallow run: taint-flow never ran, entry is out of scope.
        assert lint_main([str(target), "--allowlist", str(allowfile)]) == 0
        # Deep run: the check ran, suppressed nothing -> stale.
        assert lint_main([str(target), "--allowlist", str(allowfile),
                          "--deep"]) == 1


class TestFrontEnd:
    """The lint and the deep pass read one parse and one alias table."""

    def test_deep_run_parses_each_file_once(self, tmp_path, monkeypatch):
        import ast

        (tmp_path / "a.py").write_text("def f():\n    return 1\n",
                                       encoding="utf-8")
        (tmp_path / "b.py").write_text(
            "from a import f\ndef g():\n    return f()\n", encoding="utf-8"
        )
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(os.path.basename(str(filename)))
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        assert lint_main([str(tmp_path), "--deep",
                          "--allowlist", os.devnull]) == 0
        assert sorted(parsed) == ["a.py", "b.py"]

    def test_deep_run_walks_each_function_body_once(self, monkeypatch):
        import repro
        from repro.staticcheck import (
            callgraph,
            concurrency,
            flow,
            pickle_safety,
        )

        walks = {}
        real_walk = callgraph.local_nodes

        def counting_walk(root):
            walks[id(root)] = walks.get(id(root), 0) + 1
            return real_walk(root)

        # Every pass that could walk a body by itself, not just the graph.
        for module in (callgraph, concurrency, flow, pickle_safety):
            if hasattr(module, "local_nodes"):
                monkeypatch.setattr(module, "local_nodes", counting_walk)
        graphs = []
        real_graph_of = callgraph.graph_of

        def recording_graph_of(modules):
            graphs.append(real_graph_of(modules))
            return graphs[-1]

        monkeypatch.setattr(callgraph, "graph_of", recording_graph_of)
        src = os.path.dirname(os.path.abspath(repro.__file__))
        assert lint_main([src, "--deep"]) == 0
        (graph,) = graphs
        functions = {id(info.node) for info in graph.functions.values()}
        assert functions <= set(walks)
        assert set(walks.values()) == {1}

    def test_lint_and_deep_pass_resolve_the_same_imports(self, tmp_path):
        from repro.staticcheck.callgraph import build_callgraph
        from repro.staticcheck.flow import check_flow

        # Python refuses both relative imports (no parent package; beyond
        # the top-level package), so neither pass may read the stdlib
        # clock into them.
        root = tmp_path / "m.py"
        root.write_text(
            "from .time import time\n"
            "def execute_sim():\n"
            "    return time()\n",
            encoding="utf-8",
        )
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__init__.py").write_text("", encoding="utf-8")
        (tmp_path / "pkg" / "mod.py").write_text(
            "from ..time import time\n"
            "def execute_sim():\n"
            "    return time()\n",
            encoding="utf-8",
        )
        assert lint_paths([str(tmp_path)]) == []
        graph = build_callgraph([str(tmp_path)])
        assert check_flow(
            graph, roots=["m.execute_sim", "pkg.mod.execute_sim"]
        ) == []


class TestExports:
    def findings(self):
        return lint_source(
            "import time\nnow = time.time()\n", path="src/mod.py"
        )

    def test_json_export_schema(self):
        from repro.staticcheck.findings import findings_to_json

        doc = findings_to_json(self.findings())
        assert doc["schema"] == "repro.staticcheck-findings/v1"
        assert doc["counts"] == {"error": 1, "warning": 0, "total": 1}
        assert doc["findings"][0]["check"] == "wall-clock"
        assert doc["findings"][0]["location"] == "src/mod.py:2"

    def test_sarif_export_shape(self):
        from repro.staticcheck.findings import findings_to_sarif

        doc = findings_to_sarif(self.findings())
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-staticcheck"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
            "wall-clock"
        ]
        result = run["results"][0]
        assert result["ruleId"] == "wall-clock"
        assert result["level"] == "error"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/mod.py"
        assert loc["region"]["startLine"] == 2

    def test_summary_table_shows_zero_rows(self):
        from repro.staticcheck.findings import summary_table

        table = summary_table(self.findings(),
                              checks=["wall-clock", "taint-flow"])
        lines = table.splitlines()
        assert any("wall-clock" in l and " 1" in l for l in lines)
        assert any("taint-flow" in l and " 0" in l for l in lines)

    def test_cli_writes_both_reports(self, tmp_path):
        import json

        target = tmp_path / "mod.py"
        target.write_text("import time\nnow = time.time()\n",
                          encoding="utf-8")
        json_out = tmp_path / "out" / "findings.json"
        sarif_out = tmp_path / "out" / "findings.sarif"
        rc = lint_main([str(target), "--json", str(json_out),
                        "--sarif", str(sarif_out)])
        assert rc == 1
        assert json.loads(json_out.read_text())["counts"]["error"] == 1
        sarif = json.loads(sarif_out.read_text())
        assert sarif["runs"][0]["results"][0]["ruleId"] == "wall-clock"


class TestTreeLint:
    def repro_src(self):
        import repro

        return os.path.dirname(os.path.abspath(repro.__file__))

    def test_src_repro_lints_clean(self):
        findings = lint_paths([self.repro_src()],
                              allow=load_allowlist(DEFAULT_ALLOWLIST))
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_iter_python_files_expands_and_dedups(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.py").write_text("y = 2\n", encoding="utf-8")
        (tmp_path / "sub" / "c.txt").write_text("no\n", encoding="utf-8")
        files = iter_python_files([str(tmp_path), str(tmp_path / "a.py")])
        assert [os.path.basename(f) for f in files] == ["a.py", "b.py"]

    def test_lint_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nnow = time.time()\n", encoding="utf-8")
        assert lint_main([str(dirty)]) == 1
        assert "wall-clock" in capsys.readouterr().out


class TestRngThreading:
    """Satellite of the lint fix: estimate error now requires a caller rng."""

    def test_context_requires_rng_for_estimate_error(
        self, small_montage, hybrid_cluster
    ):
        from repro.schedulers.base import SchedulingContext

        with pytest.raises(ValueError, match="caller-supplied rng"):
            SchedulingContext(small_montage, hybrid_cluster,
                              estimate_error_cv=0.5)

    def test_context_accepts_threaded_rng(self, small_montage, hybrid_cluster):
        from repro.schedulers.base import SchedulingContext

        ctx = SchedulingContext(small_montage, hybrid_cluster,
                                estimate_error_cv=0.5,
                                rng=np.random.default_rng(11))
        assert ctx.workflow is small_montage
