"""Call-graph substrate tests.

The whole-program passes are only as good as the edges underneath them,
so each resolution rule gets its own positive test, and the dynamic
constructs the graph deliberately refuses to resolve get negative ones
(under-approximation: no invented edges).  The tree-level test pins the
graph to the real package: the campaign roots must keep reaching the
worker internals, or the deep passes silently check nothing.
"""

import os
import textwrap

import pytest

from repro.staticcheck.callgraph import build_callgraph, local_nodes
from repro.staticcheck.source import module_name_for


def make_tree(tmp_path, files):
    """Write ``{relpath: source}`` files and return their paths."""
    paths = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        paths.append(str(path))
    return paths


def graph_for(tmp_path, files):
    return build_callgraph(make_tree(tmp_path, files))


class TestModuleNaming:
    def test_package_files_get_dotted_names(self, tmp_path):
        make_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/sub/__init__.py": "",
            "pkg/sub/mod.py": "x = 1\n",
        })
        assert module_name_for(str(tmp_path / "pkg/sub/mod.py")) == "pkg.sub.mod"
        assert module_name_for(str(tmp_path / "pkg/sub/__init__.py")) == "pkg.sub"

    def test_bare_file_uses_stem(self, tmp_path):
        make_tree(tmp_path, {"solo.py": "x = 1\n"})
        assert module_name_for(str(tmp_path / "solo.py")) == "solo"


class TestLocalNodes:
    def test_nested_bodies_are_excluded(self):
        import ast

        tree = ast.parse(textwrap.dedent("""
            def outer():
                a = 1
                def inner():
                    b = 2
                return a
        """))
        outer = tree.body[0]
        names = [n.id for n in local_nodes(outer) if isinstance(n, ast.Name)]
        assert "a" in names and "b" not in names
        # The inner def statement itself is still visible.
        assert any(
            isinstance(n, ast.FunctionDef) and n.name == "inner"
            for n in local_nodes(outer)
        )


class TestEdgeResolution:
    def test_same_module_call(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            def helper():
                pass
            def top():
                helper()
        """})
        assert "m.helper" in g.callees("m.top")

    def test_import_alias_call(self, tmp_path):
        g = graph_for(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/util.py": """
                def work():
                    pass
            """,
            "pkg/main.py": """
                from pkg.util import work
                def go():
                    work()
            """,
        })
        assert "pkg.util.work" in g.callees("pkg.main.go")

    def test_relative_import_call(self, tmp_path):
        g = graph_for(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/util.py": """
                def work():
                    pass
            """,
            "pkg/main.py": """
                from .util import work
                def go():
                    work()
            """,
        })
        assert "pkg.util.work" in g.callees("pkg.main.go")

    def test_self_method_resolves_through_bases(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            class Base:
                def step(self):
                    pass
            class Child(Base):
                def run(self):
                    self.step()
        """})
        assert "m.Base.step" in g.callees("m.Child.run")

    def test_local_instance_method_call(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            class Worker:
                def go(self):
                    pass
            def drive():
                w = Worker()
                w.go()
        """})
        assert "m.Worker.go" in g.callees("m.drive")

    def test_constructor_adds_init_edge(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            class Worker:
                def __init__(self):
                    pass
            def drive():
                Worker()
        """})
        assert "m.Worker.__init__" in g.callees("m.drive")

    def test_nested_def_call(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            def outer():
                def inner():
                    pass
                inner()
        """})
        assert "m.outer.inner" in g.callees("m.outer")

    def test_unparsable_file_fails_the_build(self, tmp_path):
        # A file the graph cannot see would silently drop its edges.
        make_tree(tmp_path, {"ok.py": "x = 1\n", "bad.py": "def broken(:\n"})
        with pytest.raises(SyntaxError):
            build_callgraph([str(tmp_path)])

    def test_two_files_with_one_module_name_fail_the_build(self, tmp_path):
        # Keyed by name, the second m.py would take the first one's
        # findings (its pickle-lambda was reported at b/m.py).
        make_tree(tmp_path, {
            "a/m.py": "def payload(x):\n    return {'fn': lambda: x}\n",
            "b/m.py": "def unrelated():\n    return 1\n",
        })
        from repro.staticcheck.lint import main as lint_main

        paths = [str(tmp_path / "a"), str(tmp_path / "b")]
        with pytest.raises(ValueError) as excinfo:
            lint_main(paths + ["--deep", "--allowlist", "/dev/null"])
        message = str(excinfo.value)
        assert "a/m.py" in message and "b/m.py" in message
        # Each file alone is one module: the lambda is reported where it is.
        assert lint_main(paths[:1] + ["--deep", "--allowlist", "/dev/null"]) == 1

    def test_unknown_receiver_makes_no_edge(self, tmp_path):
        # ``payload.get(...)`` must NOT resolve to some unrelated ``get``.
        g = graph_for(tmp_path, {"m.py": """
            def get():
                pass
            def use(payload):
                payload.get("k")
        """})
        assert g.callees("m.use") == []
        assert ("get", 5) in g.unresolved["m.use"]


class TestQueries:
    def test_reachable_is_transitive(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            def c():
                pass
            def b():
                c()
            def a():
                b()
        """})
        assert g.reachable(["m.a"]) == {"m.a", "m.b", "m.c"}

    def test_call_chain_is_shortest(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            def sink():
                pass
            def long1():
                long2()
            def long2():
                sink()
            def a():
                long1()
                sink()
        """})
        assert g.call_chain("m.a", {"m.sink"}) == ["m.a", "m.sink"]

    def test_generator_flag(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            def gen():
                yield 1
            def plain():
                return [x for x in (1, 2)]
        """})
        assert g.functions["m.gen"].is_generator
        assert not g.functions["m.plain"].is_generator


class TestRealTree:
    def test_campaign_roots_reach_worker_internals(self):
        import repro

        src = os.path.dirname(os.path.abspath(repro.__file__))
        g = build_callgraph([src])
        # The graph is substantive, not a stub.
        assert len(g.functions) > 300
        assert sum(len(v) for v in g.edges.values()) > 500
        reach = g.reachable(["repro.runner.pool.CampaignRunner.run_batches"])
        assert "repro.runner.jobs.execute_payload" in reach
        assert "repro.runner.jobs._workflow_for" in reach
