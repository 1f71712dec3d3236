"""Concurrency/lifecycle hazard checker tests (mutation style).

worker-global-mutation, generator-pool-cleanup and unclassified-raise
each get seeded violations and blessed idioms; the deep pass classifies
raise sites from the runtime's own ``FAILURE_TAXONOMY``.
"""

import os
import textwrap

from repro.staticcheck.callgraph import build_callgraph
from repro.staticcheck.concurrency import (
    check_concurrency,
    check_generator_cleanup,
    check_thread_mutation,
    check_unclassified_raises,
    check_worker_mutation,
    classify_static,
)
from repro.staticcheck.lint import DEFAULT_ALLOWLIST, load_allowlist


def graph_for(tmp_path, files):
    paths = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        paths.append(str(path))
    return build_callgraph(paths)


def checks(findings):
    return {f.check for f in findings}


class TestWorkerMutation:
    def test_global_rebind_fires(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            _COUNT = 0
            def execute_payload(p):
                global _COUNT
                _COUNT = _COUNT + 1
        """})
        fs = check_worker_mutation(g, worker_roots=["m.execute_payload"])
        assert checks(fs) == {"worker-global-mutation"}

    def test_container_mutation_fires(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            _SEEN = {}
            def record(key):
                _SEEN[key] = True
            def execute_payload(p):
                record(p)
        """})
        fs = check_worker_mutation(g, worker_roots=["m.execute_payload"])
        assert checks(fs) == {"worker-global-mutation"}

    def test_mutator_method_fires(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            _LOG = []
            def execute_payload(p):
                _LOG.append(p)
        """})
        fs = check_worker_mutation(g, worker_roots=["m.execute_payload"])
        assert checks(fs) == {"worker-global-mutation"}

    def test_class_attribute_store_fires(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            class Config:
                limit = 4
            def execute_payload(p):
                Config.limit = p
        """})
        fs = check_worker_mutation(g, worker_roots=["m.execute_payload"])
        assert checks(fs) == {"worker-global-mutation"}

    def test_local_shadow_is_clean(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            _SEEN = {}
            def execute_payload(p):
                _SEEN = {}
                _SEEN[p] = True
                return _SEEN
        """})
        assert check_worker_mutation(
            g, worker_roots=["m.execute_payload"]
        ) == []

    def test_read_only_access_is_clean(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            _LIMITS = {"mem": 4}
            def execute_payload(p):
                return _LIMITS.get(p)
        """})
        assert check_worker_mutation(
            g, worker_roots=["m.execute_payload"]
        ) == []

    def test_parent_side_mutation_is_not_flagged(self, tmp_path):
        # Mutation outside the worker-reachable cone is out of scope.
        g = graph_for(tmp_path, {"m.py": """
            _STATS = {}
            def parent_only(k):
                _STATS[k] = 1
            def execute_payload(p):
                return p
        """})
        assert check_worker_mutation(
            g, worker_roots=["m.execute_payload"]
        ) == []


class TestThreadMutation:
    def test_unlocked_global_mutation_fires(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            _SEQ = 0
            def do_GET(self):
                global _SEQ
                _SEQ = _SEQ + 1
        """})
        fs = check_thread_mutation(g, thread_roots=["m.do_GET"])
        assert checks(fs) == {"thread-shared-mutation"}

    def test_transitive_container_mutation_fires(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            _CACHE = {}
            def remember(k):
                _CACHE[k] = True
            def do_POST(self):
                remember(self)
        """})
        fs = check_thread_mutation(g, thread_roots=["m.do_POST"])
        assert checks(fs) == {"thread-shared-mutation"}

    def test_lock_guarded_mutation_is_clean(self, tmp_path):
        # Naming the guard in the `with` is the accepted static proof.
        g = graph_for(tmp_path, {"m.py": """
            import threading
            _SEQ = 0
            _lock = threading.Lock()
            def do_GET(self):
                global _SEQ
                with _lock:
                    _SEQ = _SEQ + 1
        """})
        assert check_thread_mutation(g, thread_roots=["m.do_GET"]) == []

    def test_self_lock_attribute_guard_is_clean(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            _LOG = []
            def do_GET(self):
                with self._lock:
                    _LOG.append(1)
        """})
        assert check_thread_mutation(g, thread_roots=["m.do_GET"]) == []

    def test_unrelated_with_block_still_fires(self, tmp_path):
        # A `with` that is not a lock (e.g. a file) is no guard.
        g = graph_for(tmp_path, {"m.py": """
            _LOG = []
            def do_GET(self):
                with open("x") as fh:
                    _LOG.append(fh)
        """})
        fs = check_thread_mutation(g, thread_roots=["m.do_GET"])
        assert checks(fs) == {"thread-shared-mutation"}

    def test_non_thread_code_is_out_of_scope(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            _STATS = {}
            def parent_only(k):
                _STATS[k] = 1
            def do_GET(self):
                return 1
        """})
        assert check_thread_mutation(g, thread_roots=["m.do_GET"]) == []

    def test_shipped_default_roots_resolve(self):
        # The packaged service handlers/worker/store surface must stay
        # resolvable, or the check silently loses its real targets.
        import repro
        from repro.staticcheck.concurrency import default_thread_roots

        src = os.path.dirname(os.path.abspath(repro.__file__))
        g = build_callgraph([src])
        roots = default_thread_roots(g)
        assert "repro.service.api.ServiceHandler.do_GET" in roots
        assert "repro.service.worker.ServiceWorker.run" in roots
        assert "repro.service.store.JobStore.submit" in roots

    def test_hashing_memos_are_deliberately_allowlisted(self):
        # Without the allowlist the memo stores ARE flagged from the
        # store's submit path — the waiver is live, not stale.
        import repro

        src = os.path.dirname(os.path.abspath(repro.__file__))
        g = build_callgraph([src])
        findings = check_thread_mutation(g)
        blob = "\n".join(f.message for f in findings)
        assert "_part_json_memo" in blob and "_str_json_memo" in blob


class TestGeneratorCleanup:
    def test_unguarded_dispatching_generator_fires(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            def stream(pool, items):
                for rec in pool.imap_unordered(str, items):
                    yield rec
        """})
        fs = check_generator_cleanup(g)
        assert checks(fs) == {"generator-pool-cleanup"}

    def test_transitive_dispatch_fires(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            def submit(pool, items):
                return pool.imap_unordered(str, items)
            def stream(pool, items):
                for rec in submit(pool, items):
                    yield rec
        """})
        fs = check_generator_cleanup(g)
        assert checks(fs) == {"generator-pool-cleanup"}

    def test_try_finally_is_clean(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            def stream(pool, items):
                it = pool.imap_unordered(str, items)
                try:
                    for rec in it:
                        yield rec
                finally:
                    for _ in it:
                        pass
        """})
        assert check_generator_cleanup(g) == []

    def test_with_closing_is_clean(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            from contextlib import closing
            def stream(pool, items):
                with closing(pool.imap_unordered(str, items)) as it:
                    for rec in it:
                        yield rec
        """})
        assert check_generator_cleanup(g) == []

    def test_non_generator_dispatcher_is_clean(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            def run_all(pool, items):
                return list(pool.map(str, items))
        """})
        assert check_generator_cleanup(g) == []


class TestUnclassifiedRaise:
    def test_bare_exception_fires(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            def execute_payload(p):
                if p is None:
                    raise Exception("bad cell")
        """})
        fs = check_unclassified_raises(g, worker_roots=["m.execute_payload"])
        assert checks(fs) == {"unclassified-raise"}

    def test_unknown_custom_class_fires(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            class WeirdFailure(Exception):
                pass
            def execute_payload(p):
                raise WeirdFailure(p)
        """})
        fs = check_unclassified_raises(g, worker_roots=["m.execute_payload"])
        assert checks(fs) == {"unclassified-raise"}

    def test_classified_builtin_is_clean(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            def execute_payload(p):
                if p < 0:
                    raise ValueError("negative seed")
                if p > 100:
                    raise TimeoutError("cell overran")
        """})
        assert check_unclassified_raises(
            g, worker_roots=["m.execute_payload"]
        ) == []

    def test_custom_class_with_classified_base_is_clean(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            class CellError(RuntimeError):
                pass
            class DeepError(CellError):
                pass
            def execute_payload(p):
                raise DeepError(p)
        """})
        assert check_unclassified_raises(
            g, worker_roots=["m.execute_payload"]
        ) == []

    def test_transient_marker_by_name_is_clean(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            class TransientCellError(Exception):
                pass
            def execute_payload(p):
                raise TransientCellError(p)
        """})
        assert check_unclassified_raises(
            g, worker_roots=["m.execute_payload"]
        ) == []

    def test_reraise_of_caught_object_is_skipped(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            def execute_payload(p):
                try:
                    return p()
                except ValueError as exc:
                    raise exc
        """})
        assert check_unclassified_raises(
            g, worker_roots=["m.execute_payload"]
        ) == []

    def test_parent_side_raise_is_not_flagged(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            def parent_only():
                raise Exception("not worker-reachable")
            def execute_payload(p):
                return p
        """})
        assert check_unclassified_raises(
            g, worker_roots=["m.execute_payload"]
        ) == []


class TestTaxonomyMirror:
    def test_static_table_matches_live_classifier(self, tmp_path):
        """The deep pass reads the live classifier's own table, and its
        base-chain walk places a marker subclass where the runtime's MRO
        walk does."""
        from repro.runner.health import (
            FAILURE_TAXONOMY,
            TransientCellError,
            classify_exception,
        )
        from repro.staticcheck import concurrency

        assert concurrency.FAILURE_TAXONOMY is FAILURE_TAXONOMY

        class Flaky(TransientCellError):
            pass

        g = graph_for(tmp_path, {"m.py": """
            from repro.runner.health import TransientCellError
            class Flaky(TransientCellError):
                pass
        """})
        assert classify_static(g, "m.Flaky") == classify_exception(
            Flaky("probe")
        ) == "transient"

    def test_classify_static_walks_base_chain(self, tmp_path):
        g = graph_for(tmp_path, {"m.py": """
            class A(ValueError):
                pass
            class B(A):
                pass
        """})
        assert classify_static(g, "m.B") == "permanent"
        assert classify_static(g, "m.A") == "permanent"
        assert classify_static(g, "NoSuchError") is None
        assert classify_static(g, "Exception") is None


class TestShippedWorkerCodeIsClean:
    def test_src_repro_concurrency_clean_under_allowlist(self):
        import repro

        src = os.path.dirname(os.path.abspath(repro.__file__))
        g = build_callgraph([src])
        allow = load_allowlist(DEFAULT_ALLOWLIST)
        findings = check_concurrency(g, allow=allow)
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_workflow_memo_is_deliberately_allowlisted(self):
        # Without the allowlist the memo mutation IS flagged — proving
        # the check sees it and the entry is a live, deliberate waiver.
        import repro

        src = os.path.dirname(os.path.abspath(repro.__file__))
        g = build_callgraph([src])
        findings = check_worker_mutation(g)
        assert "_workflow_memo" in "\n".join(f.message for f in findings)
