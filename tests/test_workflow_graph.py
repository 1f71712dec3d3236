"""Tests for the Workflow DAG container."""

import pytest

from repro.workflows.graph import Workflow
from repro.workflows.task import DataFile, Task, cpu_task


def diamond():
    """a -> (b, c) -> d, with distinct edge sizes."""
    wf = Workflow("diamond")
    wf.add_file(DataFile("in", 1.0, initial=True))
    wf.add_file(DataFile("ab", 10.0))
    wf.add_file(DataFile("ac", 20.0))
    wf.add_file(DataFile("bd", 5.0))
    wf.add_file(DataFile("cd", 5.0))
    wf.add_file(DataFile("out", 1.0))
    wf.add_task(cpu_task("a", 10.0, inputs=("in",), outputs=("ab", "ac")))
    wf.add_task(cpu_task("b", 20.0, inputs=("ab",), outputs=("bd",)))
    wf.add_task(cpu_task("c", 30.0, inputs=("ac",), outputs=("cd",)))
    wf.add_task(cpu_task("d", 40.0, inputs=("bd", "cd"), outputs=("out",)))
    return wf


class TestConstruction:
    def test_duplicate_task_rejected(self):
        wf = diamond()
        with pytest.raises(ValueError):
            wf.add_task(cpu_task("a", 1.0))

    def test_unknown_file_rejected(self):
        wf = Workflow("w")
        with pytest.raises(ValueError):
            wf.add_task(cpu_task("t", 1.0, inputs=("ghost",)))

    def test_double_producer_rejected(self):
        wf = Workflow("w")
        wf.add_file(DataFile("f", 1.0))
        wf.add_task(cpu_task("p1", 1.0, outputs=("f",)))
        with pytest.raises(ValueError):
            wf.add_task(cpu_task("p2", 1.0, outputs=("f",)))

    def test_producing_initial_file_rejected(self):
        wf = Workflow("w")
        wf.add_file(DataFile("f", 1.0, initial=True))
        with pytest.raises(ValueError):
            wf.add_task(cpu_task("p", 1.0, outputs=("f",)))

    def test_refiling_same_file_is_idempotent(self):
        wf = Workflow("w")
        f = DataFile("f", 1.0)
        wf.add_file(f)
        wf.add_file(DataFile("f", 1.0))  # identical: fine
        with pytest.raises(ValueError):
            wf.add_file(DataFile("f", 2.0))  # conflicting: rejected

    def test_control_edge_validation(self):
        wf = diamond()
        wf.add_control_edge("b", "c")
        with pytest.raises(KeyError):
            wf.add_control_edge("a", "ghost")
        with pytest.raises(ValueError):
            wf.add_control_edge("a", "a")


class TestDerivedStructure:
    def test_edges_follow_files(self):
        wf = diamond()
        assert wf.predecessors("d") == ["b", "c"]
        assert wf.successors("a") == ["b", "c"]
        assert wf.n_edges == 4

    def test_edge_data_sizes(self):
        wf = diamond()
        assert wf.edge_data_mb("a", "b") == 10.0
        assert wf.edge_data_mb("a", "c") == 20.0
        assert wf.edge_data_mb("a", "d") == 0.0

    def test_multi_file_edge_sums(self):
        wf = Workflow("w")
        wf.add_file(DataFile("f1", 3.0))
        wf.add_file(DataFile("f2", 4.0))
        wf.add_task(cpu_task("p", 1.0, outputs=("f1", "f2")))
        wf.add_task(cpu_task("c", 1.0, inputs=("f1", "f2")))
        assert wf.edge_data_mb("p", "c") == 7.0

    def test_control_edge_zero_bytes(self):
        wf = diamond()
        wf.add_control_edge("b", "c")
        assert wf.edge_data_mb("b", "c") == 0.0
        assert "b" in wf.predecessors("c")

    def test_entry_and_exit(self):
        wf = diamond()
        assert wf.entry_tasks() == ["a"]
        assert wf.exit_tasks() == ["d"]

    def test_topological_order_valid(self):
        wf = diamond()
        order = wf.topological_order()
        pos = {n: i for i, n in enumerate(order)}
        assert pos["a"] < pos["b"] < pos["d"]
        assert pos["a"] < pos["c"] < pos["d"]

    def test_levels(self):
        wf = diamond()
        assert wf.levels() == [["a"], ["b", "c"], ["d"]]

    def test_producer_and_consumers(self):
        wf = diamond()
        assert wf.producer_of("ab") == "a"
        assert wf.producer_of("in") is None
        assert [t.name for t in wf.tasks.values() if "ab" in t.inputs] == ["b"]

    def test_is_acyclic(self):
        assert diamond().is_acyclic()

    def test_cache_invalidated_on_mutation(self):
        wf = diamond()
        assert wf.n_edges == 4
        wf.add_file(DataFile("extra", 1.0))
        wf.add_task(cpu_task("e", 1.0, inputs=("out",), outputs=("extra",)))
        assert wf.n_edges == 5


class TestAggregates:
    def test_total_work(self):
        assert diamond().total_work() == 100.0

    def test_total_edge_data(self):
        assert diamond().total_edge_data_mb() == 40.0

    def test_critical_path_work(self):
        # a(10) -> c(30) -> d(40) = 80
        assert diamond().critical_path_work() == 80.0

    def test_ccr_scales_with_edge_data(self):
        wf = diamond()
        base = wf.ccr(reference_speed=50.0, reference_bandwidth=1250.0)
        assert base > 0
        # doubling bandwidth halves CCR
        assert wf.ccr(reference_bandwidth=2500.0) == pytest.approx(base / 2)

    def test_ccr_empty_workflow(self):
        assert Workflow("empty").ccr() == 0.0

    def test_categories(self):
        wf = diamond()
        assert wf.categories() == {"generic": 4}

    def test_initial_files(self):
        wf = diamond()
        assert [f.name for f in wf.initial_files()] == ["in"]

    def test_scaled_copies_structure(self):
        wf = diamond()
        big = wf.scaled(2.0)
        assert big.total_work() == 200.0
        assert big.n_edges == wf.n_edges
        assert big.tasks["a"].work == 20.0
        # original untouched
        assert wf.tasks["a"].work == 10.0

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            diamond().scaled(0.0)

    def test_scaled_preserves_control_edges(self):
        wf = diamond()
        wf.add_control_edge("b", "c")
        big = wf.scaled(2.0)
        assert "b" in big.predecessors("c")
