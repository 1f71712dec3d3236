"""The workflow DAG container.

:class:`Workflow` owns tasks and files and derives the dependency structure
from file production/consumption (plus optional explicit control edges).
It provides the structural queries every scheduler needs — topological
order, levels, critical path, communication-to-computation ratio — computed
lazily and cached, with the cache invalidated on mutation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.workflows.task import DataFile, Task


class Workflow:
    """A named DAG of tasks connected by data files.

    Construction is incremental: :meth:`add_file`, :meth:`add_task`,
    :meth:`add_control_edge`.  Structure is derived — an edge u→v exists
    when v consumes a file u produces (carrying that file's bytes), or when
    an explicit control edge was added (carrying zero bytes).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.tasks: Dict[str, Task] = {}
        self.files: Dict[str, DataFile] = {}
        self._producer: Dict[str, str] = {}  # file -> task
        self._control_edges: Set[Tuple[str, str]] = set()
        self._graph_cache: Optional[nx.DiGraph] = None
        # Structural-query memos (schedulers call predecessors/successors
        # and the topological order in their inner loops; sorting every
        # call dominated rank computation before these caches).  The
        # cached lists are shared — callers must not mutate them.
        self._pred_cache: Dict[str, List[str]] = {}
        self._succ_cache: Dict[str, List[str]] = {}
        self._topo_cache: Optional[List[str]] = None
        self._io_cache: Dict[str, tuple] = {}  # see io_sizes
        # Set by validate_workflow after a clean pass; cleared on mutation
        # so repeated runs of the same workflow validate once.
        self._validated_ok = False

    def _invalidate(self) -> None:
        """Drop every derived-structure cache after a mutation."""
        self._graph_cache = None
        self._pred_cache = {}
        self._succ_cache = {}
        self._topo_cache = None
        self._io_cache = {}
        self._validated_ok = False

    # ---------------------------------------------------------------- #
    # construction                                                     #
    # ---------------------------------------------------------------- #

    def add_file(self, file: DataFile) -> DataFile:
        """Register a data file; duplicate names must agree exactly."""
        existing = self.files.get(file.name)
        if existing is not None:
            if existing != file:
                raise ValueError(
                    f"file {file.name!r} already registered with different attributes"
                )
            return existing
        self.files[file.name] = file
        self._invalidate()
        return file

    def add_task(self, task: Task) -> Task:
        """Register a task; every referenced file must be added first."""
        if task.name in self.tasks:
            raise ValueError(f"duplicate task name {task.name!r}")
        for fname in task.inputs + task.outputs:
            if fname not in self.files:
                raise ValueError(
                    f"task {task.name!r} references unknown file {fname!r}"
                )
        for fname in task.outputs:
            if self.files[fname].initial:
                raise ValueError(
                    f"task {task.name!r} claims to produce initial file {fname!r}"
                )
            if fname in self._producer:
                raise ValueError(
                    f"file {fname!r} produced by both "
                    f"{self._producer[fname]!r} and {task.name!r}"
                )
        self.tasks[task.name] = task
        for fname in task.outputs:
            self._producer[fname] = task.name
        self._invalidate()
        return task

    def add_control_edge(self, src: str, dst: str) -> None:
        """Add a zero-byte precedence constraint between two tasks."""
        if src not in self.tasks or dst not in self.tasks:
            raise KeyError(f"control edge {src!r}->{dst!r} references unknown task")
        if src == dst:
            raise ValueError(f"self control edge on {src!r}")
        self._control_edges.add((src, dst))
        self._invalidate()

    # ---------------------------------------------------------------- #
    # derived structure                                                #
    # ---------------------------------------------------------------- #

    def producer_of(self, file_name: str) -> Optional[str]:
        """Name of the task producing ``file_name`` (None for initial files)."""
        return self._producer.get(file_name)

    def graph(self) -> nx.DiGraph:
        """The derived dependency DiGraph (cached until mutation).

        Edge attribute ``data_mb`` is the total bytes v pulls from u's
        outputs (sum over shared files); control edges carry 0.
        """
        if self._graph_cache is not None:
            return self._graph_cache
        g = nx.DiGraph()
        g.add_nodes_from(self.tasks)
        for task in self.tasks.values():
            for fname in task.inputs:
                producer = self._producer.get(fname)
                if producer is None:
                    continue  # initial input, no edge
                size = self.files[fname].size_mb
                if g.has_edge(producer, task.name):
                    g[producer][task.name]["data_mb"] += size
                else:
                    g.add_edge(producer, task.name, data_mb=size)
        for src, dst in self._control_edges:
            if not g.has_edge(src, dst):
                g.add_edge(src, dst, data_mb=0.0)
        self._graph_cache = g
        return g

    def predecessors(self, task_name: str) -> List[str]:
        """Immediate upstream tasks, sorted for determinism (cached)."""
        cached = self._pred_cache.get(task_name)
        if cached is None:
            cached = sorted(self.graph().predecessors(task_name))
            self._pred_cache[task_name] = cached
        return cached

    def successors(self, task_name: str) -> List[str]:
        """Immediate downstream tasks, sorted for determinism (cached)."""
        cached = self._succ_cache.get(task_name)
        if cached is None:
            cached = sorted(self.graph().successors(task_name))
            self._succ_cache[task_name] = cached
        return cached

    def io_sizes(self, task_name: str) -> tuple:
        """``(inputs, outputs)`` of the task as ``(file, size_mb)`` tuples.

        In the task's own file order; cached, so callers must not mutate.
        """
        cached = self._io_cache.get(task_name)
        if cached is None:
            task, files = self.tasks[task_name], self.files
            cached = self._io_cache[task_name] = tuple(
                tuple((f, files[f].size_mb) for f in names)
                for names in (task.inputs, task.outputs)
            )
        return cached

    def edge_data_mb(self, src: str, dst: str) -> float:
        """Bytes carried on edge src->dst (0 if no edge)."""
        g = self.graph()
        if not g.has_edge(src, dst):
            return 0.0
        return float(g[src][dst]["data_mb"])

    def entry_tasks(self) -> List[str]:
        """Tasks with no predecessors, sorted."""
        g = self.graph()
        return sorted(n for n in g.nodes if g.in_degree(n) == 0)

    def exit_tasks(self) -> List[str]:
        """Tasks with no successors, sorted."""
        g = self.graph()
        return sorted(n for n in g.nodes if g.out_degree(n) == 0)

    def topological_order(self) -> List[str]:
        """A deterministic topological ordering of task names (cached)."""
        if self._topo_cache is None:
            self._topo_cache = list(
                nx.lexicographical_topological_sort(self.graph())
            )
        return self._topo_cache

    def levels(self) -> List[List[str]]:
        """Tasks grouped by longest-path depth from the entries."""
        g = self.graph()
        depth: Dict[str, int] = {}
        for name in nx.topological_sort(g):
            preds = list(g.predecessors(name))
            depth[name] = 0 if not preds else 1 + max(depth[p] for p in preds)
        out: List[List[str]] = []
        for name, d in depth.items():
            while len(out) <= d:
                out.append([])
            out[d].append(name)
        return [sorted(level) for level in out]

    def is_acyclic(self) -> bool:
        """True when the derived graph is a DAG."""
        return nx.is_directed_acyclic_graph(self.graph())

    # ---------------------------------------------------------------- #
    # aggregate measures                                               #
    # ---------------------------------------------------------------- #

    @property
    def n_tasks(self) -> int:
        """Number of tasks."""
        return len(self.tasks)

    @property
    def n_edges(self) -> int:
        """Number of derived dependency edges."""
        return self.graph().number_of_edges()

    def total_work(self) -> float:
        """Sum of task work, Gop."""
        return sum(t.work for t in self.tasks.values())

    def total_edge_data_mb(self) -> float:
        """Sum of bytes on all dependency edges."""
        g = self.graph()
        return float(sum(d["data_mb"] for _u, _v, d in g.edges(data=True)))

    def ccr(self, reference_speed: float = 50.0, reference_bandwidth: float = 1250.0) -> float:
        """Communication-to-computation ratio.

        Mean edge transfer time (at the reference bandwidth) over mean task
        execution time (at the reference speed).  The classical knob of the
        F2 sweep.
        """
        if not self.tasks or self.n_edges == 0:
            return 0.0
        mean_comm = self.total_edge_data_mb() / self.n_edges / reference_bandwidth
        mean_comp = self.total_work() / self.n_tasks / reference_speed
        if mean_comp == 0:
            return float("inf")
        return mean_comm / mean_comp

    def critical_path_work(self) -> float:
        """Largest total work along any path (ignoring communication), Gop."""
        g = self.graph()
        best: Dict[str, float] = {}
        for name in nx.topological_sort(g):
            preds = list(g.predecessors(name))
            incoming = max((best[p] for p in preds), default=0.0)
            best[name] = incoming + self.tasks[name].work
        return max(best.values(), default=0.0)

    def categories(self) -> Dict[str, int]:
        """Histogram of task categories."""
        out: Dict[str, int] = {}
        for t in self.tasks.values():
            out[t.category] = out.get(t.category, 0) + 1
        return out

    def initial_files(self) -> List[DataFile]:
        """Workflow input files (exist before execution)."""
        return [f for f in self.files.values() if f.initial]

    def scaled(self, work_factor: float = 1.0, name: Optional[str] = None) -> "Workflow":
        """A structurally identical copy with all task work scaled."""
        if work_factor <= 0:
            raise ValueError("work_factor must be positive")
        wf = Workflow(name or f"{self.name}-x{work_factor:g}")
        for f in self.files.values():
            wf.add_file(f)
        for t in self.tasks.values():
            wf.add_task(t.with_work(t.work * work_factor))
        for src, dst in self._control_edges:
            wf.add_control_edge(src, dst)
        return wf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workflow {self.name} tasks={self.n_tasks} edges={self.n_edges}>"
