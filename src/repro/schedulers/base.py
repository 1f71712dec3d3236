"""Scheduler interface and the shared estimation context.

:class:`SchedulingContext` snapshots everything an algorithm may consult —
eligible devices per task, execution-time estimates, communication and
staging estimates, and the classical rank helpers — so that every algorithm
in the zoo prices placements identically and differences in results come
from *policy*, not from divergent cost models.

Estimates can be systematically perturbed (``estimate_error_cv``) to model
bad profiling: the perturbation factor is drawn once per task and applied
across all devices, which is how mis-calibrated profilers actually err.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

import numpy as np

from repro.platform.cluster import Cluster
from repro.platform.devices import Device
from repro.schedulers import _reference
from repro.schedulers.schedule import Schedule
from repro.workflows.graph import Workflow


class SchedulingError(RuntimeError):
    """Raised when no feasible placement exists for some task."""


class SchedulingContext:
    """Precomputed cost estimates for one (workflow, cluster) pair.

    The context reads the platform's runtime state only when it is
    built: the devices alive then are the devices it prices, whatever
    fails later.  Everything its lazy tables read afterwards is static
    (specs, links, NIC, disk and storage figures), so every table is a
    pure function of the construction inputs and one context can serve
    many runs on the same (reset) cluster.
    """

    def __init__(
        self,
        workflow: Workflow,
        cluster: Cluster,
        estimate_error_cv: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        release_times: Optional[Dict[str, float]] = None,
    ) -> None:
        self.workflow = workflow
        self.cluster = cluster
        #: Earliest permissible start per task (online arrivals); tasks
        #: absent from the map may start at time 0.
        self.release_times: Dict[str, float] = dict(release_times or {})
        model = cluster.execution_model

        # Per-task systematic estimate error (one factor per task).
        self._error: Dict[str, float] = {}
        if estimate_error_cv > 0:
            if rng is None:
                raise ValueError(
                    "estimate_error_cv > 0 requires a caller-supplied rng; "
                    "derive it from the run seed (see Orchestrator.run)"
                )
            sigma2 = np.log(1.0 + estimate_error_cv ** 2)
            for name in workflow.tasks:
                self._error[name] = float(
                    rng.lognormal(mean=-0.5 * sigma2, sigma=np.sqrt(sigma2))
                )

        # Estimates are computed once per (task, distinct spec) and fanned
        # out to every device sharing the spec: presets instantiate many
        # devices from a handful of catalogue specs, so this collapses the
        # model-call count from |tasks| x |devices| to |tasks| x |specs|.
        alive = cluster.alive_devices()
        self._alive: List[Device] = alive
        self._eligible: Dict[str, List[Device]] = {}
        self._exec: Dict[str, Dict[str, float]] = {}
        unset = object()
        for name, task in workflow.tasks.items():
            factor = self._error.get(name, 1.0)
            devices: List[Device] = []
            exec_row: Dict[str, float] = {}
            # One estimate per (task, distinct spec), fanned out to every
            # device sharing the spec: presets instantiate many devices
            # from a handful of catalogue specs, so this collapses the
            # model-call count from |tasks| x |devices| to |tasks| x
            # |specs| while keeping cluster device order.
            per_spec: Dict[int, object] = {}
            for d in alive:
                est = per_spec.get(id(d.spec), unset)
                if est is unset:
                    spec = d.spec
                    if spec.memory_gb < task.memory_gb:
                        est = None
                    else:
                        try:
                            est = model.estimate(task, spec) * factor
                        except ValueError:  # ineligible device class
                            est = None
                    per_spec[id(spec)] = est
                if est is None:
                    continue
                devices.append(d)
                exec_row[d.uid] = est
            if not devices:
                raise SchedulingError(
                    f"task {name!r} has no eligible device on cluster "
                    f"{cluster.name!r} (classes {task.eligible_classes()}, "
                    f"memory {task.memory_gb} GB)"
                )
            self._eligible[name] = devices
            self._exec[name] = exec_row

        # Hot-path memo tables: filled lazily, keyed by names/uids only.
        self._node_of: Dict[str, str] = {
            d.uid: d.node.name for n in cluster.nodes for d in n.devices
        }
        self._mean_exec: Dict[str, float] = {}
        self._best_exec: Dict[str, float] = {}
        self._edge_mb: Dict[tuple, float] = {}
        self._mean_comm: Dict[tuple, float] = {}
        self._pair_coeff: Dict[tuple, tuple] = {}
        self._staging: Dict[tuple, float] = {}

        # Vectorized-kernel infrastructure (all lazy; see eft_scan):
        # node-name ordering, per-task device/exec arrays, per-task staging
        # vectors over nodes, per-(edge, src-node) communication row vectors
        # and the node-pair latency/bandwidth matrices behind them.
        self._node_names: List[str] = [n.name for n in cluster.nodes]
        self._node_index: Dict[str, int] = {
            name: i for i, name in enumerate(self._node_names)
        }
        self._task_vec: Dict[str, tuple] = {}
        self._staging_vecs: Dict[str, np.ndarray] = {}
        self._comm_rows: Dict[tuple, Optional[np.ndarray]] = {}
        self._comm_row_lists: Dict[tuple, List[float]] = {}
        self._lat_mat: Optional[np.ndarray] = None
        self._bw_mat: Optional[np.ndarray] = None
        self._dbw_vec: Optional[np.ndarray] = None
        self._links_complete = True
        self._rank_arrays_cache: Optional[tuple] = None
        self._dev_table: Optional[tuple] = None
        self._oct_vec: Dict[str, tuple] = {}
        # Whole-workflow tables, filled by the first caller: upward ranks
        # per variant and repro.schedulers.peft.optimistic_cost_table.
        self._upward: Dict[bool, Dict[str, float]] = {}
        self._oct_table: Optional[Dict[str, Dict[str, float]]] = None

        # Cluster-average communication figures for rank computations.
        links = cluster.interconnect.links
        real_links = [l for l in links if l.src != "<core>"]
        if real_links and len(cluster.nodes) > 1:
            self.avg_bandwidth = float(np.mean([l.bandwidth for l in real_links]))
            self.avg_latency = float(np.mean([l.latency for l in real_links]))
        else:
            self.avg_bandwidth = float("inf")
            self.avg_latency = 0.0

    # ------------------------------------------------------------------ #
    # execution estimates                                                #
    # ------------------------------------------------------------------ #

    def eligible_devices(self, task_name: str) -> List[Device]:
        """Devices this task may run on (affinity, memory and liveness)."""
        return self._eligible[task_name]

    def exec_row(self, task_name: str) -> Dict[str, float]:
        """Estimated runtime per eligible device uid (shared; read-only).

        For a device alive at construction and now, it is in the row
        exactly when ``WorkflowExecutor.eligible`` admits it (affinity, memory).
        """
        return self._exec[task_name]

    def exec_time(self, task_name: str, device_uid: str) -> float:
        """Estimated runtime of a task on a device."""
        try:
            return self._exec[task_name][device_uid]
        except KeyError:
            raise SchedulingError(
                f"task {task_name!r} is not eligible on device {device_uid!r}"
            ) from None

    def mean_exec(self, task_name: str) -> float:
        """Mean runtime over eligible devices (HEFT's w-bar); memoized."""
        cached = self._mean_exec.get(task_name)
        if cached is None:
            cached = float(np.mean(list(self._exec[task_name].values())))
            self._mean_exec[task_name] = cached
        return cached

    def best_exec(self, task_name: str) -> float:
        """Best runtime over eligible devices; memoized."""
        cached = self._best_exec.get(task_name)
        if cached is None:
            cached = min(self._exec[task_name].values())
            self._best_exec[task_name] = cached
        return cached

    def best_device(self, task_name: str) -> Device:
        """The device with the smallest runtime estimate."""
        uid = min(self._exec[task_name], key=self._exec[task_name].get)
        return self.cluster.device(uid)

    # ------------------------------------------------------------------ #
    # communication estimates                                            #
    # ------------------------------------------------------------------ #

    def _edge_data(self, src_task: str, dst_task: str) -> float:
        """Memoized bytes on edge src->dst (the EFT inner-loop hot lookup)."""
        key = (src_task, dst_task)
        cached = self._edge_mb.get(key)
        if cached is None:
            cached = self.workflow.edge_data_mb(src_task, dst_task)
            self._edge_mb[key] = cached
        return cached

    def _pair(self, src_node: str, dst_node: str) -> tuple:
        """(latency, eff_bandwidth, dst_disk_bandwidth) per node pair.

        The exact ingredients of :meth:`Cluster.transfer_estimate` for a
        cross-node pair, resolved once — the per-placement cost becomes
        three float ops instead of repeated object-graph walks.
        """
        key = (src_node, dst_node)
        cached = self._pair_coeff.get(key)
        if cached is None:
            src = self.cluster.node(src_node)
            dst = self.cluster.node(dst_node)
            link = self.cluster.interconnect.link(src_node, dst_node)
            eff_bw = min(link.bandwidth, src.nic_bandwidth, dst.nic_bandwidth)
            cached = (link.latency, eff_bw, dst.disk_bandwidth)
            self._pair_coeff[key] = cached
        return cached

    def comm_time(
        self, src_task: str, dst_task: str, src_uid: str, dst_uid: str
    ) -> float:
        """Estimated edge transfer time for a concrete placement pair.

        Memo lookups are inlined (no helper calls): this runs once per
        (predecessor, candidate-device) pair inside every EFT loop.
        """
        key = (src_task, dst_task)
        data = self._edge_mb.get(key)
        if data is None:
            data = self.workflow.edge_data_mb(src_task, dst_task)
            self._edge_mb[key] = data
        if data == 0.0:
            return 0.0
        node_of = self._node_of
        src_node = node_of[src_uid]
        dst_node = node_of[dst_uid]
        if src_node == dst_node:
            return 0.0
        coeff = self._pair_coeff.get((src_node, dst_node))
        if coeff is None:
            coeff = self._pair(src_node, dst_node)
        latency, eff_bw, disk_bw = coeff
        return latency + data / eff_bw + data / disk_bw

    def mean_comm(self, src_task: str, dst_task: str) -> float:
        """Placement-agnostic mean edge cost (HEFT's c-bar); memoized."""
        key = (src_task, dst_task)
        cached = self._mean_comm.get(key)
        if cached is not None:
            return cached
        data = self._edge_data(src_task, dst_task)
        if data == 0.0 or self.avg_bandwidth == float("inf"):
            cached = 0.0
        else:
            cached = self.avg_latency + data / self.avg_bandwidth
        self._mean_comm[key] = cached
        return cached

    def staging_time(self, task_name: str, device_uid: str) -> float:
        """Estimated time to stage the task's *initial* inputs to a device.

        Initial files born on a node (``DataFile.location``) are pulled
        over the interconnect; storage-resident ones pay the shared-storage
        path.  Memoized per (task, node): every device on a node stages
        identically, so the EFT loop over a node's devices hits the cache.
        """
        return self._staging_node(task_name, self._node_of[device_uid])

    def _staging_node(self, task_name: str, node: str) -> float:
        """Node-keyed staging estimate backing :meth:`staging_time`."""
        key = (task_name, node)
        cached = self._staging.get(key)
        if cached is not None:
            return cached
        task = self.workflow.tasks[task_name]
        total = 0.0
        for fname in task.inputs:
            f = self.workflow.files[fname]
            if not f.initial:
                continue
            if f.location is None:
                total += self.cluster.staging_estimate(node, f.size_mb)
            elif f.location != node:
                total += self.cluster.transfer_estimate(
                    f.location, node, f.size_mb
                )
        self._staging[key] = total
        return total

    # ------------------------------------------------------------------ #
    # rank helpers                                                       #
    # ------------------------------------------------------------------ #

    def upward_ranks(self, use_best: bool = False) -> Dict[str, float]:
        """Classical upward ranks: rank_u(t) = w(t) + max_child(c + rank_u).

        ``use_best=True`` replaces the mean execution time with the best
        over eligible devices (the heterogeneity-aware variant HDWS uses).
        Computed once per variant by the vectorized kernel, and shared by
        every scheduler and policy that plans from this context (callers
        must not mutate it); under reference mode (see
        :mod:`repro.schedulers._reference`) the reference kernel computes
        it afresh on every call.
        """
        if _reference.reference_active():
            return _reference.upward_ranks(self, use_best)
        ranks = self._upward.get(use_best)
        if ranks is None:
            ranks = self._upward[use_best] = _vec_upward_ranks(self, use_best)
        return ranks

    def downward_ranks(self) -> Dict[str, float]:
        """Classical downward ranks (distance from the entry nodes)."""
        if _reference.reference_active():
            return _reference.downward_ranks(self)
        return _vec_downward_ranks(self)

    # ------------------------------------------------------------------ #
    # vectorized-kernel infrastructure                                   #
    # ------------------------------------------------------------------ #

    def _task_arrays(self, task_name: str) -> tuple:
        """(node_idx, exec_list, uids, staging_arr, staging_list) per task.

        All aligned element-for-element with ``eligible_devices(task)``:
        ``node_idx`` is an intp array of node indices (into the cluster's
        node order), ``exec_list`` a plain list of execution estimates,
        ``uids`` the device uid strings, and ``staging_arr``/``staging_list``
        the initial-input staging estimates (array and list form — the
        ready-time kernel never mutates the cached array).
        """
        cached = self._task_vec.get(task_name)
        if cached is None:
            devices = self._eligible[task_name]
            node_index = self._node_index
            node_idx = np.array(
                [node_index[self._node_of[d.uid]] for d in devices],
                dtype=np.intp,
            )
            exec_row = self._exec[task_name]
            exec_list = [exec_row[d.uid] for d in devices]
            uids = [d.uid for d in devices]
            staging_arr = self._staging_vec(task_name)[node_idx]
            cached = (node_idx, exec_list, uids, staging_arr, staging_arr.tolist())
            self._task_vec[task_name] = cached
        return cached

    def _device_table(self) -> tuple:
        """(uids, index) over the devices alive at construction (lazy).

        Built from the construction-time device list, not the cluster's
        current one, so a device that fails before the first use is still
        indexed like every eligible device that names it.
        """
        cached = self._dev_table
        if cached is None:
            uids = [d.uid for d in self._alive]
            cached = (uids, {uid: i for i, uid in enumerate(uids)})
            self._dev_table = cached
        return cached

    def _oct_task_arrays(self, task_name: str) -> tuple:
        """(global_idx, exec_arr, uids) aligned with eligible devices (lazy).

        ``global_idx`` indexes into the alive-device table — the scatter
        target the vectorized optimistic-cost-table kernel uses to compare
        a parent's devices against every child's candidate devices.
        """
        cached = self._oct_vec
        entry = cached.get(task_name)
        if entry is None:
            _uids, index = self._device_table()
            devices = self._eligible[task_name]
            exec_row = self._exec[task_name]
            entry = (
                np.array([index[d.uid] for d in devices], dtype=np.intp),
                np.array([exec_row[d.uid] for d in devices]),
                [d.uid for d in devices],
            )
            cached[task_name] = entry
        return entry

    def _staging_vec(self, task_name: str) -> np.ndarray:
        """Initial-input staging estimate per cluster node (memoized)."""
        cached = self._staging_vecs.get(task_name)
        if cached is None:
            cached = np.array(
                [self._staging_node(task_name, n) for n in self._node_names]
            )
            self._staging_vecs[task_name] = cached
        return cached

    def _ensure_link_matrices(self) -> None:
        """Node-pair (latency, effective-bandwidth) matrices + disk vector.

        Pairs without an interconnect link are marked NaN and flip
        ``_links_complete`` — the vectorized ready-time path then defers to
        the scalar kernel so the original ``KeyError`` surfaces unchanged.
        """
        if self._lat_mat is not None:
            return
        names = self._node_names
        n = len(names)
        lat = np.zeros((n, n))
        bw = np.full((n, n), np.inf)
        for i, src in enumerate(names):
            for j, dst in enumerate(names):
                if i == j:
                    continue
                try:
                    latency, eff_bw, _dbw = self._pair(src, dst)
                except KeyError:
                    lat[i, j] = np.nan
                    bw[i, j] = np.nan
                    self._links_complete = False
                else:
                    lat[i, j] = latency
                    bw[i, j] = eff_bw
        self._lat_mat = lat
        self._bw_mat = bw
        self._dbw_vec = np.array(
            [self.cluster.node(name).disk_bandwidth for name in names]
        )

    def _comm_row(
        self, src_task: str, dst_task: str, src_uid: str
    ) -> Optional[np.ndarray]:
        """Edge transfer time to each of ``dst_task``'s eligible devices.

        Element ``[i]`` equals ``comm_time(src_task, dst_task, src_uid,
        dst_devices[i])`` — elementwise the same latency + data/bandwidth +
        data/disk arithmetic, so bit-identical.  Returns None for zero-byte
        edges, where the cost is 0 everywhere.  Memoized per (edge, source
        node): repeated evaluations (e.g. Min-Min frontier rescans) are a
        dictionary hit.
        """
        key = (src_task, dst_task)
        data = self._edge_mb.get(key)
        if data is None:
            data = self.workflow.edge_data_mb(src_task, dst_task)
            self._edge_mb[key] = data
        if data == 0.0:
            return None
        src_nidx = self._node_index[self._node_of[src_uid]]
        row_key = (src_task, dst_task, src_nidx)
        row = self._comm_rows.get(row_key)
        if row is None:
            self._ensure_link_matrices()
            node_row = (
                self._lat_mat[src_nidx]
                + data / self._bw_mat[src_nidx]
                + data / self._dbw_vec
            )
            node_row[src_nidx] = 0.0
            node_idx = self._task_arrays(dst_task)[0]
            row = node_row[node_idx]
            self._comm_rows[row_key] = row
        return row

    def _comm_row_list(
        self, src_task: str, dst_task: str, src_uid: str
    ) -> Optional[List[float]]:
        """:meth:`_comm_row` as a list of Python floats (memoized).

        The scalar ready-time path consumes rows element-by-element;
        ``tolist`` round-trips IEEE doubles exactly, so the values match
        the array form bit-for-bit while keeping downstream schedule
        times plain Python floats.
        """
        key = (src_task, dst_task)
        data = self._edge_mb.get(key)
        if data is None:
            data = self.workflow.edge_data_mb(src_task, dst_task)
            self._edge_mb[key] = data
        if data == 0.0:
            return None
        src_nidx = self._node_index[self._node_of[src_uid]]
        row_key = (src_task, dst_task, src_nidx)
        cached = self._comm_row_lists.get(row_key)
        if cached is None:
            cached = self._comm_row(src_task, dst_task, src_uid).tolist()
            self._comm_row_lists[row_key] = cached
        return cached

    def _ready_list(self, task_name: str, schedule: Schedule) -> List[float]:
        """Data-ready time per eligible device, as a list of Python floats.

        The elementwise max over staging, release and per-predecessor
        arrival vectors; every ingredient matches the scalar kernel's
        arithmetic op-for-op, so the values are bit-identical to looping
        :func:`repro.schedulers._reference.eft_placement` per device.
        """
        arrays = self._task_arrays(task_name)
        preds = self.workflow.predecessors(task_name)
        release = self.release_times.get(task_name, 0.0)
        if not preds and release <= 0.0:
            return arrays[4]
        assignments = schedule.assignments
        if len(preds) * len(arrays[4]) <= 256:
            # Few (pred, device) cells: scalar max/add beats the numpy
            # call overhead.  Same IEEE ops, so bit-identical results.
            ready = list(arrays[4])
            if release > 0.0:
                for i, r in enumerate(ready):
                    if release > r:
                        ready[i] = release
            for pred in preds:
                pa = assignments[pred]
                row = self._comm_row_list(pred, task_name, pa.device)
                finish = pa.finish
                if row is None:
                    for i, r in enumerate(ready):
                        if finish > r:
                            ready[i] = finish
                else:
                    for i, r in enumerate(ready):
                        arrival = finish + row[i]
                        if arrival > r:
                            ready[i] = arrival
            return ready
        ready = arrays[3]
        if release > 0.0:
            ready = np.maximum(ready, release)
        for pred in preds:
            pa = assignments[pred]
            row = self._comm_row(pred, task_name, pa.device)
            if row is None:
                ready = np.maximum(ready, pa.finish)
            else:
                ready = np.maximum(ready, pa.finish + row)
        return ready.tolist()

    def _rank_arrays(self) -> tuple:
        """CSR-style edge arrays for the vectorized rank kernels.

        Returns ``(order, succ_idx, succ_comm, pred_idx, pred_comm)`` where
        ``order`` is the topological order and, per position ``i``, the
        ``*_idx`` entries are intp arrays of neighbor positions and the
        ``*_comm`` entries the matching mean communication costs (None for
        tasks without neighbors on that side).
        """
        cached = self._rank_arrays_cache
        if cached is None:
            wf = self.workflow
            order = wf.topological_order()
            index = {name: i for i, name in enumerate(order)}
            succ_idx: List[Optional[np.ndarray]] = []
            succ_comm: List[Optional[np.ndarray]] = []
            pred_idx: List[Optional[np.ndarray]] = []
            pred_comm: List[Optional[np.ndarray]] = []
            for name in order:
                children = wf.successors(name)
                if children:
                    succ_idx.append(
                        np.array([index[c] for c in children], dtype=np.intp)
                    )
                    succ_comm.append(
                        np.array([self.mean_comm(name, c) for c in children])
                    )
                else:
                    succ_idx.append(None)
                    succ_comm.append(None)
                parents = wf.predecessors(name)
                if parents:
                    pred_idx.append(
                        np.array([index[p] for p in parents], dtype=np.intp)
                    )
                    pred_comm.append(
                        np.array([self.mean_comm(p, name) for p in parents])
                    )
                else:
                    pred_idx.append(None)
                    pred_comm.append(None)
            cached = (order, succ_idx, succ_comm, pred_idx, pred_comm)
            self._rank_arrays_cache = cached
        return cached


class Scheduler(abc.ABC):
    """Interface every scheduling algorithm implements."""

    #: Short registry name; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def schedule(self, context: SchedulingContext) -> Schedule:
        """Produce a full static schedule for the context's workflow."""

    def schedule_workflow(self, workflow: Workflow, cluster: Cluster, **ctx_kwargs) -> Schedule:
        """Convenience wrapper building the context inline."""
        return self.schedule(SchedulingContext(workflow, cluster, **ctx_kwargs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


#: Single-device EFT placement — the scalar kernel, shared verbatim with
#: the differential reference (one implementation, two roles).
eft_placement = _reference.eft_placement


def eft_scan(
    context: SchedulingContext,
    schedule: Schedule,
    task_name: str,
    allow_insertion: bool = True,
) -> tuple:
    """(devices, starts, finishes) of EFT placement on *every* eligible device.

    The vectorized form of looping :func:`eft_placement` over
    ``eligible_devices(task)``: the data-ready times for all devices are
    computed as one numpy max-reduction over staging/release/predecessor
    arrival vectors, and only the timeline gap search runs per device.
    ``starts``/``finishes`` are plain Python floats, bit-identical to the
    scalar loop; selection policies keep their exact tie-break semantics by
    iterating the returned lists.
    """
    devices = context.eligible_devices(task_name)
    starts: List[float] = []
    finishes: List[float] = []
    if _reference.reference_active() or not context._links_complete:
        for device in devices:
            start, finish = _reference.eft_placement(
                context, schedule, task_name, device, allow_insertion
            )
            starts.append(start)
            finishes.append(finish)
        return devices, starts, finishes
    ready = context._ready_list(task_name, schedule)
    arrays = context._task_arrays(task_name)
    durations = arrays[1]
    uids = arrays[2]
    timelines = schedule.timelines
    for i, uid in enumerate(uids):
        duration = durations[i]
        tl = timelines.get(uid)
        if tl is None:
            # Untouched device: the earliest fit on an empty timeline is
            # simply max(ready, 0) — skip materializing the timeline.
            start = ready[i]
            if start < 0.0:
                start = 0.0
        else:
            start = tl._index.earliest_fit(ready[i], duration, allow_insertion)
        starts.append(start)
        finishes.append(start + duration)
    return devices, starts, finishes


def _vec_upward_ranks(
    context: SchedulingContext, use_best: bool = False
) -> Dict[str, float]:
    """Vectorized upward ranks over the context's CSR edge arrays.

    Per task the child max runs as one numpy ``comm + rank`` gather-reduce;
    float max is order-independent and elementwise addition matches the
    scalar sums, so the result is bit-identical to the reference kernel.
    """
    order, succ_idx, succ_comm, _pi, _pc = context._rank_arrays()
    weight = context.best_exec if use_best else context.mean_exec
    n = len(order)
    ranks = np.zeros(n)
    for i in range(n - 1, -1, -1):
        ci = succ_idx[i]
        best_child = 0.0
        if ci is not None:
            cand = float(np.max(succ_comm[i] + ranks[ci]))
            if cand > best_child:
                best_child = cand
        ranks[i] = weight(order[i]) + best_child
    out = ranks.tolist()
    return {name: out[i] for i, name in enumerate(order)}


def _vec_downward_ranks(context: SchedulingContext) -> Dict[str, float]:
    """Vectorized downward ranks (same exactness argument as upward)."""
    order, _si, _sc, pred_idx, pred_comm = context._rank_arrays()
    n = len(order)
    w_mean = np.array([context.mean_exec(name) for name in order])
    ranks = np.zeros(n)
    for i in range(n):
        pi = pred_idx[i]
        best_parent = 0.0
        if pi is not None:
            cand = float(np.max(ranks[pi] + w_mean[pi] + pred_comm[i]))
            if cand > best_parent:
                best_parent = cand
        ranks[i] = best_parent
    out = ranks.tolist()
    return {name: out[i] for i, name in enumerate(order)}
