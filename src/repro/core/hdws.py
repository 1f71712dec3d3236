"""HDWS — Heterogeneous Discovery Workflow Scheduler (the contribution).

HDWS extends insertion-based list scheduling with four mechanisms, each
independently switchable for the ablation study (T4):

1. **Affinity-aware ranking** (``use_affinity_rank``) — upward ranks use
   each task's *best* execution time over eligible devices instead of the
   mean.  On wide-heterogeneity platforms the mean wildly overweights
   tasks that happen to be ineligible on accelerators, distorting
   priorities; best-time ranks order tasks by what they will actually
   cost.

2. **Scarcity tie-break** (``use_scarcity``) — accelerators are a
   contended minority.  Among placements whose finish times are near-tied,
   HDWS prefers the one that keeps contended device classes free for
   high-benefit work: the scarcity key of a candidate is the class's
   demand pressure divided by this task's accelerator benefit (best-CPU
   time over this-device time).  Crucially this is a *windowed* tie-break,
   not a hard filter: a clearly-faster accelerator placement is always
   taken — an early design that hard-filtered low-benefit tasks off
   contended accelerators backfired whenever the CPUs were the true
   bottleneck.

3. **Data-locality tie-break** (``use_locality``) — among placements whose
   finish times are within a tolerance of the best, choose the one that
   pulls the fewest remote bytes (planned replica map: producer's node,
   shared storage, destination).  Finish-neutral by construction, it cuts
   network traffic substantially (F6).

4. **Lookahead** (``use_lookahead``) — candidate scores add the
   optimistic-cost-table entry for the placement (the PEFT OCT, computed
   with per-device-class profiles), so HDWS avoids finishes that strand
   the remaining path below the task.

Runtime adaptivity (the fifth mechanism of the full system) lives in
:class:`repro.core.adaptive.AdaptivePolicy`, which re-plans the unstarted
frontier with this same algorithm when execution diverges.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.platform.devices import Device, DeviceClass
from repro.schedulers.base import Scheduler, SchedulingContext
from repro.schedulers.schedule import Schedule


class HdwsScheduler(Scheduler):
    """The paper's heterogeneity-aware workflow scheduler."""

    name = "hdws"

    def __init__(
        self,
        use_affinity_rank: bool = True,
        use_scarcity: bool = True,
        use_locality: bool = True,
        use_lookahead: bool = True,
        locality_tolerance: float = 0.05,
        scarcity_benefit_threshold: float = 2.0,
    ) -> None:
        self.use_affinity_rank = use_affinity_rank
        self.use_scarcity = use_scarcity
        self.use_locality = use_locality
        self.use_lookahead = use_lookahead
        self.locality_tolerance = locality_tolerance
        self.scarcity_benefit_threshold = scarcity_benefit_threshold

    # ------------------------------------------------------------------ #

    def schedule(self, context: SchedulingContext) -> Schedule:
        """Rank, then place with the scarcity/locality/lookahead scoring."""
        wf = context.workflow
        ranks = context.upward_ranks(use_best=self.use_affinity_rank)
        topo_index = {n: i for i, n in enumerate(wf.topological_order())}
        order = sorted(wf.tasks, key=lambda n: (-ranks[n], topo_index[n]))

        contended = self._class_pressure(context) if self.use_scarcity else {}
        oct_table = self.lookahead_table(context)
        # Planned replica map: file -> node expected to hold it.
        replica_node: Dict[str, Optional[str]] = {}

        schedule = Schedule()
        for name in order:
            candidates = self._candidates(
                context, schedule, name, contended, replica_node, oct_table
            )
            device, start, finish = self._pick(candidates)
            schedule.add(name, device.uid, start, finish)
            node = device.node.name
            for fname in wf.tasks[name].outputs:
                replica_node[fname] = node
        return schedule

    # ------------------------------------------------------------------ #
    # mechanism 2: scarcity tie-break                                    #
    # ------------------------------------------------------------------ #

    def _class_pressure(
        self, context: SchedulingContext
    ) -> Dict[DeviceClass, float]:
        """Demand pressure per *non-CPU* device class, relative to average.

        Demand of class c: total best-device execution time of tasks whose
        best device is of class c.  Capacity: per-device mean busy seconds
        implied by that demand.  The returned value is the class's
        per-device load divided by the cluster-average per-device load;
        values above 1 mean the class is contended.  CPU is never listed —
        the tie-break only steers work *off* scarce accelerators.
        """
        demand: Dict[DeviceClass, float] = {}
        for name in context.workflow.tasks:
            best = context.best_device(name)
            demand[best.device_class] = (
                demand.get(best.device_class, 0.0)
                + context.exec_time(name, best.uid)
            )
        counts: Dict[DeviceClass, int] = {}
        for d in context.cluster.alive_devices():
            counts[d.device_class] = counts.get(d.device_class, 0) + 1
        n_devices = sum(counts.values())
        total_demand = sum(demand.values())
        if total_demand <= 0 or n_devices == 0:
            return {}
        avg_load = total_demand / n_devices
        pressure: Dict[DeviceClass, float] = {}
        for cls, dem in demand.items():
            if cls == DeviceClass.CPU or counts.get(cls, 0) == 0:
                continue
            load = dem / counts[cls]
            if load > avg_load * 1.001:
                pressure[cls] = load / avg_load
        return pressure

    def _cpu_best(self, context: SchedulingContext, name: str) -> float:
        """Best CPU time of the task (inf when no CPU may run it)."""
        row = context.exec_row(name)
        return min((row[d.uid] for d in context.eligible_devices(name)
                    if d.device_class == DeviceClass.CPU), default=float("inf"))

    def _benefit(
        self, context: SchedulingContext, name: str, device: Device,
        cpu_best: Optional[float] = None,
    ) -> float:
        """Accelerator benefit: best CPU time over this device's time."""
        if cpu_best is None:
            cpu_best = self._cpu_best(context, name)
        return cpu_best / max(context.exec_time(name, device.uid), 1e-12)

    # ------------------------------------------------------------------ #
    # candidate generation and scoring                                   #
    # ------------------------------------------------------------------ #

    #: Above this communication/computation ratio the OCT lookahead is
    #: suppressed: the table prices communication with a placement-agnostic
    #: average, which collapses when communication dominates (measured:
    #: +25% makespan on CCR-10 random DAGs when trusted there).
    lookahead_ccr_limit: float = 1.0

    def lookahead_table(
        self, context: SchedulingContext
    ) -> Optional[Dict[str, Dict[str, float]]]:
        """The OCT used as the lookahead term (None when disabled).

        Disabled both by the ablation flag and — automatically — on
        communication-dominated workflows where the OCT's mean-comm
        approximation misleads more than it informs.
        """
        if not self.use_lookahead:
            return None
        if self._comm_dominance(context) > self.lookahead_ccr_limit:
            return None
        from repro.schedulers.peft import optimistic_cost_table

        return optimistic_cost_table(context)

    def _comm_dominance(self, context: SchedulingContext) -> float:
        """Mean edge transfer time over mean best execution time."""
        wf = context.workflow
        if wf.n_edges == 0 or context.avg_bandwidth == float("inf"):
            return 0.0
        mean_comm = (
            context.avg_latency
            + wf.total_edge_data_mb() / wf.n_edges / context.avg_bandwidth
        )
        mean_exec = sum(
            context.best_exec(n) for n in wf.tasks
        ) / max(wf.n_tasks, 1)
        if mean_exec <= 0:
            return float("inf")
        return mean_comm / mean_exec

    def _candidates(
        self,
        context: SchedulingContext,
        schedule: Schedule,
        name: str,
        contended: set,
        replica_node: Dict[str, Optional[str]],
        oct_table: Optional[Dict[str, Dict[str, float]]] = None,
    ) -> List[Tuple]:
        from repro.schedulers.base import eft_scan

        out: List[Tuple] = []
        oct_row = oct_table[name] if oct_table is not None else None
        devices, starts, finishes = eft_scan(context, schedule, name)
        # Remote bytes depend only on the node, the CPU best only on the
        # task (and matters only on a contended accelerator).
        remote_by_node: Dict[str, float] = {}
        cpu_best = None
        for device, start, finish in zip(devices, starts, finishes):
            oct_term = oct_row[device.uid] if oct_row is not None else 0.0
            node = device.node.name
            remote_mb = remote_by_node.get(node)
            if remote_mb is None:
                remote_mb = remote_by_node[node] = self._remote_bytes(
                    context, name, node, replica_node
                )
            if cpu_best is None and device.device_class in contended:
                cpu_best = self._cpu_best(context, name)
            scarcity_key = self._scarcity_key(
                context, name, device, contended, cpu_best
            )
            out.append(
                (device, start, finish, finish + oct_term, remote_mb,
                 scarcity_key)
            )
        return out

    def _scarcity_key(
        self,
        context: SchedulingContext,
        name: str,
        device: Device,
        pressure: Dict[DeviceClass, float],
        cpu_best: Optional[float] = None,
    ) -> float:
        """Tie-break key: higher = worse use of a contended accelerator.

        0 for CPUs, uncontended classes, and tasks whose benefit clears the
        threshold; otherwise the class pressure divided by the task's
        benefit — so near-tied placements go to the candidate that wastes
        the least scarce capacity.
        """
        cls = device.device_class
        if cls == DeviceClass.CPU or cls not in pressure:
            return 0.0
        benefit = self._benefit(context, name, device, cpu_best)
        if benefit >= self.scarcity_benefit_threshold:
            return 0.0
        return pressure[cls] / max(benefit, 1e-9)

    def _pick(self, candidates: List[Tuple]) -> Tuple[Device, float, float]:
        """Windowed selection: EFT, then lookahead, then scarcity/locality.

        The earliest finish defines a tolerance window; the lookahead score
        (finish + OCT) narrows it further; the scarcity key and the
        remote-byte count break the remaining near-ties.  Every mechanism
        therefore only refines near-ties — HDWS can never finish a task
        more than the tolerance later than plain EFT would, which keeps it
        robust on workloads where the extra signals mislead.
        """
        tol = 1.0 + self.locality_tolerance
        best_finish = min(c[2] for c in candidates)
        window = [c for c in candidates if c[2] <= best_finish * tol + 1e-12]
        if self.use_lookahead:
            best_score = min(c[3] for c in window)
            window = [c for c in window if c[3] <= best_score * tol + 1e-12]

        def key(c):
            scarcity = c[5] if self.use_scarcity else 0.0
            remote = c[4] if self.use_locality else 0.0
            return (scarcity, remote, c[3], c[2], c[0].uid)

        window.sort(key=key)
        device, start, finish = window[0][0], window[0][1], window[0][2]
        return device, start, finish

    def _remote_bytes(
        self,
        context: SchedulingContext,
        name: str,
        node: str,
        replica_node: Dict[str, Optional[str]],
    ) -> float:
        """MB a placement on ``node`` would pull from off-node sources."""
        wf = context.workflow
        total = 0.0
        for fname in wf.tasks[name].inputs:
            f = wf.files[fname]
            holder = replica_node.get(fname)
            if f.initial:
                holder = f.location  # node of birth, or None = storage
            if holder != node:
                total += f.size_mb
        return total


# Make HDWS and its ablation variants reachable through the registry.
def _register() -> None:
    from repro import schedulers as _s

    _s.REGISTRY.setdefault("hdws", HdwsScheduler)


_register()
