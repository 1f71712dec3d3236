"""The full heterogeneous platform: nodes + interconnect + models.

:class:`Cluster` is the object schedulers and the orchestrator are handed.
It owns:

* the set of :class:`~repro.platform.nodes.Node` instances,
* the :class:`~repro.platform.interconnect.Interconnect`,
* the :class:`~repro.platform.perfmodel.ExecutionModel`,

and provides the two views of data movement every scheduler/executor pair
needs — an idle-network *estimate* and a contention-aware *reservation*.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.platform.devices import Device, DeviceClass
from repro.platform.interconnect import Interconnect
from repro.platform.nodes import Node, NodeSpec
from repro.platform.perfmodel import ExecutionModel


class Cluster:
    """A named heterogeneous platform instance."""

    def __init__(
        self,
        name: str,
        node_specs: Iterable[NodeSpec],
        interconnect: Optional[Interconnect] = None,
        execution_model: Optional[ExecutionModel] = None,
        switched: bool = False,
        storage_bandwidth: float = 2000.0,
        storage_latency: float = 1e-3,
    ) -> None:
        self.name = name
        if storage_bandwidth <= 0:
            raise ValueError("storage_bandwidth must be positive")
        self.storage_bandwidth = storage_bandwidth
        self.storage_latency = storage_latency
        # Shared-storage egress frontier for the contention model: the
        # storage system serves one staging stream at a time at full rate.
        self._storage_busy_until = 0.0
        self.storage_bytes_served_mb = 0.0
        self.nodes: List[Node] = [Node(s) for s in node_specs]
        if not self.nodes:
            raise ValueError("a cluster needs at least one node")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names in cluster {name!r}: {names}")
        self.interconnect = interconnect or Interconnect.uniform(names)
        self.execution_model = execution_model or ExecutionModel()
        self.switched = switched
        self._node_by_name: Dict[str, Node] = {n.name: n for n in self.nodes}
        self._device_by_uid: Dict[str, Device] = {
            d.uid: d for n in self.nodes for d in n.devices
        }

    # ---------------------------------------------------------------- #
    # lookup                                                           #
    # ---------------------------------------------------------------- #

    @property
    def devices(self) -> List[Device]:
        """Every device in the cluster, node order then install order."""
        return [d for n in self.nodes for d in n.devices]

    def node(self, name: str) -> Node:
        """Node by name."""
        try:
            return self._node_by_name[name]
        except KeyError:
            raise KeyError(f"cluster {self.name!r} has no node {name!r}") from None

    def device(self, uid: str) -> Device:
        """Device by uid."""
        try:
            return self._device_by_uid[uid]
        except KeyError:
            raise KeyError(f"cluster {self.name!r} has no device {uid!r}") from None

    def devices_of_class(self, device_class: DeviceClass) -> List[Device]:
        """Every device of the given class."""
        return [d for d in self.devices if d.device_class == device_class]

    def alive_devices(self) -> List[Device]:
        """Devices that have not suffered a permanent fault."""
        return [d for d in self.devices if not d.failed]

    def eligible_devices(self, task) -> List[Device]:
        """Alive devices on which ``task`` may execute."""
        model = self.execution_model
        return [d for d in self.alive_devices() if model.eligible(task, d.spec)]

    # ---------------------------------------------------------------- #
    # data movement                                                    #
    # ---------------------------------------------------------------- #

    def transfer_estimate(self, src_node: str, dst_node: str, size_mb: float) -> float:
        """Idle-network time to move ``size_mb`` between nodes.

        Same-node movement costs a local-disk pass; cross-node movement pays
        the link plus is capped by both NICs, plus a disk write at the
        destination.
        """
        if size_mb < 0:
            raise ValueError("transfer size must be non-negative")
        if size_mb == 0:
            return 0.0
        dst = self.node(dst_node)
        if src_node == dst_node:
            return size_mb / dst.disk_bandwidth
        src = self.node(src_node)
        link = self.interconnect.link(src_node, dst_node)
        eff_bw = min(link.bandwidth, src.nic_bandwidth, dst.nic_bandwidth)
        return link.latency + size_mb / eff_bw + size_mb / dst.disk_bandwidth

    def reserve_transfer(
        self, src_node: str, dst_node: str, earliest: float, size_mb: float
    ) -> Tuple[float, float]:
        """Contention-aware transfer reservation; returns (start, end).

        Cross-node transfers serialize on their directed link (and on the
        switch backplane for switched fabrics); the NIC/disk portions are
        folded into the occupied duration.
        """
        if size_mb == 0:
            return earliest, earliest
        duration = self.transfer_estimate(src_node, dst_node, size_mb)
        if src_node == dst_node:
            return earliest, earliest + duration
        link = self.interconnect.link(src_node, dst_node)
        start = max(earliest, link.busy_until)
        end = start + duration
        link.busy_until = end
        link.bytes_carried_mb += size_mb
        link.transfers += 1
        if self.switched:
            core = self.interconnect.core_link()
            if core is not None:
                cstart = max(start, core.busy_until)
                cend = cstart + size_mb / core.bandwidth
                core.busy_until = cend
                core.bytes_carried_mb += size_mb
                core.transfers += 1
                if cend > end:
                    end = cend
        return start, end

    # ---------------------------------------------------------------- #
    # summaries / lifecycle                                            #
    # ---------------------------------------------------------------- #

    def staging_estimate(self, dst_node: str, size_mb: float) -> float:
        """Idle-system time to stage ``size_mb`` from shared storage.

        The stream is capped by the storage system, the destination NIC and
        the destination disk (written through to the local store so later
        local reads are free).
        """
        if size_mb < 0:
            raise ValueError("staging size must be non-negative")
        if size_mb == 0:
            return 0.0
        dst = self.node(dst_node)
        eff_bw = min(self.storage_bandwidth, dst.nic_bandwidth)
        return self.storage_latency + size_mb / eff_bw + size_mb / dst.disk_bandwidth

    def reserve_staging(
        self, dst_node: str, earliest: float, size_mb: float
    ) -> Tuple[float, float]:
        """Contention-aware staging reservation; returns (start, end).

        Concurrent stagings serialize on the shared storage egress, which is
        what makes data-locality policies matter even when the inter-node
        fabric is fast.
        """
        if size_mb == 0:
            return earliest, earliest
        duration = self.staging_estimate(dst_node, size_mb)
        start = max(earliest, self._storage_busy_until)
        end = start + duration
        self._storage_busy_until = end
        self.storage_bytes_served_mb += size_mb
        return start, end

    def total_speed(self) -> float:
        """Sum of device speeds (a crude capacity figure), Gop/s."""
        return sum(d.speed for d in self.devices)

    def reference_speed(self) -> float:
        """Speed of the fastest CPU device (speedup baseline); falls back to
        the slowest device if the cluster has no CPUs."""
        cpus = self.devices_of_class(DeviceClass.CPU)
        if cpus:
            return max(d.speed for d in cpus)
        return min(d.speed for d in self.devices)

    def describe(self) -> str:
        """Human-readable one-paragraph platform summary."""
        per_class: Dict[str, int] = {}
        for d in self.devices:
            key = str(d.device_class)
            per_class[key] = per_class.get(key, 0) + 1
        mix = ", ".join(f"{v}x {k}" for k, v in sorted(per_class.items()))
        return (
            f"cluster {self.name!r}: {len(self.nodes)} nodes, "
            f"{len(self.devices)} devices ({mix}), "
            f"{self.total_speed():.0f} Gop/s aggregate"
        )

    def reset(self) -> None:
        """Clear all runtime state (device schedules, link contention)."""
        for n in self.nodes:
            n.reset()
        self.interconnect.reset()
        self._storage_busy_until = 0.0
        self.storage_bytes_served_mb = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cluster {self.name} nodes={len(self.nodes)} devices={len(self.devices)}>"
