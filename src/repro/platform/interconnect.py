"""Inter-node network model.

The interconnect answers two questions:

* *Estimate*: how long would moving N MB from node A to node B take on an
  otherwise idle network?  (Used by schedulers when ranking placements.)
* *Reserve*: given that links serialize concurrent transfers, when does a
  transfer submitted at time t actually start and finish?  (Used by the
  discrete-event executor, so that schedulers that ignore contention pay
  for it at runtime.)

Topologies are modelled as a set of directed :class:`Link` objects between
node names; both uniform full-mesh and switched (star) fabrics are provided.
Intra-node movement goes through the node's local disk and never touches the
network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class Link:
    """A directed network link between two nodes.

    ``busy_until`` tracks the serialization frontier for the contention
    model: a link carries one transfer at a time at full bandwidth (a
    store-and-forward approximation that keeps the simulation deterministic
    while still penalizing hotspots).
    """

    src: str
    dst: str
    bandwidth: float  # MB/s
    latency: float  # seconds
    busy_until: float = 0.0
    bytes_carried_mb: float = 0.0
    transfers: int = 0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("link bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("link latency must be non-negative")

    def nominal_time(self, size_mb: float) -> float:
        """Transfer time on an idle link."""
        return self.latency + size_mb / self.bandwidth

    def reserve(self, earliest: float, size_mb: float) -> Tuple[float, float]:
        """Serialize a transfer on this link; returns (start, end)."""
        start = max(earliest, self.busy_until)
        end = start + self.nominal_time(size_mb)
        self.busy_until = end
        self.bytes_carried_mb += size_mb
        self.transfers += 1
        return start, end

    def reset(self) -> None:
        """Clear contention and accounting state."""
        self.busy_until = 0.0
        self.bytes_carried_mb = 0.0
        self.transfers = 0


class Interconnect:
    """Directed-link network between named nodes.

    Build with one of the constructors (:meth:`uniform`, :meth:`switched`)
    or assemble links manually via :meth:`add_link`.
    """

    def __init__(self) -> None:
        self._links: Dict[Tuple[str, str], Link] = {}

    def add_link(self, link: Link) -> None:
        """Register a directed link (replacing any existing one)."""
        self._links[(link.src, link.dst)] = link

    def link(self, src: str, dst: str) -> Link:
        """The directed link src->dst; KeyError if absent."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src} -> {dst}") from None

    def has_link(self, src: str, dst: str) -> bool:
        """Whether a direct link src->dst exists."""
        return (src, dst) in self._links

    @property
    def links(self) -> List[Link]:
        """All links, in insertion order."""
        return list(self._links.values())

    def nominal_time(self, src: str, dst: str, size_mb: float) -> float:
        """Idle-network estimate of moving ``size_mb`` from src to dst.

        Same-node movement is free at this layer (the cluster adds disk
        costs); missing links raise KeyError so misconfigured topologies
        fail loudly rather than silently serializing through nothing.
        """
        if src == dst:
            return 0.0
        return self.link(src, dst).nominal_time(size_mb)

    def reserve(self, src: str, dst: str, earliest: float, size_mb: float) -> Tuple[float, float]:
        """Contention-aware reservation of a transfer; (start, end)."""
        if src == dst:
            return earliest, earliest
        return self.link(src, dst).reserve(earliest, size_mb)

    def total_traffic_mb(self) -> float:
        """Total bytes carried across all links since the last reset."""
        return sum(l.bytes_carried_mb for l in self._links.values())

    def reset(self) -> None:
        """Clear contention/accounting on every link."""
        for l in self._links.values():
            l.reset()

    # ---------------------------------------------------------------- #
    # constructors                                                     #
    # ---------------------------------------------------------------- #

    @classmethod
    def uniform(
        cls, node_names: Iterable[str], bandwidth: float = 1250.0, latency: float = 1e-4
    ) -> "Interconnect":
        """Full mesh with identical links between every ordered node pair.

        1250 MB/s ~ 10 GbE; latency default ~100 us.
        """
        net = cls()
        names = list(node_names)
        for a in names:
            for b in names:
                if a != b:
                    net.add_link(Link(a, b, bandwidth, latency))
        return net

    @classmethod
    def switched(
        cls,
        node_names: Iterable[str],
        edge_bandwidth: float = 1250.0,
        core_bandwidth: float = 5000.0,
        latency: float = 2e-4,
    ) -> "Interconnect":
        """Star fabric through a central switch.

        Each ordered pair gets a private edge-rate link, but a shared *core*
        link models the switch backplane: every transfer reserves both, so
        aggregate traffic beyond ``core_bandwidth`` queues.  Implemented by
        giving pair links the edge bandwidth and tracking the backplane as a
        single extra link named ``("<core>", "<core>")``.
        """
        net = cls()
        names = list(node_names)
        for a in names:
            for b in names:
                if a != b:
                    net.add_link(Link(a, b, edge_bandwidth, latency))
        net.add_link(Link("<core>", "<core>", core_bandwidth, 0.0))
        return net

    def core_link(self) -> Optional[Link]:
        """The shared backplane link for switched fabrics, if present."""
        return self._links.get(("<core>", "<core>"))
