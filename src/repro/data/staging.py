"""Transfer source selection.

When a task placed on node X needs a file, the data manager must pick
where to pull it from: X's own store (free), a peer node holding a replica
(pays the interconnect), or the shared storage site (pays the storage
path).  :func:`choose_source` implements the cheapest-source policy using
the cluster's idle-network estimates; the executor then *reserves* the
chosen path, paying contention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.data.catalog import ReplicaCatalog
from repro.platform.cluster import Cluster


@dataclass(frozen=True)
class StagingDecision:
    """Outcome of source selection for one (file, destination) pair.

    ``source`` is a node name, :data:`ReplicaCatalog.STORAGE`, or the
    destination itself (when the file is already local, ``cost == 0``).
    """

    file_name: str
    source: str
    destination: str
    size_mb: float
    cost: float


def choose_source(
    catalog: ReplicaCatalog,
    cluster: Cluster,
    file_name: str,
    size_mb: float,
    destination: str,
) -> StagingDecision:
    """Pick the cheapest replica to satisfy ``file_name`` at ``destination``.

    Raises LookupError when no replica exists anywhere (a workflow-logic
    bug: a consumer ran before its producer registered the output).
    """
    locations = catalog.locations(file_name)
    if not locations:
        raise LookupError(f"no replica of {file_name!r} exists")

    if destination in locations:
        return StagingDecision(file_name, destination, destination, size_mb, 0.0)

    best: Optional[StagingDecision] = None
    for loc in locations:
        if loc == ReplicaCatalog.STORAGE:
            cost = cluster.staging_estimate(destination, size_mb)
        else:
            cost = cluster.transfer_estimate(loc, destination, size_mb)
        cand = StagingDecision(file_name, loc, destination, size_mb, cost)
        if best is None or cand.cost < best.cost:
            best = cand
    return best
