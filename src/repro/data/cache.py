"""Bounded per-node file stores with LRU eviction.

Each compute node's local store has finite capacity; when a staging brings
in a file that does not fit, least-recently-used *unpinned* files are
evicted (pinned files are inputs/outputs of currently-running tasks and
must not vanish mid-execution).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List


class EvictionError(RuntimeError):
    """Raised when a file cannot fit even after evicting all candidates."""


class NodeStore:
    """LRU-managed local store of one node.

    Pins are *reference counted*: several concurrently running clones may
    pin the same input, and the file only becomes evictable again once
    every one of them has unpinned it.
    """

    def __init__(self, node: str, capacity_mb: float) -> None:
        if capacity_mb <= 0:
            raise ValueError("store capacity must be positive")
        self.node = node
        self.capacity_mb = capacity_mb
        self._files: "OrderedDict[str, float]" = OrderedDict()  # name -> MB
        self._pins: Dict[str, int] = {}  # name -> refcount
        self.evictions = 0
        self.bytes_evicted_mb = 0.0

    @property
    def used_mb(self) -> float:
        """Bytes currently stored."""
        return sum(self._files.values())

    def has(self, file_name: str) -> bool:
        """Whether the file is resident."""
        return file_name in self._files

    def touch(self, file_name: str) -> None:
        """Mark a resident file as recently used."""
        if file_name in self._files:
            self._files.move_to_end(file_name)

    def pin(self, file_name: str) -> None:
        """Protect a resident file from eviction (refcounted)."""
        if file_name not in self._files:
            raise KeyError(f"cannot pin absent file {file_name!r} on {self.node}")
        self._pins[file_name] = self._pins.get(file_name, 0) + 1

    def unpin(self, file_name: str) -> None:
        """Drop one pin reference (no-op if not pinned)."""
        count = self._pins.get(file_name, 0)
        if count <= 1:
            self._pins.pop(file_name, None)
        else:
            self._pins[file_name] = count - 1

    def is_pinned(self, file_name: str) -> bool:
        """Whether at least one live pin protects the file."""
        return file_name in self._pins

    def pinned_files(self) -> List[str]:
        """Currently pinned files, sorted (for audits and diagnostics)."""
        return sorted(self._pins)

    def put(self, file_name: str, size_mb: float) -> List[str]:
        """Store a file, evicting LRU unpinned files as needed.

        Returns the names of evicted files (for catalog maintenance).
        Re-putting a resident file just refreshes recency.
        """
        if size_mb < 0:
            raise ValueError("file size must be non-negative")
        if file_name in self._files:
            self.touch(file_name)
            return []
        if size_mb > self.capacity_mb:
            raise EvictionError(
                f"file {file_name!r} ({size_mb} MB) exceeds store capacity "
                f"of {self.node} ({self.capacity_mb} MB)"
            )
        evicted: List[str] = []
        while self.used_mb + size_mb > self.capacity_mb:
            victim = self._lru_unpinned()
            if victim is None:
                raise EvictionError(
                    f"store on {self.node} cannot fit {file_name!r}: "
                    f"{self.used_mb:.0f}/{self.capacity_mb:.0f} MB pinned"
                )
            self.bytes_evicted_mb += self._files.pop(victim)
            self.evictions += 1
            evicted.append(victim)
        self._files[file_name] = size_mb
        return evicted

    def remove(self, file_name: str) -> None:
        """Drop a file (no-op if absent); pinned files cannot be dropped."""
        if self.is_pinned(file_name):
            raise ValueError(f"cannot remove pinned file {file_name!r}")
        self._files.pop(file_name, None)

    def files(self) -> List[str]:
        """Resident files, least recently used first."""
        return list(self._files)

    def _lru_unpinned(self):
        for name in self._files:
            if name not in self._pins:
                return name
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NodeStore {self.node} {self.used_mb:.0f}/{self.capacity_mb:.0f}MB "
            f"files={len(self._files)}>"
        )
