"""Replica catalog: which nodes currently hold which logical files.

The shared storage site is represented by the reserved location name
``ReplicaCatalog.STORAGE`` — initial workflow inputs are registered there
at run start, and any file may be archived back to it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set


class ReplicaCatalog:
    """Mutable mapping of logical file name → set of holding locations."""

    #: Reserved location name for the shared storage site.
    STORAGE = "<storage>"

    def __init__(self) -> None:
        self._locations: Dict[str, Set[str]] = {}
        #: Optional audit hook called as ``observer(op, file_name, location)``
        #: with ``op`` in {"register", "unregister"} *before* the mutation.
        #: Used by the sanitizer to timestamp catalog changes.
        self.observer: Optional[Callable[[str, str, str], None]] = None

    def register(self, file_name: str, location: str) -> None:
        """Record that ``location`` now holds a replica of ``file_name``."""
        if self.observer is not None:
            self.observer("register", file_name, location)
        self._locations.setdefault(file_name, set()).add(location)

    def unregister(self, file_name: str, location: str) -> None:
        """Remove a replica record (no-op if absent)."""
        if self.observer is not None:
            self.observer("unregister", file_name, location)
        locs = self._locations.get(file_name)
        if locs is not None:
            locs.discard(location)
            if not locs:
                del self._locations[file_name]

    def locations(self, file_name: str) -> List[str]:
        """All locations holding the file, sorted (STORAGE sorts first)."""
        locs = self._locations.get(file_name, set())
        return sorted(locs, key=lambda l: (l != self.STORAGE, l))

    def has(self, file_name: str, location: str) -> bool:
        """Whether ``location`` holds a replica."""
        return location in self._locations.get(file_name, set())

    def exists(self, file_name: str) -> bool:
        """Whether any replica of the file exists."""
        return bool(self._locations.get(file_name))

    def files_at(self, location: str) -> List[str]:
        """All files with a replica at ``location``, sorted."""
        return sorted(
            f for f, locs in self._locations.items() if location in locs
        )

    def clear(self) -> None:
        """Drop every record."""
        self._locations.clear()

    def __len__(self) -> int:
        return len(self._locations)

    def __contains__(self, file_name: str) -> bool:
        return self.exists(file_name)
