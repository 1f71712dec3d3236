"""On-disk content-addressed cache of simulation records.

Records are appended to *packed shard files* (JSON lines under
``packs/``) and addressed through a single append-only manifest,
``index.jsonl``: one header line carrying the schema version, then one
line per entry mapping ``key -> (pack file, byte offset, byte length)``.
Warm-starting a campaign therefore costs one index read plus one
sequential read per pack — not one ``open()`` per cell — and the entry
count is a dict length, not a directory walk.

Durability model: a pack line is written (and flushed) before its
manifest line, and manifest lines are batched (``sync_every``) and
force-flushed by :meth:`sync` / :meth:`close` — the campaign runner
syncs after every batch and on the error path.  A crash can therefore
lose at most the entries since the last sync; a truncated pack or
manifest line is skipped on load and the affected cells simply
re-simulate.  This is also the checkpoint/resume story: completed-cell
keys live in the manifest, so a killed campaign warm-starts from exactly
the cells it finished.

The manifest is the only way in: a key it does not list is a miss,
and no other file under the root is ever read.

Invalidation is automatic and content-based: the key hashes the full
workflow document, cluster spec, scheduler params and run configuration,
so editing any of them simply addresses a different entry.  Delete the
directory to reclaim disk.

Concurrent writers (two campaign processes sharing a cache root) are
safe but not coordinated: each process appends to its own pack file, and
manifest appends are single ``write()`` calls on an ``O_APPEND`` handle.
A process with a stale in-memory index may re-simulate a cell another
process already stored; the duplicate manifest entry is harmless (last
line wins on load).
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.runner.record import is_failure_record

#: Manifest header schema; bump on incompatible index-layout changes.
INDEX_SCHEMA = "repro.cache-index/v1"

#: Manifest and pack file names.
INDEX_NAME = "index.jsonl"
PACKS_DIR = "packs"


@dataclass
class CacheStats:
    """Hit/miss/put counters for one runner lifetime."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0
    #: Hits that recalled a persisted :class:`CellFailure` (quarantined
    #: cells carried over from a previous run) rather than a record.
    failure_hits: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "errors": self.errors,
            "failure_hits": self.failure_hits,
        }

    def count_hit(self, record: Dict[str, Any]) -> None:
        """Fold one successful lookup in, failure-aware."""
        self.hits += 1
        if is_failure_record(record):
            self.failure_hits += 1


@dataclass
class ResultCache:
    """Shard-indexed, content-addressed JSON store rooted at ``root``."""

    root: str
    stats: CacheStats = field(default_factory=CacheStats)
    #: Pending manifest lines are appended to disk every this many puts
    #: (plus on :meth:`sync` / :meth:`close` / batch boundaries).
    sync_every: int = 256
    #: Rotate the append pack when it grows past this size.
    pack_max_bytes: int = 4 << 20

    # -- internal state (not part of the dataclass API) ---------------- #
    _index: Optional[Dict[str, Tuple[str, int, int]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _pending: List[str] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _pack_rel: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )
    _pack_fh: Optional[io.BufferedWriter] = field(
        default=None, init=False, repr=False, compare=False
    )
    _index_fh: Optional[io.BufferedWriter] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # paths                                                              #
    # ------------------------------------------------------------------ #

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, INDEX_NAME)

    @property
    def packs_path(self) -> str:
        return os.path.join(self.root, PACKS_DIR)

    # ------------------------------------------------------------------ #
    # manifest                                                           #
    # ------------------------------------------------------------------ #

    def _load_index(self) -> Dict[str, Tuple[str, int, int]]:
        """The key -> (pack, offset, length) map, loaded once per process."""
        if self._index is not None:
            return self._index
        index: Dict[str, Tuple[str, int, int]] = {}
        try:
            with open(self.index_path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh):
                    try:
                        entry = json.loads(line)
                        if lineno == 0:
                            if entry.get("schema") != INDEX_SCHEMA:
                                raise ValueError("unknown index schema")
                            continue
                        index[entry["k"]] = (
                            entry["p"], int(entry["o"]), int(entry["n"])
                        )
                    except (ValueError, KeyError, TypeError):
                        # Truncated/corrupt line (crashed writer): the
                        # entry is lost, the cell will re-simulate.
                        self.stats.errors += 1
        except FileNotFoundError:
            pass
        except OSError:
            self.stats.errors += 1
        self._index = index
        return index

    def sync(self) -> None:
        """Append pending manifest lines to disk (the checkpoint step)."""
        if not self._pending:
            return
        if self._pack_fh is not None:
            self._pack_fh.flush()
        if self._index_fh is None:
            os.makedirs(self.root, exist_ok=True)
            fresh = (
                not os.path.exists(self.index_path)
                or os.path.getsize(self.index_path) == 0
            )
            self._index_fh = open(self.index_path, "ab")
            if fresh:
                header = json.dumps({"schema": INDEX_SCHEMA}) + "\n"
                self._index_fh.write(header.encode("utf-8"))
        self._index_fh.write("".join(self._pending).encode("utf-8"))
        self._index_fh.flush()
        self._pending.clear()

    def close(self) -> None:
        """Flush the manifest and release file handles (reopenable)."""
        self.sync()
        if self._pack_fh is not None:
            self._pack_fh.close()
            self._pack_fh = None
            self._pack_rel = None
        if self._index_fh is not None:
            self._index_fh.close()
            self._index_fh = None

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # reads                                                              #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _parse_entry(data: bytes, key: str) -> Dict[str, Any]:
        entry = json.loads(data)
        record = entry["record"]
        if entry.get("key") != key or not isinstance(record, dict):
            raise ValueError("malformed cache entry")
        return record

    def _read_your_writes(self) -> None:
        """Make this process's buffered pack appends visible to reads."""
        if self._pack_fh is not None:
            self._pack_fh.flush()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored record dict, or None on miss/corruption."""
        self._read_your_writes()
        located = self._load_index().get(key)
        if located is None:
            self.stats.misses += 1
            return None
        pack_rel, offset, length = located
        try:
            with open(os.path.join(self.root, pack_rel), "rb") as fh:
                fh.seek(offset)
                record = self._parse_entry(fh.read(length), key)
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            self.stats.errors += 1
            self.stats.misses += 1
            return None
        self.stats.count_hit(record)
        return record

    def get_many(self, keys: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        """Batched lookup: records for every hit, grouped by pack file.

        Each pack holding at least one requested entry is opened exactly
        once and its entries read in offset order — the warm-start path
        costs one index load plus one sequential pass per pack.
        """
        self._read_your_writes()
        index = self._load_index()
        out: Dict[str, Dict[str, Any]] = {}
        seen = set()
        by_pack: Dict[str, List[Tuple[int, int, str]]] = {}
        for key in keys:
            if key in seen:
                continue
            seen.add(key)
            located = index.get(key)
            if located is None:
                self.stats.misses += 1
                continue
            pack_rel, offset, length = located
            by_pack.setdefault(pack_rel, []).append((offset, length, key))
        for pack_rel in sorted(by_pack):
            wanted = sorted(by_pack[pack_rel])
            try:
                fh = open(os.path.join(self.root, pack_rel), "rb")
            except OSError:
                self.stats.errors += len(wanted)
                self.stats.misses += len(wanted)
                continue
            with fh:
                for offset, length, key in wanted:
                    try:
                        fh.seek(offset)
                        out[key] = self._parse_entry(fh.read(length), key)
                        self.stats.count_hit(out[key])
                    except (OSError, ValueError, KeyError,
                            json.JSONDecodeError):
                        self.stats.errors += 1
                        self.stats.misses += 1
        return out

    # ------------------------------------------------------------------ #
    # writes                                                             #
    # ------------------------------------------------------------------ #

    def _ensure_pack(self) -> io.BufferedWriter:
        if self._pack_fh is None:
            os.makedirs(self.packs_path, exist_ok=True)
            fd, path = tempfile.mkstemp(
                dir=self.packs_path, prefix="pack-", suffix=".jsonl"
            )
            self._pack_fh = os.fdopen(fd, "wb")
            self._pack_rel = os.path.join(PACKS_DIR, os.path.basename(path))
        return self._pack_fh

    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Append ``record`` under ``key`` to the current pack."""
        index = self._load_index()
        payload = json.dumps(
            {"key": key, "record": record}, sort_keys=True
        ) + "\n"
        data = payload.encode("utf-8")
        fh = self._ensure_pack()
        offset = fh.tell()
        fh.write(data)
        entry = (self._pack_rel, offset, len(data))
        index[key] = entry  # type: ignore[index]
        self._pending.append(json.dumps(
            {"k": key, "p": entry[0], "o": entry[1], "n": entry[2]}
        ) + "\n")
        self.stats.puts += 1
        if len(self._pending) >= max(self.sync_every, 1):
            self.sync()
        if fh.tell() >= self.pack_max_bytes:
            self.sync()
            fh.close()
            self._pack_fh = None
            self._pack_rel = None

    def __len__(self) -> int:
        """Number of entries: the manifest count, never a directory walk."""
        return len(self._load_index())
