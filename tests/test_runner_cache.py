"""Shard-indexed result cache: round trips, durability, accounting."""

from __future__ import annotations

import json
import os

import pytest

import repro.runner.cache as cache_module
from repro.runner.cache import INDEX_SCHEMA, ResultCache

KEY = "ab" + "0" * 62
KEY2 = "cd" + "1" * 62
RECORD = {"makespan": 1.5, "success": True}


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


def _corrupt_entry(cache: ResultCache, key: str) -> None:
    """Scribble over the packed bytes of one entry on disk."""
    cache.sync()
    pack_rel, offset, length = cache._load_index()[key]
    path = os.path.join(cache.root, pack_rel)
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(b"x" * min(length, 8))


def test_get_on_empty_cache_is_a_miss(cache):
    """Missing entries read as None and count as misses."""
    assert cache.get(KEY) is None
    assert cache.stats.misses == 1
    assert cache.stats.hits == 0


def test_put_then_get_round_trips(cache):
    """A stored record comes back exactly and counts as a hit."""
    cache.put(KEY, RECORD)
    assert cache.get(KEY) == RECORD
    assert cache.stats.puts == 1
    assert cache.stats.hits == 1


def test_entries_are_packed_and_indexed(cache):
    """Records append to a pack file; sync writes the manifest."""
    cache.put(KEY, RECORD)
    cache.sync()
    packs = os.listdir(os.path.join(cache.root, "packs"))
    assert len(packs) == 1 and packs[0].startswith("pack-")
    with open(cache.index_path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    assert lines[0] == {"schema": INDEX_SCHEMA}
    assert lines[1]["k"] == KEY
    assert lines[1]["p"] == os.path.join("packs", packs[0])


def test_cache_survives_reopen(cache):
    """A second process (fresh instance) reads synced entries."""
    cache.put(KEY, RECORD)
    cache.close()
    again = ResultCache(cache.root)
    assert again.get(KEY) == RECORD
    assert len(again) == 1


def test_corrupt_entry_reads_as_miss(cache):
    """Scribbled pack bytes are a miss + error, never an exception."""
    cache.put(KEY, RECORD)
    _corrupt_entry(cache, KEY)
    again = ResultCache(cache.root)
    assert again.get(KEY) is None
    assert again.stats.errors == 1
    assert again.stats.misses == 1


def test_corrupt_manifest_line_is_skipped(cache):
    """A corrupt manifest line loses only that entry."""
    cache.put(KEY, RECORD)
    cache.put(KEY2, RECORD)
    cache.close()
    with open(cache.index_path, "a", encoding="utf-8") as fh:
        fh.write('{"k": "ef\n')  # a torn append, newline and all
    again = ResultCache(cache.root)
    assert again.get(KEY) == RECORD
    assert again.get(KEY2) == RECORD
    assert again.stats.errors == 1  # the torn line


def test_entry_with_wrong_embedded_key_reads_as_miss(cache):
    """An entry whose embedded key mismatches its manifest key is rejected."""
    cache.put(KEY, RECORD)
    cache.sync()
    pack_rel, offset, length = cache._load_index()[KEY]
    # Point a different key's manifest line at KEY's bytes.
    with open(cache.index_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(
            {"k": KEY2, "p": pack_rel, "o": offset, "n": length}
        ) + "\n")
    cache.close()
    again = ResultCache(cache.root)
    assert again.get(KEY2) is None
    assert again.stats.errors == 1


def test_overwrite_replaces_entry(cache):
    """Re-putting a key replaces the stored record (last write wins)."""
    cache.put(KEY, RECORD)
    cache.put(KEY, {"makespan": 9.0, "success": False})
    assert cache.get(KEY)["makespan"] == 9.0
    assert len(cache) == 1
    # ... including across a reopen (manifest order decides).
    cache.close()
    assert ResultCache(cache.root).get(KEY)["makespan"] == 9.0


def test_get_many_batches_lookups(cache):
    """get_many returns every hit and counts stats per unique key."""
    cache.put(KEY, RECORD)
    cache.put(KEY2, {"makespan": 2.0})
    missing = "ef" + "2" * 62
    out = cache.get_many([KEY, KEY2, KEY, missing])
    assert out == {KEY: RECORD, KEY2: {"makespan": 2.0}}
    assert cache.stats.hits == 2
    assert cache.stats.misses == 1


def test_len_is_manifest_count_not_a_walk(cache):
    """__len__ comes from the index; stray temp files don't count."""
    cache.put(KEY, RECORD)
    cache.put(KEY2, RECORD)
    os.makedirs(cache.packs_path, exist_ok=True)
    with open(os.path.join(cache.packs_path, ".tmp-zzz.jsonl"), "w") as fh:
        fh.write("{}")
    assert len(cache) == 2


def test_stray_per_file_entry_is_never_read(cache, monkeypatch):
    """The manifest is the only way in: an ``ab/<key>.json`` file (the
    layout before packs) is one miss per lookup and is never opened."""
    path = os.path.join(cache.root, KEY[:2], f"{KEY}.json")
    os.makedirs(os.path.dirname(path))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"key": KEY, "record": RECORD}, fh)
    cache._load_index()
    opened = []
    monkeypatch.setattr(
        cache_module, "open",
        lambda *args, **kwargs: opened.append(args[0]), raising=False,
    )
    assert cache.get(KEY) is None
    assert cache.stats.misses == 1 and cache.stats.hits == 0
    assert cache.get_many([KEY]) == {}
    assert cache.stats.misses == 2 and cache.stats.errors == 0
    assert opened == []
    assert len(cache) == 0


def test_pack_rotation_keeps_every_entry_readable(tmp_path):
    """Entries stay addressable across packs rotated at pack_max_bytes."""
    cache = ResultCache(str(tmp_path / "cache"), pack_max_bytes=1)
    # pack_max_bytes=1 rotates after every put: one pack per entry.
    keys = [f"{i:02x}" + "f" * 62 for i in range(4)]
    for i, key in enumerate(keys):
        cache.put(key, {"makespan": float(i)})
    cache.close()
    assert len(os.listdir(cache.packs_path)) == 4
    again = ResultCache(cache.root)
    assert again.get_many(keys) == {
        key: {"makespan": float(i)} for i, key in enumerate(keys)
    }


def test_loaded_index_reads_what_others_synced_since(tmp_path):
    """A loaded cache sees another instance's synced entries on its next
    lookup, and consumes a manifest line only once its newline is there."""
    reader = ResultCache(str(tmp_path / "cache"))
    assert reader.get(KEY) is None  # loaded while the cache was empty
    writer = ResultCache(reader.root)
    writer.put(KEY, RECORD)
    writer.sync()
    assert reader.get(KEY) == RECORD

    writer.put(KEY2, {"makespan": 2.0})
    writer.sync()
    with open(writer.index_path, "rb") as fh:
        manifest = fh.read()
    line = manifest[manifest.rfind(b"\n", 0, -1) + 1:]  # KEY2's line
    with open(writer.index_path, "wb") as fh:
        fh.write(manifest[: -len(line)] + line[:10])  # torn mid-line
    assert reader.get_many([KEY2]) == {}
    with open(writer.index_path, "ab") as fh:
        fh.write(line[10:])
    assert reader.get_many([KEY2]) == {KEY2: {"makespan": 2.0}}
    assert reader.stats.errors == 0


def test_unsynced_entries_lost_on_crash_simply_re_simulate(tmp_path):
    """Entries pending since the last sync read as misses after a crash."""
    cache = ResultCache(str(tmp_path / "cache"))
    cache.put(KEY, RECORD)
    fresh = ResultCache(cache.root)  # crash before any sync
    assert fresh.get(KEY) is None
    assert fresh.stats.misses == 1


def test_len_of_nonexistent_root_is_zero(cache):
    """A cache that never wrote anything has no directory and length 0."""
    assert len(cache) == 0
