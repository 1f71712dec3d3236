"""Tests for the LRU node store."""

import pytest

from repro.data.cache import EvictionError, NodeStore


class TestNodeStore:
    def test_put_and_query(self):
        s = NodeStore("n0", 100.0)
        assert s.put("a", 30.0) == []
        assert s.has("a")
        assert s.used_mb == 30.0
        assert s.capacity_mb - s.used_mb == 70.0

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            NodeStore("n0", 0.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            NodeStore("n0", 10.0).put("a", -1.0)

    def test_lru_eviction_order(self):
        s = NodeStore("n0", 100.0)
        s.put("a", 40.0)
        s.put("b", 40.0)
        evicted = s.put("c", 40.0)
        assert evicted == ["a"]
        assert s.files() == ["b", "c"]
        assert s.evictions == 1
        assert s.bytes_evicted_mb == 40.0

    def test_touch_refreshes_recency(self):
        s = NodeStore("n0", 100.0)
        s.put("a", 40.0)
        s.put("b", 40.0)
        s.touch("a")
        evicted = s.put("c", 40.0)
        assert evicted == ["b"]

    def test_reput_refreshes_recency_without_duplication(self):
        s = NodeStore("n0", 100.0)
        s.put("a", 40.0)
        s.put("b", 40.0)
        assert s.put("a", 40.0) == []
        assert s.used_mb == 80.0
        evicted = s.put("c", 40.0)
        assert evicted == ["b"]

    def test_pinned_files_survive_eviction(self):
        s = NodeStore("n0", 100.0)
        s.put("a", 40.0)
        s.pin("a")
        s.put("b", 40.0)
        evicted = s.put("c", 40.0)
        assert evicted == ["b"]
        assert s.has("a")

    def test_all_pinned_raises(self):
        s = NodeStore("n0", 100.0)
        s.put("a", 60.0)
        s.pin("a")
        with pytest.raises(EvictionError):
            s.put("b", 60.0)

    def test_oversized_file_raises(self):
        s = NodeStore("n0", 100.0)
        with pytest.raises(EvictionError):
            s.put("huge", 200.0)

    def test_pin_absent_raises(self):
        with pytest.raises(KeyError):
            NodeStore("n0", 10.0).pin("ghost")

    def test_unpin_absent_noop(self):
        NodeStore("n0", 10.0).unpin("ghost")

    def test_remove(self):
        s = NodeStore("n0", 100.0)
        s.put("a", 10.0)
        s.remove("a")
        assert not s.has("a")
        s.remove("a")  # idempotent

    def test_remove_pinned_rejected(self):
        s = NodeStore("n0", 100.0)
        s.put("a", 10.0)
        s.pin("a")
        with pytest.raises(ValueError):
            s.remove("a")

    def test_multiple_evictions_for_one_put(self):
        s = NodeStore("n0", 100.0)
        s.put("a", 30.0)
        s.put("b", 30.0)
        s.put("c", 30.0)
        evicted = s.put("big", 70.0)
        assert evicted == ["a", "b"]
        assert s.files() == ["c", "big"]
