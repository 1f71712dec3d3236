"""Tests for the replica catalog."""

from repro.data.catalog import ReplicaCatalog


class TestReplicaCatalog:
    def test_register_and_query(self):
        cat = ReplicaCatalog()
        cat.register("f", "n0")
        assert cat.has("f", "n0")
        assert cat.exists("f")
        assert "f" in cat
        assert len(cat.locations("f")) == 1

    def test_missing_file(self):
        cat = ReplicaCatalog()
        assert not cat.exists("ghost")
        assert cat.locations("ghost") == []
        assert len(cat.locations("ghost")) == 0

    def test_multiple_replicas(self):
        cat = ReplicaCatalog()
        cat.register("f", "n1")
        cat.register("f", "n0")
        assert cat.locations("f") == ["n0", "n1"]
        assert len(cat.locations("f")) == 2

    def test_storage_sorts_first(self):
        cat = ReplicaCatalog()
        cat.register("f", "a-node")
        cat.register("f", ReplicaCatalog.STORAGE)
        assert cat.locations("f")[0] == ReplicaCatalog.STORAGE

    def test_register_idempotent(self):
        cat = ReplicaCatalog()
        cat.register("f", "n0")
        cat.register("f", "n0")
        assert len(cat.locations("f")) == 1

    def test_unregister(self):
        cat = ReplicaCatalog()
        cat.register("f", "n0")
        cat.register("f", "n1")
        cat.unregister("f", "n0")
        assert cat.locations("f") == ["n1"]
        cat.unregister("f", "n1")
        assert not cat.exists("f")

    def test_unregister_absent_noop(self):
        cat = ReplicaCatalog()
        cat.unregister("ghost", "n0")  # no exception

    def test_files_at(self):
        cat = ReplicaCatalog()
        cat.register("b", "n0")
        cat.register("a", "n0")
        cat.register("c", "n1")
        assert cat.files_at("n0") == ["a", "b"]
        assert cat.files_at("n9") == []

    def test_len_counts_files(self):
        cat = ReplicaCatalog()
        cat.register("a", "n0")
        cat.register("a", "n1")
        cat.register("b", "n0")
        assert len(cat) == 2

    def test_clear(self):
        cat = ReplicaCatalog()
        cat.register("a", "n0")
        cat.clear()
        assert len(cat) == 0
