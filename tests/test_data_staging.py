"""Tests for staging source selection."""

import pytest

from repro.data.catalog import ReplicaCatalog
from repro.data.staging import choose_source
from repro.platform import presets


@pytest.fixture
def cluster():
    return presets.hybrid_cluster(nodes=3, cores_per_node=1)


class TestChooseSource:
    def test_local_replica_is_free(self, cluster):
        cat = ReplicaCatalog()
        cat.register("f", "n1")
        d = choose_source(cat, cluster, "f", 100.0, "n1")
        assert d.source == d.destination
        assert d.cost == 0.0

    def test_no_replica_raises(self, cluster):
        with pytest.raises(LookupError):
            choose_source(ReplicaCatalog(), cluster, "ghost", 1.0, "n0")

    def test_prefers_cheapest_source(self, cluster):
        cat = ReplicaCatalog()
        cat.register("f", ReplicaCatalog.STORAGE)
        cat.register("f", "n1")
        d = choose_source(cat, cluster, "f", 500.0, "n0")
        peer = cluster.transfer_estimate("n1", "n0", 500.0)
        storage = cluster.staging_estimate("n0", 500.0)
        assert d.cost == pytest.approx(min(peer, storage))

    def test_storage_only(self, cluster):
        cat = ReplicaCatalog()
        cat.register("f", ReplicaCatalog.STORAGE)
        d = choose_source(cat, cluster, "f", 100.0, "n2")
        assert d.source == ReplicaCatalog.STORAGE
        assert d.cost > 0

    def test_decision_fields(self, cluster):
        cat = ReplicaCatalog()
        cat.register("f", "n0")
        d = choose_source(cat, cluster, "f", 42.0, "n2")
        assert d.file_name == "f"
        assert d.size_mb == 42.0
        assert d.destination == "n2"
        assert d.source != d.destination
