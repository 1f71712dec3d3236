"""Tests for the interconnect model."""

import pytest

from repro.platform.cluster import Cluster
from repro.platform.devices import catalogue
from repro.platform.interconnect import Interconnect, Link
from repro.platform.nodes import NodeSpec


class TestLink:
    def test_nominal_time(self):
        link = Link("a", "b", bandwidth=100.0, latency=0.5)
        assert link.nominal_time(50.0) == pytest.approx(0.5 + 0.5)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Link("a", "b", bandwidth=0.0, latency=0.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Link("a", "b", bandwidth=1.0, latency=-1.0)

    def test_reserve_serializes(self):
        link = Link("a", "b", bandwidth=100.0, latency=0.0)
        s1, e1 = link.reserve(0.0, 100.0)   # 1s transfer
        s2, e2 = link.reserve(0.0, 100.0)   # queued behind the first
        assert (s1, e1) == (0.0, 1.0)
        assert (s2, e2) == (1.0, 2.0)
        assert link.transfers == 2
        assert link.bytes_carried_mb == 200.0

    def test_reserve_after_gap_starts_at_earliest(self):
        link = Link("a", "b", bandwidth=100.0, latency=0.0)
        link.reserve(0.0, 100.0)
        s, _e = link.reserve(5.0, 100.0)
        assert s == 5.0

    def test_reset(self):
        link = Link("a", "b", bandwidth=100.0, latency=0.0)
        link.reserve(0.0, 100.0)
        link.reset()
        assert link.busy_until == 0.0
        assert link.transfers == 0


class TestInterconnect:
    def test_uniform_full_mesh(self):
        net = Interconnect.uniform(["a", "b", "c"], bandwidth=10.0)
        assert net.has_link("a", "b")
        assert net.has_link("c", "a")
        assert not net.has_link("a", "a")
        assert len(net.links) == 6

    def test_missing_link_raises(self):
        net = Interconnect()
        with pytest.raises(KeyError):
            net.link("a", "b")

    def test_nominal_time_same_node_free(self):
        net = Interconnect.uniform(["a", "b"])
        assert net.nominal_time("a", "a", 100.0) == 0.0

    def test_reserve_same_node_instant(self):
        net = Interconnect.uniform(["a", "b"])
        assert net.reserve("a", "a", 3.0, 100.0) == (3.0, 3.0)

    def test_total_traffic(self):
        net = Interconnect.uniform(["a", "b"], bandwidth=100.0, latency=0.0)
        net.reserve("a", "b", 0.0, 10.0)
        net.reserve("b", "a", 0.0, 20.0)
        assert net.total_traffic_mb() == 30.0

    def test_switched_has_core_link(self):
        net = Interconnect.switched(["a", "b"], core_bandwidth=500.0)
        core = net.core_link()
        assert core is not None
        assert core.bandwidth == 500.0
        assert Interconnect.uniform(["a"]).core_link() is None

    def test_reserve_switched_queues_on_core(self):
        # Core slower than edges: the backplane must become the bottleneck.
        names = ["a", "b", "c"]
        cat = catalogue()
        cluster = Cluster(
            "sw", [NodeSpec.of(n, [cat["cpu-std"]]) for n in names],
            interconnect=Interconnect.switched(
                names, edge_bandwidth=1000.0, core_bandwidth=100.0,
                latency=0.0,
            ),
            switched=True,
        )
        _s1, e1 = cluster.reserve_transfer("a", "b", 0.0, 100.0)
        _s2, e2 = cluster.reserve_transfer("c", "b", 0.0, 100.0)
        # each needs 1s of core; second must finish around t=2
        assert e1 >= 1.0
        assert e2 >= 2.0

    def test_reset_clears_all_links(self):
        net = Interconnect.uniform(["a", "b"], bandwidth=100.0)
        net.reserve("a", "b", 0.0, 100.0)
        net.reset()
        assert net.total_traffic_mb() == 0.0
