"""Tests for the cluster model."""

import pytest

from repro.platform.cluster import Cluster
from repro.platform.devices import DeviceClass, catalogue
from repro.platform.nodes import NodeSpec
from repro.platform import presets


def two_node_cluster(**kwargs):
    cat = catalogue()
    return Cluster(
        "test",
        [
            NodeSpec.of("a", [cat["cpu-std"], cat["gpu-std"]]),
            NodeSpec.of("b", [cat["cpu-std"]]),
        ],
        **kwargs,
    )


class TestConstruction:
    def test_basic_lookup(self):
        cl = two_node_cluster()
        assert len(cl.devices) == 3
        assert cl.node("a").name == "a"
        uid = cl.devices[0].uid
        assert cl.device(uid).uid == uid

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster("empty", [])

    def test_duplicate_node_names_rejected(self):
        cat = catalogue()
        specs = [NodeSpec.of("x", [cat["cpu-std"]])] * 2
        with pytest.raises(ValueError):
            Cluster("dup", specs)

    def test_missing_lookup_raises(self):
        cl = two_node_cluster()
        with pytest.raises(KeyError):
            cl.node("zzz")
        with pytest.raises(KeyError):
            cl.device("zzz")

    def test_devices_of_class(self):
        cl = two_node_cluster()
        assert len(cl.devices_of_class(DeviceClass.CPU)) == 2

    def test_bad_storage_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            two_node_cluster(storage_bandwidth=0.0)


class TestTransfers:
    def test_same_node_costs_disk_pass(self):
        cl = two_node_cluster()
        t = cl.transfer_estimate("a", "a", 2000.0)
        assert t == pytest.approx(2000.0 / cl.node("a").disk_bandwidth)

    def test_cross_node_slower_than_same_node(self):
        cl = two_node_cluster()
        assert cl.transfer_estimate("a", "b", 500.0) > cl.transfer_estimate(
            "a", "a", 500.0
        )

    def test_zero_size_free(self):
        cl = two_node_cluster()
        assert cl.transfer_estimate("a", "b", 0.0) == 0.0
        assert cl.reserve_transfer("a", "b", 5.0, 0.0) == (5.0, 5.0)

    def test_negative_size_rejected(self):
        cl = two_node_cluster()
        with pytest.raises(ValueError):
            cl.transfer_estimate("a", "b", -1.0)

    def test_reserve_transfer_serializes_on_link(self):
        cl = two_node_cluster()
        s1, e1 = cl.reserve_transfer("a", "b", 0.0, 1000.0)
        s2, _e2 = cl.reserve_transfer("a", "b", 0.0, 1000.0)
        assert s1 == 0.0
        assert s2 == pytest.approx(e1)

    def test_reverse_direction_independent(self):
        cl = two_node_cluster()
        cl.reserve_transfer("a", "b", 0.0, 1000.0)
        s, _e = cl.reserve_transfer("b", "a", 0.0, 1000.0)
        assert s == 0.0

    def test_nic_caps_effective_bandwidth(self):
        cat = catalogue()
        slow_nic = NodeSpec.of("a", [cat["cpu-std"]], nic_bandwidth=10.0)
        fast = NodeSpec.of("b", [cat["cpu-std"]])
        cl = Cluster("niccap", [slow_nic, fast])
        # 100 MB over a 10 MB/s NIC: at least 10 s regardless of link speed.
        assert cl.transfer_estimate("a", "b", 100.0) >= 10.0


class TestStaging:
    def test_staging_estimate_positive(self):
        cl = two_node_cluster()
        assert cl.staging_estimate("a", 100.0) > 0.0
        assert cl.staging_estimate("a", 0.0) == 0.0

    def test_staging_negative_rejected(self):
        with pytest.raises(ValueError):
            two_node_cluster().staging_estimate("a", -1.0)

    def test_staging_serializes_on_storage(self):
        cl = two_node_cluster()
        _s1, e1 = cl.reserve_staging("a", 0.0, 1000.0)
        s2, _e2 = cl.reserve_staging("b", 0.0, 1000.0)
        assert s2 == pytest.approx(e1)
        assert cl.storage_bytes_served_mb == 2000.0

    def test_reset_clears_storage_frontier(self):
        cl = two_node_cluster()
        cl.reserve_staging("a", 0.0, 1000.0)
        cl.reset()
        s, _e = cl.reserve_staging("a", 0.0, 1.0)
        assert s == 0.0
        assert cl.storage_bytes_served_mb == 1.0


class TestSummaries:
    def test_total_and_reference_speed(self):
        cl = two_node_cluster()
        cat = catalogue()
        expected = 2 * cat["cpu-std"].speed + cat["gpu-std"].speed
        assert cl.total_speed() == pytest.approx(expected)
        assert cl.reference_speed() == cat["cpu-std"].speed

    def test_reference_speed_no_cpus_falls_back(self):
        cat = catalogue()
        cl = Cluster("gpuonly", [NodeSpec.of("a", [cat["gpu-std"]])])
        assert cl.reference_speed() == cat["gpu-std"].speed

    def test_describe_mentions_mix(self):
        text = two_node_cluster().describe()
        assert "2x cpu" in text
        assert "1x gpu" in text

    def test_alive_devices_excludes_failed(self):
        cl = two_node_cluster()
        cl.devices[0].failed = True
        assert len(cl.alive_devices()) == 2

    def test_reset_revives_devices(self):
        cl = two_node_cluster()
        cl.devices[0].failed = True
        cl.reset()
        assert len(cl.alive_devices()) == 3


class TestPresets:
    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    def test_presets_instantiate(self, name):
        cl = presets.by_name(name)
        assert len(cl.devices) >= 1
        assert cl.describe()

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            presets.by_name("nope")

    def test_hybrid_counts(self):
        cl = presets.hybrid_cluster(nodes=3, cores_per_node=2, gpus_per_node=2)
        assert len(cl.devices_of_class(DeviceClass.CPU)) == 6
        assert len(cl.devices_of_class(DeviceClass.GPU)) == 6

    def test_gpu_count_cluster_spreads_round_robin(self):
        cl = presets.gpu_count_cluster(5, nodes=4)
        per_node = [
            len(n.devices_of_class(DeviceClass.GPU)) for n in cl.nodes
        ]
        assert sum(per_node) == 5
        assert max(per_node) - min(per_node) <= 1

    def test_gpu_count_zero(self):
        cl = presets.gpu_count_cluster(0, nodes=2)
        assert cl.devices_of_class(DeviceClass.GPU) == []

    def test_dvfs_flag_equips_ladders(self):
        cl = presets.hybrid_cluster(nodes=1, dvfs=True)
        assert all(d.spec.power.dvfs_states for d in cl.devices)
        cl2 = presets.hybrid_cluster(nodes=1)
        assert all(not d.spec.power.dvfs_states for d in cl2.devices)

    def test_unrelated_cluster_has_many_classes(self):
        cl = presets.unrelated_cluster()
        assert len({d.device_class for d in cl.devices}) >= 4
