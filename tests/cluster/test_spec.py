"""Tests for ClusterSpec and the live Cluster."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeState
from repro.errors import ClusterError, ConfigurationError
from repro.simkit import Simulator


def small_cluster(n=64, sats=2, seed=0):
    sim = Simulator(seed=seed)
    return sim, ClusterSpec(n_nodes=n, n_satellites=sats).build(sim)


class TestSpec:
    def test_presets(self):
        assert ClusterSpec.tianhe2a().n_nodes == 16_384
        assert ClusterSpec.tianhe2a(n_nodes=4096).n_nodes == 4096
        assert ClusterSpec.ng_tianhe().n_nodes == 20_480
        assert ClusterSpec.ng_tianhe().n_satellites == 20

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(n_nodes=0)
        with pytest.raises(ConfigurationError):
            ClusterSpec(n_satellites=-1)


class TestCluster:
    def test_node_id_layout(self):
        _, cluster = small_cluster(n=64, sats=3)
        assert cluster.compute_ids() == list(range(64))
        assert cluster.master_id == 64
        assert cluster.satellite_ids == [65, 66, 67]

    def test_lookup(self):
        _, cluster = small_cluster()
        assert cluster.name_of(0) == "cn00000"
        assert cluster.name_of(cluster.master_id) == "master"
        assert [cluster.name_of(s) for s in cluster.satellite_ids] == ["sat00", "sat01"]
        with pytest.raises(ClusterError):
            cluster.state_of(9999)

    def test_topology_coordinates_assigned(self):
        # Coordinates are derived from the id on demand, not stored.
        _, cluster = small_cluster(n=20)
        assert cluster.topology is cluster.spec.topology
        assert cluster.topology.coordinates(9) == (0, 0, 1)

    def test_up_and_down_queries(self):
        _, cluster = small_cluster(n=10)
        assert sum(cluster.state_of(i) is NodeState.UP for i in cluster.compute_ids()) == 10
        cluster.fail_nodes([2, 5])
        assert cluster.down_ids() == {2, 5}
        assert not cluster.is_responsive(2)
        cluster.recover_nodes([2])
        assert cluster.down_ids() == {5}

    def test_fail_fraction_deterministic(self):
        _, c1 = small_cluster(n=100, seed=3)
        _, c2 = small_cluster(n=100, seed=3)
        ids1 = c1.fail_fraction(0.1)
        ids2 = c2.fail_fraction(0.1)
        assert ids1 == ids2
        assert len(ids1) == 10

    def test_fail_fraction_bounds(self):
        _, cluster = small_cluster()
        with pytest.raises(ClusterError):
            cluster.fail_fraction(1.5)
        assert cluster.fail_fraction(0.0) == []

    def test_all_nodes_iteration_order(self):
        # The columns cover every id: compute, then master, then satellites.
        _, cluster = small_cluster(n=5, sats=2)
        ids = cluster.compute_ids() + [cluster.master_id] + cluster.satellite_ids
        assert ids == [0, 1, 2, 3, 4, 5, 6, 7]
        assert len(cluster.state) == 8


class TestIdValidation:
    @pytest.mark.parametrize("bad", [-1, 64 + 1 + 2])
    def test_out_of_range_id_raises_everywhere(self, bad):
        # -1 would silently index the last column; n + 1 + m is one past it.
        _, cluster = small_cluster(n=64, sats=2)
        for read in (
            cluster.state_of, cluster.is_responsive, cluster.name_of,
        ):
            with pytest.raises(ClusterError, match="unknown node id"):
                read(bad)
        for write in (cluster.fail_nodes, cluster.recover_nodes):
            with pytest.raises(ClusterError, match="unknown node id"):
                write([1, 2, bad])
        assert not cluster.state.any()

    def test_last_id_is_valid(self):
        _, cluster = small_cluster(n=64, sats=2)
        last = 64 + 2
        assert cluster.name_of(last) == "sat01"
        cluster.fail_nodes([last])
        assert cluster.unresponsive_ids() == {last}
