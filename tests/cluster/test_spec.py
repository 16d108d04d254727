"""Tests for ClusterSpec and the live Cluster."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeRole, NodeState
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

    def test_with_satellites(self):
        spec = ClusterSpec(n_nodes=10).with_satellites(7)
        assert spec.n_satellites == 7
        assert spec.n_nodes == 10

    def test_total_cores(self):
        spec = ClusterSpec.tianhe2a(n_nodes=100)
        assert spec.total_cores == 100 * 12


class TestCluster:
    def test_node_id_layout(self):
        _, cluster = small_cluster(n=64, sats=3)
        assert [n.node_id for n in cluster.nodes] == list(range(64))
        assert cluster.master.node_id == 64
        assert [s.node_id for s in cluster.satellites] == [65, 66, 67]

    def test_roles(self):
        _, cluster = small_cluster()
        assert cluster.master.role is NodeRole.MASTER
        assert all(s.role is NodeRole.SATELLITE for s in cluster.satellites)
        assert all(n.role is NodeRole.COMPUTE for n in cluster.nodes)

    def test_lookup(self):
        _, cluster = small_cluster()
        assert cluster.node(0).name == "cn00000"
        with pytest.raises(ClusterError):
            cluster.node(9999)

    def test_topology_coordinates_assigned(self):
        _, cluster = small_cluster(n=20)
        n9 = cluster.node(9)
        assert (n9.rack, n9.chassis, n9.board) == cluster.topology.coordinates(9)

    def test_up_and_down_queries(self):
        _, cluster = small_cluster(n=10)
        assert len(cluster.up_nodes()) == 10
        cluster.fail_nodes([2, 5])
        assert cluster.down_ids() == {2, 5}
        assert cluster.failed_fraction() == 0.2
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
        _, cluster = small_cluster(n=5, sats=2)
        ids = [n.node_id for n in cluster.all_nodes()]
        assert ids == [0, 1, 2, 3, 4, 5, 6, 7]


class TestBind:
    def test_bind_and_unbind(self):
        _, cluster = small_cluster(n=8)
        cluster.bind((1, 2, 3), job_id=7)
        assert [cluster.node(i).running_job for i in (1, 2, 3)] == [7, 7, 7]
        assert all(cluster.node(i).state is NodeState.ALLOC for i in (1, 2, 3))
        # bound nodes still answer messages
        assert all(cluster.node(i).responsive for i in (1, 2, 3))
        cluster.unbind((1, 2, 3), job_id=7)
        assert all(cluster.node(i).allocatable for i in (1, 2, 3))

    def test_bind_down_node_raises(self):
        _, cluster = small_cluster(n=8)
        cluster.fail_nodes([4])
        with pytest.raises(ClusterError, match="not allocatable"):
            cluster.bind((3, 4), job_id=1)

    def test_bind_already_bound_node_raises(self):
        _, cluster = small_cluster(n=8)
        cluster.bind((0, 1), job_id=1)
        with pytest.raises(ClusterError, match="not allocatable"):
            cluster.bind((1, 2), job_id=2)

    def test_bind_unknown_id_raises(self):
        _, cluster = small_cluster(n=8)
        with pytest.raises(ClusterError, match="unknown node id"):
            cluster.bind((9999,), job_id=1)

    def test_unbind_skips_nodes_rebound_to_another_job(self):
        _, cluster = small_cluster(n=8)
        cluster.bind((0, 1), job_id=1)
        cluster.unbind((1,), job_id=1)
        cluster.bind((1,), job_id=2)
        cluster.unbind((0, 1), job_id=1)
        assert cluster.node(0).allocatable
        assert cluster.node(1).running_job == 2
        assert cluster.node(1).state is NodeState.ALLOC

    def test_fail_while_bound_then_recover_clears_job(self):
        _, cluster = small_cluster(n=8)
        cluster.bind((5,), job_id=7)
        cluster.fail_nodes([5])
        assert cluster.node(5).running_job == 7  # binding survives until recovery
        cluster.recover_nodes([5])
        assert cluster.node(5).running_job is None
        assert cluster.node(5).allocatable

    def test_unbind_down_node_keeps_it_down(self):
        _, cluster = small_cluster(n=8)
        cluster.bind((5,), job_id=1)
        cluster.fail_nodes([5])
        cluster.unbind((5,), job_id=1)
        assert cluster.node(5).running_job is None
        assert cluster.node(5).state is NodeState.DOWN
