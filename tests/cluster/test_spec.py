"""Tests for ClusterSpec and the live Cluster."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec, NodeRole, NodeState
from repro.cluster.spec import _VECTOR_MIN
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


def allocatable(cluster, node_id):
    return cluster.state_of(node_id) is NodeState.UP and cluster.owner_of(node_id) is None


def columns(cluster):
    return cluster.state.copy(), cluster.owner.copy()


class TestCluster:
    def test_node_id_layout(self):
        _, cluster = small_cluster(n=64, sats=3)
        assert cluster.compute_ids() == list(range(64))
        assert cluster.master_id == 64
        assert cluster.satellite_ids == [65, 66, 67]

    def test_roles(self):
        _, cluster = small_cluster()
        assert cluster.role_of(cluster.master_id) is NodeRole.MASTER
        assert all(cluster.role_of(s) is NodeRole.SATELLITE for s in cluster.satellite_ids)
        assert all(cluster.role_of(n) is NodeRole.COMPUTE for n in cluster.compute_ids())

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
        assert sum(allocatable(cluster, i) for i in cluster.compute_ids()) == 10
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
        # The columns cover every id: compute, then master, then satellites.
        _, cluster = small_cluster(n=5, sats=2)
        ids = cluster.compute_ids() + [cluster.master_id] + cluster.satellite_ids
        assert ids == [0, 1, 2, 3, 4, 5, 6, 7]
        assert len(cluster.state) == len(cluster.owner) == 8


# Both bind/unbind paths: a few ids walk the columns in Python, many ids
# take one masked numpy write.
SMALL, LARGE = (1, 2, 3), tuple(range(1, _VECTOR_MIN + 16))


class TestBind:
    def test_bind_and_unbind(self):
        _, cluster = small_cluster(n=8)
        cluster.bind((1, 2, 3), job_id=7)
        assert [cluster.owner_of(i) for i in (1, 2, 3)] == [7, 7, 7]
        assert all(cluster.state_of(i) is NodeState.ALLOC for i in (1, 2, 3))
        # bound nodes still answer messages
        assert all(cluster.is_responsive(i) for i in (1, 2, 3))
        cluster.unbind((1, 2, 3), job_id=7)
        assert all(allocatable(cluster, i) for i in (1, 2, 3))

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
        assert allocatable(cluster, 0)
        assert cluster.owner_of(1) == 2
        assert cluster.state_of(1) is NodeState.ALLOC

    def test_fail_while_bound_then_recover_clears_job(self):
        _, cluster = small_cluster(n=8)
        cluster.bind((5,), job_id=7)
        cluster.fail_nodes([5])
        assert cluster.owner_of(5) == 7  # binding survives until recovery
        cluster.recover_nodes([5])
        assert cluster.owner_of(5) is None
        assert allocatable(cluster, 5)

    def test_unbind_down_node_keeps_it_down(self):
        _, cluster = small_cluster(n=8)
        cluster.bind((5,), job_id=1)
        cluster.fail_nodes([5])
        cluster.unbind((5,), job_id=1)
        assert cluster.owner_of(5) is None
        assert cluster.state_of(5) is NodeState.DOWN

    @pytest.mark.parametrize("ids", [SMALL, LARGE])
    def test_unbind_releases_only_the_jobs_live_nodes(self, ids):
        _, cluster = small_cluster(n=128)
        cluster.bind(ids, job_id=1)
        cluster.unbind(ids[:1], job_id=1)  # shrink the first node away...
        cluster.bind(ids[:1], job_id=2)  # ...and hand it to another job
        cluster.fail_nodes([ids[1]])
        cluster.unbind(ids, job_id=1)
        assert cluster.owner_of(ids[0]) == 2  # rebound to another job: kept
        assert cluster.state_of(ids[0]) is NodeState.ALLOC
        assert cluster.owner_of(ids[1]) is None
        assert cluster.state_of(ids[1]) is NodeState.DOWN  # unbound, still down
        assert all(allocatable(cluster, i) for i in ids[2:])


class TestIdValidation:
    @pytest.mark.parametrize("bad", [-1, 64 + 1 + 2])
    def test_out_of_range_id_raises_everywhere(self, bad):
        # -1 would silently index the last column; n + 1 + m is one past it.
        _, cluster = small_cluster(n=64, sats=2)
        for read in (
            cluster.state_of, cluster.owner_of, cluster.is_responsive,
            cluster.name_of, cluster.role_of,
        ):
            with pytest.raises(ClusterError, match="unknown node id"):
                read(bad)
        for write in (
            cluster.fail_nodes, cluster.recover_nodes,
            cluster.drain_nodes, cluster.undrain_nodes,
        ):
            with pytest.raises(ClusterError, match="unknown node id"):
                write([bad])
        for ids in (SMALL + (bad,), LARGE + (bad,)):
            with pytest.raises(ClusterError, match="unknown node id"):
                cluster.bind(ids, job_id=1)
            with pytest.raises(ClusterError, match="unknown node id"):
                cluster.unbind(ids, job_id=1)
        assert not cluster.state.any() and (cluster.owner == -1).all()

    def test_last_id_is_valid(self):
        _, cluster = small_cluster(n=64, sats=2)
        last = 64 + 2
        assert cluster.name_of(last) == "sat01"
        cluster.fail_nodes([last])
        assert cluster.unresponsive_ids() == {last}

    def test_unbind_unknown_id_raises(self):
        _, cluster = small_cluster(n=8)
        with pytest.raises(ClusterError, match="unknown node id"):
            cluster.unbind((9999,), job_id=1)

    @pytest.mark.parametrize("ids", [SMALL, LARGE])
    def test_repeated_id_in_one_bind_rejected(self, ids):
        _, cluster = small_cluster(n=128)
        before = columns(cluster)
        with pytest.raises(ClusterError, match="repeated node id"):
            cluster.bind(ids + (ids[1],), job_id=1)
        assert all(map(np.array_equal, columns(cluster), before))

    @pytest.mark.parametrize("ids", [SMALL, LARGE])
    def test_rejected_bind_leaves_columns_unchanged(self, ids):
        # The bad node is the last one: nodes before it must not be bound.
        _, cluster = small_cluster(n=128)
        cluster.bind((ids[-1] + 1,), job_id=3)
        cluster.fail_nodes([ids[-1] + 2])
        for bad in (ids[-1] + 1, ids[-1] + 2, 9999):
            before = columns(cluster)
            with pytest.raises(ClusterError):
                cluster.bind(ids + (bad,), job_id=1)
            assert all(map(np.array_equal, columns(cluster), before))
