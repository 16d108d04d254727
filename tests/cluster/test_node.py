"""Tests for the per-node rules, read through the cluster's columns.

A node is a dense id of a :class:`~repro.cluster.spec.Cluster`; its
state and job binding live in the cluster's ``state``/``owner`` columns.
"""

import pytest

from repro.cluster import ClusterSpec
from repro.cluster.node import HardwareSpec, NodeRole, NodeState
from repro.errors import ClusterError
from repro.simkit import Simulator


def make_cluster():
    """A small live cluster; ``Cluster.bind``/``unbind`` are the only way a
    node enters or leaves ALLOC."""
    return ClusterSpec(n_nodes=4, n_satellites=1).build(Simulator(seed=0))


def allocatable(cluster, node_id):
    return cluster.state_of(node_id) is NodeState.UP and cluster.owner_of(node_id) is None


class TestNodeValidation:
    def test_negative_id_rejected(self):
        cluster = make_cluster()
        for read in (
            cluster.state_of, cluster.owner_of, cluster.is_responsive,
            cluster.name_of, cluster.role_of,
        ):
            with pytest.raises(ClusterError):
                read(-1)

    def test_zero_cores_rejected(self):
        with pytest.raises(ClusterError):
            ClusterSpec(compute_hw=HardwareSpec(cores=0))

    def test_defaults(self):
        cluster = make_cluster()
        assert cluster.role_of(0) is NodeRole.COMPUTE
        assert cluster.state_of(0) is NodeState.UP
        assert cluster.is_responsive(0)
        assert allocatable(cluster, 0)


class TestNodeTransitions:
    def test_fail_and_recover(self):
        cluster = make_cluster()
        cluster.fail_nodes([0])
        assert cluster.state_of(0) is NodeState.DOWN
        assert not cluster.is_responsive(0)
        assert not allocatable(cluster, 0)
        cluster.recover_nodes([0])
        assert cluster.state_of(0) is NodeState.UP

    def test_fail_idempotent(self):
        cluster = make_cluster()
        cluster.fail_nodes([0])
        cluster.fail_nodes([0])
        assert cluster.state_of(0) is NodeState.DOWN

    def test_recover_only_from_down(self):
        cluster = make_cluster()
        cluster.recover_nodes([0])  # UP stays UP
        assert cluster.state_of(0) is NodeState.UP

    def test_allocate_release_cycle(self):
        cluster = make_cluster()
        cluster.bind((0,), job_id=42)
        assert cluster.state_of(0) is NodeState.ALLOC
        assert cluster.owner_of(0) == 42
        assert cluster.is_responsive(0)  # allocated nodes still answer messages
        assert not allocatable(cluster, 0)
        cluster.unbind((0,), job_id=42)
        assert cluster.state_of(0) is NodeState.UP
        assert cluster.owner_of(0) is None

    def test_double_allocate_rejected(self):
        cluster = make_cluster()
        cluster.bind((0,), job_id=1)
        with pytest.raises(ClusterError):
            cluster.bind((0,), job_id=2)

    def test_allocate_down_node_rejected(self):
        cluster = make_cluster()
        cluster.fail_nodes([0])
        with pytest.raises(ClusterError):
            cluster.bind((0,), job_id=1)


class TestHardwareSpec:
    def test_invalid_spec_rejected(self):
        with pytest.raises(ClusterError):
            HardwareSpec(cores=0)

    def test_frozen(self):
        hw = HardwareSpec()
        with pytest.raises(AttributeError):
            hw.cores = 5  # type: ignore[misc]
