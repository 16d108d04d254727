"""Tests for the node model."""

import pytest

from repro.cluster import ClusterSpec
from repro.cluster.node import HardwareSpec, Node, NodeRole, NodeState
from repro.errors import ClusterError
from repro.simkit import Simulator


def make_node(**kw):
    defaults = dict(node_id=0, name="cn00000")
    defaults.update(kw)
    return Node(**defaults)


def make_bound_cluster():
    """A small live cluster; ``Cluster.bind``/``unbind`` are the only way a
    node enters or leaves ALLOC."""
    return ClusterSpec(n_nodes=4, n_satellites=1).build(Simulator(seed=0))


class TestNodeValidation:
    def test_negative_id_rejected(self):
        with pytest.raises(ClusterError):
            make_node(node_id=-1)

    def test_zero_cores_rejected(self):
        with pytest.raises(ClusterError):
            make_node(cores=0)

    def test_defaults(self):
        n = make_node()
        assert n.role is NodeRole.COMPUTE
        assert n.state is NodeState.UP
        assert n.responsive
        assert n.allocatable


class TestNodeTransitions:
    def test_fail_and_recover(self):
        n = make_node()
        n.fail()
        assert n.state is NodeState.DOWN
        assert not n.responsive
        assert not n.allocatable
        n.recover()
        assert n.state is NodeState.UP

    def test_fail_idempotent(self):
        n = make_node()
        n.fail()
        n.fail()
        assert n.state is NodeState.DOWN

    def test_recover_only_from_down(self):
        n = make_node()
        n.recover()  # UP stays UP
        assert n.state is NodeState.UP
        n.drain()
        n.recover()  # DRAINED is not auto-recovered
        assert n.state is NodeState.DRAINED

    def test_drain_blocks_fail(self):
        n = make_node()
        n.drain()
        n.fail()
        assert n.state is NodeState.DRAINED
        n.undrain()
        assert n.state is NodeState.UP

    def test_allocate_release_cycle(self):
        cluster = make_bound_cluster()
        n = cluster.node(0)
        cluster.bind((0,), job_id=42)
        assert n.state is NodeState.ALLOC
        assert n.running_job == 42
        assert n.responsive  # allocated nodes still answer messages
        assert not n.allocatable
        cluster.unbind((0,), job_id=42)
        assert n.state is NodeState.UP
        assert n.running_job is None

    def test_double_allocate_rejected(self):
        cluster = make_bound_cluster()
        cluster.bind((0,), job_id=1)
        with pytest.raises(ClusterError):
            cluster.bind((0,), job_id=2)

    def test_allocate_down_node_rejected(self):
        cluster = make_bound_cluster()
        cluster.node(0).fail()
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
