"""Tests for the per-node rules.

A node is a dense id of a :class:`~repro.cluster.spec.Cluster`, whose
``state`` column holds its liveness.  Which job holds it is recorded by
the scheduler's :class:`~repro.sched.allocator.NodePool` alone.
"""

import pytest

from repro.cluster import ClusterSpec
from repro.cluster.node import NodeState
from repro.errors import ClusterError, SchedulingError
from repro.sched import Job, NodePool
from repro.simkit import Simulator


def make_cluster():
    """A small live cluster."""
    return ClusterSpec(n_nodes=4, n_satellites=1).build(Simulator(seed=0))


class Pick:
    """A placement policy that always picks the same nodes."""

    def __init__(self, *node_ids):
        self.node_ids = node_ids

    def select(self, free, k):
        return self.node_ids


def one_node_job(job_id):
    return Job(job_id, f"j{job_id}", "u", 1, 10.0, 20.0, 0.0)


class TestNodeValidation:
    def test_negative_id_rejected(self):
        cluster = make_cluster()
        for read in (
            cluster.state_of, cluster.is_responsive, cluster.name_of,
        ):
            with pytest.raises(ClusterError):
                read(-1)

    def test_defaults(self):
        cluster = make_cluster()
        assert cluster.state_of(0) is NodeState.UP
        assert cluster.is_responsive(0)


class TestNodeTransitions:
    def test_fail_and_recover(self):
        cluster = make_cluster()
        cluster.fail_nodes([0])
        assert cluster.state_of(0) is NodeState.DOWN
        assert not cluster.is_responsive(0)
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

    def test_double_allocate_rejected(self):
        # A node held by one job is never handed to another.
        pool = NodePool(make_cluster().compute_ids(), placement=Pick(0))
        pool.allocate(one_node_job(1), now=0.0)
        with pytest.raises(SchedulingError, match="placement returned"):
            pool.allocate(one_node_job(2), now=0.0)
        assert pool.running[1].node_ids == (0,)

    def test_allocate_down_node_rejected(self):
        pool = NodePool(make_cluster().compute_ids(), placement=Pick(0))
        pool.mark_down(0)
        with pytest.raises(SchedulingError, match="placement returned"):
            pool.allocate(one_node_job(1), now=0.0)
        assert not pool.running
