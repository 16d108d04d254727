"""The cluster's node columns against a dict-of-``(state, owner)`` model.

Random sequences of binds, unbinds, failures, recoveries, drains and
``fail_fraction`` run on a small cluster with satellites, and on a
reference model kept here.  After every step the liveness queries, the
per-id reads and the snapshot's sparse node rows must agree with the
model.  Id lists reach past the cluster's bind/unbind vector threshold,
so both the Python walk and the masked numpy write are exercised.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import quick_cluster
from repro.cluster import ClusterSpec, NodeState
from repro.errors import ClusterError
from repro.simkit import Simulator
from repro.snapshot.capture import _cluster_state

N_NODES, N_SATS = 150, 3
N_IDS = N_NODES + 1 + N_SATS
UP, ALLOC, DOWN = NodeState.UP, NodeState.ALLOC, NodeState.DOWN


class Model:
    """Per-id ``(state, owner)`` with the cluster's documented rules."""

    def __init__(self):
        self.nodes = {nid: (UP, None) for nid in range(N_IDS)}
        self.version = 0

    def valid(self, ids):
        return all(0 <= nid < N_IDS for nid in ids)

    def bind(self, ids, job):
        """Whether the bind must succeed; applies it if so."""
        if not self.valid(ids) or len(set(ids)) != len(ids):
            return False
        if any(self.nodes[nid] != (UP, None) for nid in ids):
            return False
        for nid in ids:
            self.nodes[nid] = (ALLOC, job)
        return True

    def unbind(self, ids, job):
        if not self.valid(ids):
            return False
        for nid in ids:
            state, owner = self.nodes[nid]
            if owner == job:
                self.nodes[nid] = (UP if state is ALLOC else state, None)
        return True

    def liveness(self, op, ids):
        if not self.valid(ids):
            return False
        for nid in ids:
            state, owner = self.nodes[nid]
            if op == "fail":
                self.nodes[nid] = (DOWN, owner)
            elif op == "recover" and state is DOWN:
                self.nodes[nid] = (UP, None)
        self.version += 1
        return True


def apply(step, cluster, model):
    op, ids, job = step
    if op == "fail_fraction":
        chosen = cluster.fail_fraction(job / 10)
        assert chosen == sorted(set(chosen))
        assert len(chosen) == round(job / 10 * N_NODES)
        assert all(type(nid) is int and 0 <= nid < N_NODES for nid in chosen)
        model.liveness("fail", chosen)
        return
    if op == "bind":
        ok = model.bind(ids, job)
    elif op == "unbind":
        ok = model.unbind(ids, job)
    else:
        ok = model.liveness(op, ids)
    write = {
        "bind": lambda: cluster.bind(ids, job),
        "unbind": lambda: cluster.unbind(ids, job),
        "fail": lambda: cluster.fail_nodes(ids),
        "recover": lambda: cluster.recover_nodes(ids),
    }[op]
    if ok:
        write()
    else:
        with pytest.raises(ClusterError):
            write()


def check(cluster, model):
    nodes = model.nodes
    for nid, (state, owner) in nodes.items():
        assert cluster.state_of(nid) is state
        assert cluster.owner_of(nid) == owner
        assert cluster.is_responsive(nid) == (state in (UP, ALLOC))
    dark = {nid for nid, (state, _) in nodes.items() if state is DOWN}
    assert cluster.unresponsive_ids() == dark
    assert cluster.down_ids() == {nid for nid in dark if nid < N_NODES}
    assert cluster.version == model.version
    rows = _cluster_state(cluster)["nodes"]
    assert rows == [
        [nid, state.name, owner]
        for nid, (state, owner) in sorted(nodes.items())
        if (state, owner) != (UP, None)
    ]
    # digests hash these rows: a leaked numpy scalar would change them
    assert all(type(nid) is int and type(owner) in (int, type(None)) for nid, _, owner in rows)


def with_repeat(lo, k, j):
    """A run of ``k`` ids with one of them repeated at its end."""
    run = tuple(range(lo, lo + k))
    return run + (run[j % k],)


ident = st.integers(-2, N_IDS + 1)
ids = st.one_of(
    st.lists(ident, max_size=6).map(tuple),
    # runs of ids, ascending or not, long enough for the vector path
    st.builds(
        lambda lo, k, rev: tuple(range(lo, min(lo + k, N_IDS)))[:: -1 if rev else 1],
        st.integers(0, N_IDS - 1), st.integers(1, 100), st.booleans(),
    ),
    st.builds(
        lambda lo, k, extra: tuple(range(lo, min(lo + k, N_IDS))) + (extra,),
        st.integers(0, N_IDS - 1), st.integers(60, 100), ident,
    ),
    st.builds(
        with_repeat, st.integers(0, N_NODES - 100), st.integers(1, 100), st.integers(0, 99)
    ),
)
step = st.one_of(
    st.tuples(st.sampled_from(["bind", "unbind"]), ids, st.integers(0, 4)),
    st.tuples(st.sampled_from(["fail", "recover"]), ids, st.just(0)),
    st.tuples(st.just("fail_fraction"), st.just(()), st.integers(0, 3)),
)


class TestColumnsTwin:
    @given(st.lists(step, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_model(self, steps):
        cluster = ClusterSpec(n_nodes=N_NODES, n_satellites=N_SATS).build(Simulator(seed=0))
        model = Model()
        check(cluster, model)
        for s in steps:
            apply(s, cluster, model)
            check(cluster, model)


class TestMachineScaleBuild:
    def test_131k_cluster_allocates_under_10mb(self):
        # Deterministic: counts allocated bytes, not time.  One object
        # per node took ~40 MB here; the build is now ~6 MB, most of it
        # the compute-id list that heartbeat rounds slice.
        quick_cluster(1024, 2)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            cluster = quick_cluster(131_072, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert len(cluster.state) == 131_072 + 1 + 64
        assert cluster.state.dtype == np.uint8 and cluster.owner.dtype == np.int64
