"""The cluster's liveness column against a dict-of-states model.

Random sequences of failures, recoveries and ``fail_fraction`` run on a
small cluster with satellites, and on a reference model kept here.
After every step the liveness queries, the per-id reads and the
snapshot's down list must agree with the model.
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
UP, DOWN = NodeState.UP, NodeState.DOWN


class Model:
    """Per-id state with the cluster's documented rules."""

    def __init__(self):
        self.nodes = {nid: UP for nid in range(N_IDS)}
        self.version = 0

    def liveness(self, op, ids):
        """Whether the write must succeed; applies it if so."""
        if not all(0 <= nid < N_IDS for nid in ids):
            return False
        for nid in ids:
            self.nodes[nid] = DOWN if op == "fail" else UP
        self.version += 1
        return True


def apply(step, cluster, model):
    op, ids, tenths = step
    if op == "fail_fraction":
        chosen = cluster.fail_fraction(tenths / 10)
        assert chosen == sorted(set(chosen))
        assert len(chosen) == round(tenths / 10 * N_NODES)
        assert all(type(nid) is int and 0 <= nid < N_NODES for nid in chosen)
        model.liveness("fail", chosen)
        return
    write = cluster.fail_nodes if op == "fail" else cluster.recover_nodes
    if model.liveness(op, ids):
        write(ids)
    else:
        with pytest.raises(ClusterError):
            write(ids)


def check(cluster, model):
    nodes = model.nodes
    for nid, state in nodes.items():
        assert cluster.state_of(nid) is state
        assert cluster.is_responsive(nid) == (state is UP)
    dark = {nid for nid, state in nodes.items() if state is DOWN}
    assert cluster.unresponsive_ids() == dark
    assert cluster.down_ids() == {nid for nid in dark if nid < N_NODES}
    assert cluster.version == model.version
    down = _cluster_state(cluster)["down"]
    assert down == sorted(dark)
    # digests hash this list: a leaked numpy scalar would change them
    assert all(type(nid) is int for nid in down)


ident = st.integers(-2, N_IDS + 1)
ids = st.one_of(
    st.lists(ident, max_size=6).map(tuple),
    # runs of ids, ascending or not, some with a repeat or a bad id at the end
    st.builds(
        lambda lo, k, rev: tuple(range(lo, min(lo + k, N_IDS)))[:: -1 if rev else 1],
        st.integers(0, N_IDS - 1), st.integers(1, 100), st.booleans(),
    ),
    st.builds(
        lambda lo, k, extra: tuple(range(lo, min(lo + k, N_IDS))) + (extra,),
        st.integers(0, N_IDS - 1), st.integers(1, 100), ident,
    ),
)
step = st.one_of(
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
        assert cluster.state.dtype == np.uint8
