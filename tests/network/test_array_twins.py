"""Id arrays and id lists give the same answers.

A job's allocation travels from the scheduler pool to the broadcast
engines as a read-only ``int64`` array, while heartbeats, experiments
and tests still hand over Python lists.  Every consumer on that path
must treat the two alike: the FP-Tree constructor, the monitor's
predicted-failed lookup, and every broadcast engine, whose ``failed``
and ``arrivals`` must hold Python ints whichever form came in.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, FailureModel
from repro.cluster.monitoring import MonitoringConfig
from repro.cluster.node import node_array
from repro.fptree import FPTreeBroadcast, FPTreeConstructor, StaticSetPredictor
from repro.fptree.predictor import MonitorAlertPredictor, OraclePredictor
from repro.network import (
    NetworkFabric,
    RingBroadcast,
    SharedMemoryBroadcast,
    StarBroadcast,
    TreeBroadcast,
)
from repro.simkit import Simulator

N_NODES = 300
N_SATELLITES = 3
HOUR = 3600.0


def build(ttl_hours=6.0):
    sim = Simulator(seed=0)
    spec = ClusterSpec(
        n_nodes=N_NODES,
        n_satellites=N_SATELLITES,
        monitoring=MonitoringConfig(alert_ttl_hours=ttl_hours),
        failure_model=FailureModel.disabled(),
    )
    cluster = spec.build(sim)
    return sim, cluster, NetworkFabric(sim, cluster)


def both_forms(ids):
    """The same ids as a list of Python ints and as an allocation."""
    return list(ids), node_array(ids)


#: distinct target lists, short (scalar tree path) and long (level sweep)
targets_st = st.lists(st.integers(0, N_NODES - 1), unique=True, max_size=200)
down_st = st.sets(st.integers(0, N_NODES - 1), max_size=40)


def plain(result):
    """A result's fields, failing unless its ids are Python ints."""
    assert all(type(nid) is int for nid in result.failed)
    assert all(type(nid) is int for nid in result.arrivals)
    return (
        result.structure,
        result.makespan_s,
        result.n_targets,
        result.failed,
        result.n_timeouts,
        result.arrivals,
    )


ENGINES = [
    RingBroadcast(),
    StarBroadcast(concurrency=8),
    SharedMemoryBroadcast(),
    TreeBroadcast(width=4),
    TreeBroadcast(width=32, per_target_root_s=1e-5),
]


class TestBroadcastEngines:
    @given(targets_st, down_st, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_engine_alike(self, targets, down, record):
        _, cluster, fabric = build()
        cluster.fail_nodes(sorted(down))
        as_list, as_array = both_forms(targets)
        root = cluster.master_id
        for engine in [*ENGINES, FPTreeBroadcast(StaticSetPredictor(down), width=4)]:
            want = engine.simulate(root, as_list, 1024, fabric, record_arrivals=record)
            got = engine.simulate(root, as_array, 1024, fabric, record_arrivals=record)
            assert plain(got) == plain(want), engine.name

    @given(st.lists(targets_st, min_size=1, max_size=4), down_st)
    @settings(max_examples=40, deadline=None)
    def test_forests_alike(self, parts, down):
        _, cluster, fabric = build()
        cluster.fail_nodes(sorted(down))
        roots = [N_NODES + 1 + i % N_SATELLITES for i in range(len(parts))]
        for engine in (TreeBroadcast(width=4), FPTreeBroadcast(StaticSetPredictor(down), width=4)):
            want = engine.simulate_forest(list(zip(roots, parts)), 512, fabric)
            got = engine.simulate_forest(
                [(root, node_array(part)) for root, part in zip(roots, parts)], 512, fabric
            )
            assert [plain(r) for r in got] == [plain(r) for r in want], engine.name


class TestConstruct:
    @given(targets_st, st.sets(st.integers(0, N_NODES - 1), max_size=120), st.integers(2, 8))
    @settings(max_examples=120, deadline=None)
    def test_construct_alike(self, targets, predicted, width):
        # up to 120 predicted among 200 targets: often more than the leaves
        outs = []
        for form in both_forms(targets):
            ctor = FPTreeConstructor(StaticSetPredictor(predicted), width=width)
            ordered = ctor.construct(0, form)
            assert ordered.dtype == np.int64 and not ordered.flags.writeable
            outs.append((ordered.tolist(), ctor.stats))
        assert outs[0] == outs[1]

    def test_more_predicted_than_leaves(self):
        targets = list(range(1, 41))
        ctor = FPTreeConstructor(StaticSetPredictor(range(1, 41, 2)), width=2)
        leaves = ctor._target_leaves(len(targets))
        assert len(leaves) < 20
        got = [ctor.construct(0, form).tolist() for form in both_forms(targets)]
        assert got[0] == got[1]
        assert {got[0][i] for i in leaves.tolist()} <= set(range(1, 41, 2))

    def test_nothing_predicted_returns_the_array(self):
        ctor = FPTreeConstructor(StaticSetPredictor(()), width=4)
        part = node_array(range(10, 80))
        assert ctor.construct(0, part) is part

    def test_oracle_predicts_python_ints(self):
        _, cluster, _ = build()
        cluster.fail_nodes([4, 9])
        got = OraclePredictor(cluster).predict(node_array(range(8, 12)))
        assert got == {9} and all(type(nid) is int for nid in got)


class TestPredictedFailed:
    @given(
        st.lists(st.integers(0, N_NODES + N_SATELLITES), max_size=30),
        st.lists(st.integers(0, N_NODES + N_SATELLITES), unique=True, max_size=200),
        st.sampled_from([0.0, 0.5, 1.5]),
    )
    @settings(max_examples=80, deadline=None)
    def test_lookup_alike(self, alerted, among, wait_h):
        # ids past the compute nodes are the master and the satellites
        sim, cluster, _ = build(ttl_hours=1.0)
        monitor = cluster.monitor
        for i, nid in enumerate(alerted):
            if i == len(alerted) // 2:
                sim.run(until=0.75 * HOUR)  # the later half outlives the first
            monitor.raise_alert(nid)
        sim.run(until=sim.now + wait_h * HOUR)
        as_list, as_array = both_forms(among)
        want = monitor.predicted_failed(among=as_list)
        got = monitor.predicted_failed(among=as_array)
        assert got == want and all(type(nid) is int for nid in got)
        assert MonitorAlertPredictor(cluster).predict(as_array) == want

    def test_expired_alert_leaves_the_column(self):
        sim, cluster, _ = build(ttl_hours=1.0)
        monitor = cluster.monitor
        monitor.raise_alert(5)
        monitor.raise_alert(N_NODES + 2)
        everyone = node_array(range(N_NODES + 1 + N_SATELLITES))
        assert monitor.predicted_failed(among=everyone) == {5, N_NODES + 2}
        sim.run(until=2 * HOUR)
        assert monitor.predicted_failed(among=everyone) == set()
        assert not monitor._alert_col.any()
        monitor.raise_alert(5)
        assert monitor.predicted_failed(among=everyone) == {5}

    def test_unknown_id_is_not_predicted(self):
        _, cluster, _ = build()
        last = N_NODES + N_SATELLITES  # the last satellite
        cluster.monitor.raise_alert(last)
        got = cluster.monitor.predicted_failed(among=node_array([last, last + 1, 10**6]))
        assert got == {last}
