"""The ESLURM heartbeat's share record against a full sweep rebuild.

A rebuild keeps each satellite's share of the machine across rounds
and re-derives only the shares whose own predicted or down ids
changed; the rest replay their construction statistics and makespan.
Every observable must equal a twin RM that rebuilds the whole sweep.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, FailureModel
from repro.cluster.monitoring import MonitoringConfig
from repro.network.message import DEFAULT_SIZES, MessageKind
from repro.rm import EslurmRM
from repro.rm.satellite import SatelliteEvent, SatellitePool
from repro.simkit import Simulator
from repro.telemetry import facade as telemetry

N_NODES, N_SATS = 512, 8
TTL_HOURS = 1.0


class FullSweepRM(EslurmRM):
    """The sweep without a share record: every rebuild re-splits the
    machine and relays every share through the FP-Tree engine."""

    def _sweep(self, running):
        parts = SatellitePool.split(self.cluster.compute_ids(), max(len(running), 1))
        sweep = self._fp_engine.simulate_forest(
            [(d.node_id, part) for d, part in zip(running, parts)],
            DEFAULT_SIZES[MessageKind.HEARTBEAT],
            self.fabric,
        )
        return max((r.makespan_s for r in sweep), default=0.0)


def build(rm_cls):
    sim = Simulator(seed=0)
    spec = ClusterSpec(
        n_nodes=N_NODES,
        n_satellites=N_SATS,
        failure_model=FailureModel.disabled(),
        monitoring=MonitoringConfig(alert_ttl_hours=TTL_HOURS),
    )
    cluster = spec.build(sim)
    rm = rm_cls(sim, cluster)
    return sim, cluster, rm


def observables(rm):
    stats = rm.fptree_stats
    return (
        rm._hb_cache_makespan,
        stats.trees_built,
        stats.nodes_placed,
        stats.predicted_total,
        stats.predicted_on_leaves,
    )


def apply(step, sim, cluster, rm):
    op, arg = step
    if op == "fail":
        cluster.fail_nodes([arg])
    elif op == "recover":
        cluster.recover_nodes([arg])
    elif op == "alert":
        cluster.monitor.raise_alert(arg, indicator="voltage")
    elif op == "advance":
        # arg quarter-hours: enough of them expire the alerts
        sim.run(until=sim.now + arg * 900.0)
    elif op == "sat_fault":
        cluster.fail_nodes([rm.sat_pool.daemons[arg].node_id])
    elif op == "sat_shutdown":
        rm.sat_pool.daemons[arg].handle(SatelliteEvent.SHUTDOWN)
    else:
        rm.sat_pool.daemons[arg].revive()


def run(rm_cls, steps, mode="plain"):
    """Observables after a first round and after each step's round."""
    sim, cluster, rm = build(rm_cls)
    audit = []
    if mode == "observer":
        rm.fp_constructor.construct_observers.append(
            lambda targets, ordered, leaf_idx, predicted: audit.append(
                (tuple(ordered), frozenset(predicted))
            )
        )

    def rounds():
        out = []
        rm._heartbeat_round()
        out.append(observables(rm))
        for step in steps:
            apply(step, sim, cluster, rm)
            rm._heartbeat_round()
            out.append(observables(rm))
        return out

    if mode == "telemetry":
        with telemetry.session() as tel:
            out = rounds()
            snap = tel.snapshot()
        return out, rm, (snap["counters"], snap["histograms"])
    return rounds(), rm, audit


node = st.integers(0, N_NODES - 1)
#: alerts may land on the master or a satellite too (outside every share)
alerted = st.integers(0, N_NODES + N_SATS)
step = st.one_of(
    st.tuples(st.sampled_from(["fail", "recover"]), node),
    st.tuples(st.just("alert"), alerted),
    st.tuples(st.just("advance"), st.integers(1, 6)),
    st.tuples(st.sampled_from(["sat_fault", "sat_shutdown", "revive"]), st.integers(0, N_SATS - 1)),
)


class TestShareRecord:
    @given(st.lists(step, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_equals_full_rebuild(self, steps):
        got, rm, _ = run(EslurmRM, steps)
        want, twin, _ = run(FullSweepRM, steps)
        assert got == want
        assert twin.heartbeat_shares_reused == twin.heartbeat_shares_derived == 0

    @given(st.sampled_from(["telemetry", "observer"]), st.lists(step, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_fallbacks_equal_full_rebuild(self, mode, steps):
        got, rm, extra = run(EslurmRM, steps, mode)
        want, _, twin_extra = run(FullSweepRM, steps, mode)
        assert got == want
        assert extra == twin_extra  # same metrics / same audited constructions
        assert rm.heartbeat_shares_reused == 0  # every share re-derived

    def test_one_failure_rederives_one_share(self):
        sim, cluster, rm = build(EslurmRM)
        rm._heartbeat_round()
        assert (rm.heartbeat_shares_reused, rm.heartbeat_shares_derived) == (0, N_SATS)
        cluster.fail_nodes([70])  # share 1 of 8 (64 ids each)
        rm._heartbeat_round()
        assert (rm.heartbeat_shares_reused, rm.heartbeat_shares_derived) == (N_SATS - 1, N_SATS + 1)
        cluster.monitor.raise_alert(N_NODES + 1, indicator="voltage")  # a satellite
        rm._heartbeat_round()  # alert count moved: a rebuild, but no share changed
        assert (rm.heartbeat_shares_reused, rm.heartbeat_shares_derived) == (
            2 * N_SATS - 1, N_SATS + 1
        )

    def test_expired_alert_rederives_its_share(self):
        sim, cluster, rm = build(EslurmRM)
        cluster.monitor.raise_alert(300, indicator="voltage")
        rm._heartbeat_round()
        assert rm.fptree_stats.predicted_total == 1
        sim.run(until=TTL_HOURS * 3600.0 + 1.0)
        cluster.fail_nodes([3])  # some rebuild trigger; the alert has lapsed
        rm._heartbeat_round()
        assert rm.fptree_stats.predicted_total == 1  # not replayed
        assert rm.heartbeat_shares_derived == N_SATS + 2  # shares 0 and 4
