"""Property-based tests: the satellite state machine under arbitrary
event sequences.

Table II is the entire specification: whatever interleaving of
broadcast events, heartbeats, node failures, and clock advances occurs,
every transition the daemon takes must be the one the table dictates,
and a FAULT left unattended past the 20-minute timeout must escalate to
DOWN on the next heartbeat.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.rm.eslurm import SATELLITE_PROFILE
from repro.rm.satellite import (
    FAULT_TIMEOUT_S,
    _TRANSITIONS,
    SatelliteDaemon,
    SatelliteEvent,
    SatellitePool,
    SatelliteState,
)
from repro.simkit import Simulator

#: one scripted action against the daemon or its node
op_strategy = st.one_of(
    st.tuples(st.just("advance"), st.floats(1.0, 1500.0)),
    st.tuples(st.just("fail"), st.none()),
    st.tuples(st.just("recover"), st.none()),
    st.tuples(st.just("heartbeat"), st.none()),
    st.tuples(st.just("event"), st.sampled_from(list(SatelliteEvent))),
)


def expected_next(old, event):
    if event is SatelliteEvent.SHUTDOWN:
        return SatelliteState.DOWN
    return _TRANSITIONS.get((old, event), old)


def run_ops(ops):
    """Execute a scripted op sequence; returns (sim, daemon, trace)."""
    sim = Simulator(seed=0)
    cluster = ClusterSpec(n_nodes=8, n_satellites=1).build(sim)
    daemon = SatelliteDaemon(sim, cluster, cluster.satellite_ids[0], SATELLITE_PROFILE)
    trace = []
    daemon.transition_observers.append(
        lambda d, old, event, new: trace.append((old, event, new))
    )
    now = 0.0
    for op, arg in ops:
        if op == "advance":
            now += arg
            sim.run(until=now)
        elif op == "fail":
            daemon.cluster.fail_nodes([daemon.node_id])
        elif op == "recover":
            daemon.cluster.recover_nodes([daemon.node_id])
        elif op == "heartbeat":
            daemon.heartbeat()
        else:
            daemon.handle(arg)
    return sim, daemon, trace


class TestStateMachineProperties:
    @given(st.lists(op_strategy, max_size=50))
    @settings(max_examples=120, deadline=None)
    def test_every_transition_matches_table_ii(self, ops):
        _, _, trace = run_ops(ops)
        for old, event, new in trace:
            assert new is expected_next(old, event), (old, event, new)

    @given(st.lists(op_strategy, max_size=50))
    @settings(max_examples=120, deadline=None)
    def test_fault_since_tracks_fault_state(self, ops):
        sim, daemon, trace = run_ops(ops)
        # fault_since is set exactly while in FAULT — it is what the
        # timeout escalation and the chaos scan invariant read.
        assert (daemon.state is SatelliteState.FAULT) == (
            daemon.fault_since is not None
        )
        if daemon.fault_since is not None:
            assert 0.0 <= daemon.fault_since <= sim.now

    @given(st.lists(op_strategy, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_down_only_via_shutdown_or_timeout(self, ops):
        _, _, trace = run_ops(ops)
        for old, event, new in trace:
            if new is SatelliteState.DOWN and old is not SatelliteState.DOWN:
                assert event in (SatelliteEvent.SHUTDOWN, SatelliteEvent.TIMEOUT)
                if event is SatelliteEvent.TIMEOUT:
                    assert old is SatelliteState.FAULT

    @given(st.lists(op_strategy, max_size=30), st.floats(1.0, 3600.0))
    @settings(max_examples=80, deadline=None)
    def test_stale_fault_escalates_on_next_heartbeat(self, ops, extra):
        """However the daemon got into FAULT, a dead node plus a
        heartbeat after the 20-minute timeout must land in DOWN."""
        sim, daemon, _ = run_ops(ops)
        if daemon.state is not SatelliteState.FAULT:
            return
        daemon.cluster.fail_nodes([daemon.node_id])
        sim.run(until=sim.now + FAULT_TIMEOUT_S + extra)
        daemon.heartbeat()
        assert daemon.state is SatelliteState.DOWN

    @given(st.lists(op_strategy, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_heartbeat_never_escalates_fresh_fault(self, ops):
        """A FAULT younger than the timeout survives heartbeats (the
        20-minute grace of Table II is honored, not short-circuited)."""
        sim, daemon, _ = run_ops(ops)
        if daemon.state is not SatelliteState.FAULT:
            return
        start = daemon.fault_since
        if sim.now >= start + FAULT_TIMEOUT_S - 1.0:
            return  # ops already aged the fault past the window
        daemon.cluster.fail_nodes([daemon.node_id])
        sim.run(until=start + FAULT_TIMEOUT_S - 1.0)
        daemon.heartbeat()
        assert daemon.state is SatelliteState.FAULT


def heartbeat_pool(n_sats=3, observed=()):
    """A satellite pool plus the transitions its ``observed`` daemons report."""
    sim = Simulator(seed=0)
    cluster = ClusterSpec(n_nodes=16, n_satellites=n_sats).build(sim)
    pool = SatellitePool(sim, cluster, SATELLITE_PROFILE, width=4)
    seen = {i: [] for i in observed}
    for i in observed:
        pool.daemons[i].transition_observers.append(
            lambda d, old, event, new, out=seen[i]: out.append((old, event, new))
        )
    return sim, cluster, pool, seen


def pool_state(pool):
    return [(d.state, d.fault_since) for d in pool.daemons]


class TestHeartbeatRound:
    """``SatellitePool.heartbeat_all`` against per-daemon heartbeats."""

    def test_observer_sees_every_healthy_round(self):
        sim, _, pool, seen = heartbeat_pool(observed=[0])
        for k in range(6):
            sim.run(until=30.0 * k)
            pool.heartbeat_all()
        running = SatelliteState.RUNNING
        assert seen[0] == [(SatelliteState.UNKNOWN, SatelliteEvent.HB_SUCCESS, running)] + [
            (running, SatelliteEvent.HB_SUCCESS, running)
        ] * 5

    def test_dead_satellite_walks_to_down_with_and_without_observer(self):
        def timeline(observed):
            sim, cluster, pool, _ = heartbeat_pool(observed=observed)
            rows = []
            for k in range(60):
                sim.run(until=30.0 * k)
                if k == 10:
                    cluster.fail_nodes([pool.daemons[1].node_id])
                pool.heartbeat_all()
                rows.append(pool_state(pool))
            return rows

        plain, audited = timeline(()), timeline((1,))
        assert plain == audited
        dead = [row[1] for row in plain]
        # FAULT from the failing round (t=300), DOWN once 20 min passed
        first_down = 10 + int(FAULT_TIMEOUT_S // 30.0)
        assert dead[:10] == [(SatelliteState.RUNNING, None)] * 10
        assert dead[10:first_down] == [(SatelliteState.FAULT, 300.0)] * (first_down - 10)
        assert dead[first_down:] == [(SatelliteState.DOWN, None)] * (60 - first_down)
        assert all(row[0][0] is row[2][0] is SatelliteState.RUNNING for row in plain)

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 900.0),
                st.sets(st.integers(0, 3)),
                st.sets(st.integers(0, 3)),
                st.sampled_from([None, *SatelliteEvent]),
            ),
            max_size=30,
        ),
        st.sets(st.integers(0, 3)),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_read_per_round_equals_per_daemon_reads(self, rounds, observed):
        sim, cluster, pool, seen = heartbeat_pool(4, observed)
        twin_sim, twin_cluster, twin, twin_seen = heartbeat_pool(4, observed)
        now = 0.0
        for dt, fail, recover, event in rounds:
            now += dt
            for s, c, p in ((sim, cluster, pool), (twin_sim, twin_cluster, twin)):
                s.run(until=now)
                c.fail_nodes([p.daemons[i].node_id for i in sorted(fail)])
                c.recover_nodes([p.daemons[i].node_id for i in sorted(recover)])
                if event is not None:
                    p.daemons[0].handle(event)
            assert cluster.responsive([d.node_id for d in pool.daemons]).tolist() == [
                cluster.is_responsive(d.node_id) for d in pool.daemons
            ]
            pool.heartbeat_all()
            for d in twin.daemons:
                d.heartbeat()
            assert pool_state(pool) == pool_state(twin)
        assert seen == twin_seen
