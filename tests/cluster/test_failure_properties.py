"""Property-based tests for the failure injector's ordering guarantees.

Two contracts the FP-Tree and maintenance machinery lean on:

* the monitor learns about every scheduled fault *strictly before* the
  fault takes effect (Section IV-C's prediction hook);
* repairing an earlier fault never resurrects a node inside a
  maintenance window — the node stays dark until the window closes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.cluster.failures import FailureModel
from repro.simkit import Simulator

N_NODES = 16


def build(seed=0):
    sim = Simulator(seed=seed)
    cluster = ClusterSpec(
        n_nodes=N_NODES, n_satellites=1, failure_model=FailureModel.disabled()
    ).build(sim)
    return sim, cluster


@st.composite
def fault_plans(draw):
    plans = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["point", "burst", "maintenance"]))
        at = draw(st.floats(10.0, 3000.0))
        ids = tuple(sorted(draw(
            st.sets(st.integers(0, N_NODES - 1), min_size=1, max_size=4)
        )))
        duration = draw(st.floats(30.0, 2000.0))
        plans.append((kind, at, ids, duration))
    return plans


class TestAnnounceBeforeEffect:
    @given(fault_plans())
    @settings(max_examples=60, deadline=None)
    def test_monitor_informed_strictly_before_every_fault(self, plans):
        sim, cluster = build()
        announces = []
        original = cluster.monitor.on_failure_scheduled
        cluster.monitor.on_failure_scheduled = lambda node_ids, at: (
            announces.append((tuple(node_ids), at, sim.now)),
            original(node_ids, at=at),
        )[-1]
        effects = []
        cluster.failures.subscribe(
            lambda kind, node_ids, when: kind != "recover"
            and effects.append((tuple(node_ids), when))
        )
        for kind, at, ids, duration in plans:
            cluster.failures.schedule_fault(kind, at, ids, duration)
        sim.run(until=7000.0)

        assert len(announces) == len(plans)
        for ids, at, announced_at in announces:
            assert announced_at < at  # strictly before the fault lands
        # Every applied fault's nodes were announced for that very time.
        announced = {(ids, at) for ids, at, _ in announces}
        for ids, when in effects:
            assert any(
                set(ids) <= set(a_ids) and a_at == when
                for a_ids, a_at in announced
            ), (ids, when)

    @given(fault_plans())
    @settings(max_examples=40, deadline=None)
    def test_injector_log_matches_subscriber_stream(self, plans):
        sim, cluster = build()
        effects = []
        cluster.failures.subscribe(
            lambda kind, node_ids, when: kind != "recover"
            and effects.append(tuple(node_ids))
        )
        for kind, at, ids, duration in plans:
            cluster.failures.schedule_fault(kind, at, ids, duration)
        sim.run(until=7000.0)
        assert [ev.node_ids for ev in cluster.failures.events] == effects
        assert cluster.failures.failures_injected() == sum(len(e) for e in effects)


class TestMaintenanceWindowIntegrity:
    @given(
        window_at=st.floats(200.0, 1000.0),
        window_dur=st.floats(300.0, 2000.0),
        fault_lead=st.floats(10.0, 150.0),
        repair_frac=st.floats(0.1, 0.9),
        node=st.integers(0, N_NODES - 1),
        extra=fault_plans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_repair_inside_window_never_resurrects(
        self, window_at, window_dur, fault_lead, repair_frac, node, extra
    ):
        """A point fault whose repair timer lands inside a maintenance
        window must not bring the node up before the window ends."""
        sim, cluster = build()
        window_end = window_at + window_dur
        fault_at = window_at - fault_lead
        # Repair lands strictly inside the window.
        repair = (window_at - fault_at) + repair_frac * window_dur
        cluster.failures.schedule_fault("point", fault_at, (node,), repair)
        cluster.failures.schedule_fault(
            "maintenance", window_at, (node,), window_dur
        )
        for kind, at, ids, duration in extra:
            cluster.failures.schedule_fault(kind, at, ids, duration)

        # the injector's record of the node's latest window end
        observed_end = cluster.failures._maint_until[node]
        assert observed_end >= window_end

        def assert_dark_inside_window():
            # Only the original window is guaranteed dark: extra plans may
            # extend the node's record with disjoint later windows.
            if window_at < sim.now < window_end:
                assert not cluster.is_responsive(node), (
                    f"node {node} resurrected at {sim.now} inside "
                    f"maintenance window ({window_at}, {window_end})"
                )

        sim.add_probe(assert_dark_inside_window)
        horizon = max(
            [observed_end] + [at + duration for _, at, _, duration in extra]
        )
        sim.run(until=horizon + 10.0)
        # After every window and repair has elapsed the node is back.
        assert cluster.is_responsive(node)

    @given(
        window_at=st.floats(100.0, 500.0),
        window_dur=st.floats(200.0, 1000.0),
        node=st.integers(0, N_NODES - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_window_end_recovery_is_not_deferred(self, window_at, window_dur, node):
        """The maintenance window's own end-of-window recovery proceeds
        (the deferral guard is strict, not off by one)."""
        sim, cluster = build()
        cluster.failures.schedule_fault("maintenance", window_at, (node,), window_dur)
        sim.run(until=window_at + window_dur + 1.0)
        assert cluster.is_responsive(node)
