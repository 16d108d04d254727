"""Each invariant must actually fire on the breach it claims to catch.

A chaos harness whose invariants never trip is indistinguishable from
one that checks nothing, so every invariant here is driven into a
violating state by hand and asserted to report it — and asserted to
stay silent on the equivalent healthy state.
"""

import numpy as np
import pytest

from repro.chaos import (
    ChaosContext,
    Eq1Correctness,
    FPTreeSoundness,
    Invariant,
    InvariantRegistry,
    NodeConservation,
    SatelliteLegality,
    SchedulerConservation,
    default_invariants,
)
from repro.cluster import ClusterSpec
from repro.cluster.failures import FailureModel
from repro.oracle.invariants import MAX_RECORDED_PER_INVARIANT, MalleableWidth
from repro.rm.eslurm import EslurmRM
from repro.rm.satellite import FAULT_TIMEOUT_S, SatelliteEvent, SatelliteState
from repro.sched.job import Job
from repro.simkit import Simulator


def make_ctx(n_nodes=32, n_satellites=2, seed=0):
    sim = Simulator(seed=seed)
    cluster = ClusterSpec(
        n_nodes=n_nodes,
        n_satellites=n_satellites,
        failure_model=FailureModel.disabled(),
    ).build(sim)
    rm = EslurmRM(sim, cluster)
    return ChaosContext(sim=sim, cluster=cluster, rm=rm)


def attach_one(ctx, invariant):
    """Attach a single invariant; return the registry recording for it."""
    registry = InvariantRegistry([invariant])
    registry.attach(ctx)
    return registry


def total(registry):
    """Violations the registry counted, over all its invariants."""
    return sum(count for _, count in registry.counts())


class TestSatelliteLegality:
    def test_bt_start_on_busy_satellite_fires(self):
        ctx = make_ctx()
        registry = attach_one(ctx, SatelliteLegality())
        d = ctx.rm.sat_pool.daemons[0]
        d.heartbeat()  # UNKNOWN -> RUNNING
        d.handle(SatelliteEvent.BT_START)  # RUNNING -> BUSY: legal
        assert total(registry) == 0
        d.handle(SatelliteEvent.BT_START)  # BUSY given a second task: illegal
        assert total(registry) == 1
        assert "broadcast task assigned in state busy" in registry.violations[0].detail

    def test_legal_lifecycle_is_silent(self):
        ctx = make_ctx()
        registry = attach_one(ctx, SatelliteLegality())
        d = ctx.rm.sat_pool.daemons[0]
        d.heartbeat()
        d.handle(SatelliteEvent.BT_START)
        d.handle(SatelliteEvent.BT_SUCCESS)
        d.handle(SatelliteEvent.HB_FAILURE)
        d.heartbeat()  # responsive again -> RUNNING
        d.handle(SatelliteEvent.SHUTDOWN)
        assert total(registry) == 0

    def test_overdue_fault_escalation_flagged_by_scan(self):
        ctx = make_ctx()
        inv = SatelliteLegality()
        registry = attach_one(ctx, inv)
        d = ctx.rm.sat_pool.daemons[0]
        d.heartbeat()
        ctx.cluster.fail_nodes([d.node_id])
        d.handle(SatelliteEvent.HB_FAILURE)  # FAULT with fault_since = now
        # Advance the clock well past the timeout without any heartbeat
        # running (the thing a broken heartbeat loop would cause).
        overdue = FAULT_TIMEOUT_S + 2 * ctx.rm.profile.heartbeat_interval_s + 10.0
        ctx.sim.run(until=overdue)
        details = list(inv.check(ctx))
        assert len(details) == 1
        assert "without the" in details[0]
        assert total(registry) == 0  # scan result not auto-recorded

    def test_fresh_fault_not_flagged(self):
        ctx = make_ctx()
        inv = SatelliteLegality()
        attach_one(ctx, inv)
        d = ctx.rm.sat_pool.daemons[0]
        d.heartbeat()
        d.handle(SatelliteEvent.HB_FAILURE)
        assert list(inv.check(ctx)) == []


class TestNodeConservation:
    def test_healthy_pool_is_silent(self):
        ctx = make_ctx()
        assert list(NodeConservation().check(ctx)) == []

    def test_unresponsive_node_in_free_pool_fires(self):
        ctx = make_ctx()
        # Fail the node behind the scheduler's back: the cluster knows,
        # the pool does not — exactly the desync the invariant hunts.
        ctx.cluster.fail_nodes([5])
        details = list(NodeConservation().check(ctx))
        assert any("unresponsive node 5" in d for d in details)

    def test_free_while_allocated_fires(self):
        ctx = make_ctx()
        pool = ctx.rm.pool
        job = Job(job_id=9, name="c", user="u", n_nodes=2, runtime_s=10.0,
                  user_estimate_s=20.0, submit_time=0.0)
        nodes = pool.allocate(job, now=0.0)
        # Corrupt the bookkeeping on purpose: flip the state column back
        # to FREE while the owner column still binds the node to the job.
        pool._state[pool._col_of(nodes[0])] = 0
        details = list(NodeConservation().check(ctx))
        assert any("free while allocated" in d for d in details)

    def test_double_allocation_fires(self):
        ctx = make_ctx()
        pool = ctx.rm.pool
        a = Job(job_id=1, name="a", user="u", n_nodes=2, runtime_s=10.0,
                user_estimate_s=20.0, submit_time=0.0)
        b = Job(job_id=2, name="b", user="u", n_nodes=2, runtime_s=10.0,
                user_estimate_s=20.0, submit_time=0.0)
        nodes_a = pool.allocate(a, now=0.0)
        pool.allocate(b, now=0.0)
        # Hand one of a's nodes to b as well.
        rec = pool.running[2]
        # (concatenate: ``tuple + ndarray`` would add element-wise)
        shared = np.concatenate((nodes_a[:1], rec.node_ids[1:]))
        pool.running[2] = type(rec)(rec.job, shared, rec.believed_end)
        details = list(NodeConservation().check(ctx))
        assert any(f"node {nodes_a[0]} allocated to jobs 1 and 2" in d for d in details)

    def test_release_leaking_a_busy_node_fires(self):
        # The mutant: a release that drops the record but leaves its
        # first node BUSY.  Free/down/owner checks all pass it by.
        ctx = make_ctx()
        pool = ctx.rm.pool
        job = Job(job_id=9, name="c", user="u", n_nodes=3, runtime_s=10.0,
                  user_estimate_s=20.0, submit_time=0.0)
        pool.allocate(job, now=0.0)
        rec = pool.running.pop(9)
        pool._unbind(pool._cols(rec.node_ids[1:]))
        details = list(NodeConservation().check(ctx))
        assert details == ["pool counts 1 busy nodes, its records hold 0 in service"]

    def test_busy_count_ignores_down_held_nodes(self):
        # A held node that fails counts as down, not busy: still silent.
        ctx = make_ctx()
        pool = ctx.rm.pool
        job = Job(job_id=9, name="c", user="u", n_nodes=3, runtime_s=10.0,
                  user_estimate_s=20.0, submit_time=0.0)
        nodes = pool.allocate(job, now=0.0)
        ctx.cluster.fail_nodes([nodes[0]])
        pool.mark_down(nodes[0])
        assert list(NodeConservation().check(ctx)) == []
        pool.release(9)
        assert list(NodeConservation().check(ctx)) == []

    def test_down_node_in_free_pool_fires(self):
        # One message per defect: a DOWN node in the free pool is one.
        ctx = make_ctx()
        ctx.cluster.fail_nodes([4, 30])
        details = list(NodeConservation().check(ctx))
        assert details == [
            "unresponsive node 4 still in the free pool",
            "unresponsive node 30 still in the free pool",
        ]


class TestFPTreeSoundness:
    def trip(self, ctx, targets, ordered, leaf_idx=None, predicted=frozenset()):
        """Feed one synthetic construction record through the observer."""
        registry = attach_one(ctx, FPTreeSoundness())
        constructor = ctx.rm.fp_constructor
        if leaf_idx is None:
            from repro.fptree.tree import leaf_positions

            leaf_idx = [p - 1 for p in leaf_positions(len(targets) + 1,
                                                      constructor.width) if p > 0]
        assert len(constructor.construct_observers) == 1
        constructor.construct_observers[0](targets, ordered, leaf_idx, predicted)
        return registry

    def test_real_construction_is_silent(self):
        ctx = make_ctx()
        registry = attach_one(ctx, FPTreeSoundness())
        ctx.cluster.monitor.raise_alert(4)
        ctx.cluster.monitor.raise_alert(9)
        ctx.rm.fp_constructor.construct(root=100, targets=list(range(24)))
        assert total(registry) == 0

    def test_duplicated_node_fires(self):
        ctx = make_ctx()
        targets = list(range(8))
        bad = [0, 1, 2, 3, 4, 5, 6, 6]  # node 7 lost, node 6 doubled
        registry = self.trip(ctx, targets, bad)
        assert total(registry) == 1
        assert "not a permutation" in registry.violations[0].detail

    def test_wrong_leaf_layout_fires(self):
        ctx = make_ctx()
        targets = list(range(8))
        registry = self.trip(ctx, targets, list(targets), leaf_idx=[0, 1])
        assert any("leaf positions diverge" in v.detail for v in registry.violations)

    def test_predicted_node_off_leaf_fires(self):
        ctx = make_ctx()
        from repro.fptree.tree import leaf_positions

        width = ctx.rm.fp_constructor.width
        targets = list(range(3 * width))  # deep enough to have inner positions
        leaf_idx = [p - 1 for p in leaf_positions(len(targets) + 1, width) if p > 0]
        inner = next(pos for pos in range(len(targets)) if pos not in set(leaf_idx))
        # Identity order leaves the predicted node on an inner position —
        # the rearrangement the invariant audits would have moved it.
        registry = self.trip(ctx, targets, list(targets), predicted={targets[inner]})
        assert any("predicted-failed nodes on" in v.detail for v in registry.violations)


class TestEq1Correctness:
    def audit(self, s, n, w, m):
        reports = []
        Eq1Correctness._audit(reports.append, s, n, w, m)
        return reports

    @pytest.mark.parametrize(
        "s,w,m,expected",
        [(0, 8, 4, 0), (1, 8, 4, 1), (8, 8, 4, 1), (9, 8, 4, 2),
         (24, 8, 4, 3), (32, 8, 4, 4), (1000, 8, 4, 4)],
    )
    def test_correct_values_are_silent(self, s, w, m, expected):
        assert self.audit(s, expected, w, m) == []

    def test_wrong_value_fires(self):
        reports = self.audit(10, 5, 8, 3)
        assert len(reports) == 1
        assert "Eq. 1 says 2" in reports[0]

    def test_attached_observer_audits_compute_n(self):
        ctx = make_ctx()
        registry = attach_one(ctx, Eq1Correctness())
        for s in (0, 1, 7, 9, 100, 10_000):
            ctx.rm.sat_pool.compute_n(s)
        assert total(registry) == 0
        # A fabricated wrong evaluation through the same observer fires.
        observer = ctx.rm.sat_pool.eq1_observers[0]
        observer(10, 5, 8, 3)
        assert total(registry) == 1


class TestSchedulerConservation:
    def test_healthy_state_is_silent(self):
        ctx = make_ctx()
        assert list(SchedulerConservation().check(ctx)) == []

    def test_job_queued_and_running_fires(self):
        ctx = make_ctx()
        job = Job(job_id=7, name="j", user="u", n_nodes=2, runtime_s=10.0,
                  user_estimate_s=20.0, submit_time=0.0)
        ctx.rm.queue.submit(job)
        ctx.rm.pool.allocate(job, now=0.0)
        details = list(SchedulerConservation().check(ctx))
        assert any("both queued and running" in d for d in details)

    def test_head_starvation_fires_once(self):
        ctx = make_ctx()
        inv = SchedulerConservation()
        job = Job(job_id=1, name="j", user="u", n_nodes=2, runtime_s=10.0,
                  user_estimate_s=20.0, submit_time=0.0)
        ctx.rm.queue.submit(job)  # fits (32 nodes free) but never started
        assert list(inv.check(ctx)) == []  # first sighting arms the timer
        limit = 2 * ctx.rm.profile.scheduler_tick_s + inv.STARVATION_SLACK_S
        ctx.sim.run(until=limit + 5.0)
        details = list(inv.check(ctx))
        assert any("has waited" in d for d in details)
        assert list(inv.check(ctx)) == []  # flagged heads are not re-reported


class TestMalleableWidth:
    def _elastic(self, ctx):
        job = Job(job_id=3, name="m", user="u", n_nodes=6, runtime_s=10.0,
                  user_estimate_s=20.0, submit_time=0.0, min_nodes=2, max_nodes=8)
        job.start(0.0, ctx.rm.pool.allocate(job, now=0.0))
        return job

    def test_healthy_elastic_job_is_silent(self):
        ctx = make_ctx()
        self._elastic(ctx)
        assert ctx.rm.pool.elastic_slack == 4
        assert list(MalleableWidth().check(ctx)) == []

    def test_slack_drift_fires(self):
        ctx = make_ctx()
        self._elastic(ctx)
        # Corrupt the counter on purpose: the records still hold 4 nodes
        # above their floors.
        ctx.rm.pool.elastic_slack += 1
        details = list(MalleableWidth().check(ctx))
        assert details == ["pool elastic slack 5 != 4 recomputed from its records"]


class TestRegistry:
    def test_default_invariants_are_fresh_instances(self):
        a, b = default_invariants(), default_invariants()
        assert {i.name for i in a} == {
            "satellite-legality", "node-conservation", "fptree-soundness",
            "eq1-correctness", "scheduler-conservation", "malleable-width",
        }
        assert all(x is not y for x, y in zip(a, b))

    def test_probe_records_scan_violations_with_timestamps(self):
        ctx = make_ctx()
        registry = InvariantRegistry(default_invariants())
        registry.attach(ctx)
        ctx.cluster.fail_nodes([2])  # desync: pool still believes it free
        ctx.sim.call_at(50.0, lambda: None)
        ctx.sim.run(until=50.0)
        registry.probe(ctx)
        # One desynced node is one defect: unresponsive but free.
        assert total(registry) == 1
        assert all(v.invariant == "node-conservation" for v in registry.violations)
        assert all(v.time == 50.0 for v in registry.violations)

    def test_recorded_violations_are_capped_but_counts_are_not(self):
        class AlwaysFires(Invariant):
            name = "always-fires"

            def check(self, ctx):
                yield "boom"

        ctx = make_ctx()
        registry = InvariantRegistry([AlwaysFires()])
        registry.attach(ctx)
        for _ in range(MAX_RECORDED_PER_INVARIANT + 25):
            registry.probe(ctx)
        assert total(registry) == MAX_RECORDED_PER_INVARIANT + 25
        assert len(registry.violations) == MAX_RECORDED_PER_INVARIANT

    def test_counts_keep_registration_order(self):
        registry = InvariantRegistry(default_invariants())
        assert [name for name, _ in registry.counts()] == [
            "satellite-legality", "node-conservation", "fptree-soundness",
            "eq1-correctness", "scheduler-conservation", "malleable-width",
        ]
