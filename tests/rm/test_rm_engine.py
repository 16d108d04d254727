"""Integration tests for the RM engines (centralized + ESLURM)."""

import hashlib
import json
import re

import pytest

from repro.cluster import ClusterSpec, FailureModel
from repro.errors import ConfigurationError, SchedulingError
from repro.rm import CentralizedRM, EslurmRM, RM_PROFILES
from repro.sched.job import Job, JobState
from repro.simkit import Simulator

HOUR = 3600.0


def build(rm_name="slurm", n=64, sats=2, seed=0, failures=False, **kw):
    sim = Simulator(seed=seed)
    model = FailureModel() if failures else FailureModel.disabled()
    cluster = ClusterSpec(n_nodes=n, n_satellites=sats, failure_model=model).build(sim)
    if failures:
        cluster.failures.start()
    if rm_name == "eslurm":
        rm = EslurmRM(sim, cluster, **kw)
    else:
        rm = CentralizedRM.from_name(rm_name, sim, cluster, **kw)
    return sim, cluster, rm


def job(job_id, n_nodes=4, runtime=100.0, est=200.0, submit=1.0):
    return Job(job_id, f"j{job_id}.sh", "u", n_nodes, runtime, est, submit)


class TestLifecycle:
    def test_single_job_completes(self):
        sim, cluster, rm = build()
        j = job(1)
        rm.run_trace([j], until=2 * HOUR)
        assert j.state is JobState.COMPLETED
        assert j.start_time is not None
        assert j.end_time > j.start_time
        assert rm.pool.n_free == 64

    def test_underestimated_job_times_out(self):
        sim, _, rm = build()
        j = job(1, runtime=1000.0, est=300.0)
        rm.run_trace([j], until=2 * HOUR)
        assert j.state is JobState.TIMEOUT
        # killed at the wall limit, not at the true runtime
        assert j.end_time - j.start_time < 500.0

    def test_nodes_allocated_and_released_in_cluster(self):
        sim, _, rm = build()
        j = job(1, n_nodes=8)
        rm.start()
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=30.0)  # mid-flight
        assert len(rm.pool.running[1].node_ids) == 8 and rm.pool.n_busy == 8
        sim.run(until=HOUR)
        assert not rm.pool.running and rm.pool.n_busy == 0

    def test_too_large_job_rejected(self):
        sim, _, rm = build(n=16)
        rm.start()
        with pytest.raises(SchedulingError):
            rm.submit(job(1, n_nodes=100))

    def test_queueing_when_machine_full(self):
        sim, _, rm = build(n=8)
        j1, j2 = job(1, n_nodes=8, runtime=100.0), job(2, n_nodes=8, runtime=100.0, submit=2.0)
        rm.run_trace([j1, j2], until=HOUR)
        assert j1.state is JobState.COMPLETED
        assert j2.state is JobState.COMPLETED
        assert j2.start_time >= j1.end_time  # had to wait for release

    def test_occupation_time_recorded(self):
        sim, _, rm = build()
        rm.run_trace([job(1, runtime=50.0)], until=HOUR)
        rep = rm.report(horizon_s=HOUR)
        assert rep.occupation_mean_s > 50.0
        assert rep.n_broadcasts == 2  # launch + terminate

    def test_past_submit_rejected(self):
        sim, _, rm = build()
        sim.run(until=100.0)
        with pytest.raises(SchedulingError):
            rm.run_trace([job(1, submit=1.0)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 99.5])
    def test_bad_submit_time_rejected_before_anything_is_scheduled(self, bad):
        sim, _, rm = build()
        sim.run(until=100.0)
        heap = list(sim._heap)
        jobs = [job(1, submit=300.0), job(2, submit=bad), job(3, submit=200.0)]
        message = f"job 2 submits at {bad}, not a finite time >= now (100.0)"
        with pytest.raises(SchedulingError, match=f"^{re.escape(message)}$"):
            rm.run_trace(jobs)
        assert sim._heap == heap

    def test_trace_submissions_hold_one_heap_entry(self):
        depths = set()
        for n in (1, 10, 500):
            sim, _, rm = build()
            rm.run_trace([job(i, submit=float(i % 7)) for i in range(1, n + 1)])
            depths.add(len(sim._heap))
        assert len(depths) == 1


class TestAccountingDuringRun:
    def test_master_charged_for_everything(self):
        sim, _, rm = build()
        rm.run_trace([job(i, submit=float(i)) for i in range(1, 11)], until=2 * HOUR)
        assert rm.master_acct.cpu_time_s > 0
        assert rm.master_acct.sockets.total_opened > 0

    def test_heartbeats_cost_cpu_even_when_idle(self):
        sim, _, rm = build()
        rm.start()
        sim.run(until=HOUR)
        assert rm.master_acct.cpu_time_s > 0

    def test_persistent_sockets_for_sge(self):
        sim, _, rm = build("sge", n=64)
        rm.start()
        sim.run(until=60.0)
        assert rm.master_acct.sockets.series.last() >= 64  # one per node

    def test_report_summary_renders(self):
        sim, _, rm = build()
        rm.run_trace([job(1)], until=HOUR)
        text = rm.report(horizon_s=HOUR).summary()
        assert "master:" in text and "utilization" in text


class TestFailureHandling:
    def test_node_failure_kills_running_job(self):
        sim, cluster, rm = build()
        j = job(1, n_nodes=4, runtime=10_000.0)
        rm.start()
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=100.0)
        assert j.state is JobState.RUNNING
        victim = j.allocated_nodes[0]
        cluster.fail_nodes([victim])
        rm._on_failure_event("point", [victim], sim.now)
        sim.run(until=200.0)
        assert j.state is JobState.FAILED
        assert j.job_id not in rm.pool.running

    def test_failed_node_not_reallocated_until_recovery(self):
        sim, cluster, rm = build(n=8)
        cluster.fail_nodes([0, 1])
        rm.start()
        rm._on_failure_event("point", [0, 1], sim.now)
        j = job(1, n_nodes=8, runtime=10.0)
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=100.0)
        assert j.state is JobState.PENDING  # only 6 nodes available
        cluster.recover_nodes([0, 1])
        rm._on_failure_event("recover", [0, 1], sim.now)
        sim.run(until=HOUR)
        assert j.state is JobState.COMPLETED


class TestEslurm:
    def test_broadcasts_go_via_satellites(self):
        sim, cluster, rm = build("eslurm", n=64, sats=2)
        rm.run_trace([job(1, n_nodes=32)], until=HOUR)
        tasks = sum(d.stats.tasks_received for d in rm.sat_pool.daemons)
        assert tasks >= 2  # launch + terminate, at least
        assert rm.report(HOUR).satellites  # satellite summaries present

    def test_master_sockets_bounded_by_satellites(self):
        sim, cluster, rm = build("eslurm", n=256, sats=4)
        rm.run_trace([job(i, n_nodes=64, submit=float(i)) for i in range(1, 6)], until=HOUR)
        assert rm.master_acct.sockets.peak() <= 10  # talks to <= 4 sats + users

    def test_satellite_death_failover_keeps_jobs_running(self):
        sim, cluster, rm = build("eslurm", n=64, sats=2)
        rm.start()
        cluster.fail_nodes(cluster.satellite_ids[:1])
        j = job(1, n_nodes=32, runtime=50.0)
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=HOUR)
        assert j.state is JobState.COMPLETED

    def test_all_satellites_dead_master_takes_over(self):
        sim, cluster, rm = build("eslurm", n=64, sats=2)
        rm.start()
        cluster.fail_nodes(cluster.satellite_ids)
        j = job(1, n_nodes=32, runtime=50.0)
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=HOUR)
        assert j.state is JobState.COMPLETED
        assert rm.sat_pool.master_takeovers > 0

    def test_auto_estimator_sets_limits(self):
        sim, cluster, rm = build("eslurm", n=64, sats=2, estimator="auto")
        jobs = [
            Job(i, "repeat.sh", "u", 2, 100.0, 5000.0, submit_time=float(i * 200))
            for i in range(1, 60)
        ]
        rm.run_trace(jobs, until=6 * HOUR)
        # once trained, planned runtimes should drop far below the 5000s
        # user ask — while the kill limit stays the user's request
        late = [j for j in jobs if j.job_id > 45 and j.state is JobState.COMPLETED]
        assert late
        assert any(j.planned_s < 1000.0 for j in late)
        assert all(j.limit_s == 5000.0 for j in late)

    def test_fptree_ablation_flag(self):
        sim, cluster, rm = build("eslurm", n=64, sats=2, use_fptree=False)
        rm.run_trace([job(1, n_nodes=32)], until=HOUR)
        assert rm.fptree_stats.predicted_total == 0

    def test_idle_day_heartbeats_charge_without_fp_ordering(self):
        # Heartbeats cost CPU and sockets only: a day of failures and
        # alerts with no job builds no FP ordering, and every daemon's
        # accounting equals the recorded digest of the same day.
        sim = Simulator(seed=5)
        cluster = ClusterSpec(
            n_nodes=2048,
            n_satellites=4,
            failure_model=FailureModel(mtbf_node_hours=2000.0, burst_per_day=1.0),
        ).build(sim)
        cluster.failures.start()
        cluster.monitor.start()
        rm = EslurmRM(sim, cluster)
        rm.run_trace([], until=24 * HOUR)
        assert (cluster.version, cluster.monitor.alert_count()) == (43, 44)
        assert rm.fptree_stats.trees_built == 0
        summaries = [rm.master_acct.summary()] + [d.acct.summary() for d in rm.sat_pool.daemons]
        digest = hashlib.sha256(json.dumps(summaries, sort_keys=True).encode()).hexdigest()
        assert digest == "5ee6329ee08a198f3fe5eaccdd8920770c1af14e89fb39d41278a3149b7da13b"

    def test_launch_relay_puts_alerted_node_on_leaf(self):
        sim, cluster, rm = build("eslurm", n=256, sats=2)
        audited = []

        def audit(targets, ordered, leaf_idx, predicted):
            if predicted:
                audited.append((targets.tolist(), ordered.tolist(), leaf_idx.tolist()))

        rm.fp_constructor.construct_observers.append(audit)
        rm.start()
        cluster.monitor.raise_alert(0, indicator="voltage")
        j = job(1, n_nodes=128, runtime=50.0)
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=HOUR)
        assert j.state is JobState.COMPLETED
        assert audited  # the launch relay met the alert
        for targets, ordered, leaf_idx in audited:
            assert targets.index(0) not in leaf_idx  # an interior slot as given
            assert ordered.index(0) in leaf_idx
        stats = rm.fptree_stats
        assert stats.predicted_on_leaves == stats.predicted_total == len(audited)


class TestCentralizedFactory:
    def test_unknown_name_rejected(self):
        sim = Simulator()
        cluster = ClusterSpec(n_nodes=4).build(sim)
        with pytest.raises(ConfigurationError):
            CentralizedRM.from_name("pbspro", sim, cluster)

    def test_eslurm_name_rejected(self):
        sim = Simulator()
        cluster = ClusterSpec(n_nodes=4).build(sim)
        with pytest.raises(ConfigurationError):
            CentralizedRM.from_name("eslurm", sim, cluster)

    def test_all_centralized_profiles_run(self):
        for name in ("slurm", "lsf", "sge", "torque", "openpbs"):
            sim, _, rm = build(name, n=32)
            rm.run_trace([job(1, n_nodes=4, runtime=20.0)], until=HOUR)
            assert rm.jobs[0].state is JobState.COMPLETED


class TestCadenceValidation:
    """Cadences that would hang the run or silently drop traffic are
    rejected at construction, not at ``start()`` or never."""

    @pytest.mark.parametrize("rm_name", ["slurm", "eslurm"])
    @pytest.mark.parametrize(
        "interval", [0.0, -1.0, float("nan"), float("inf")], ids=["zero", "negative", "nan", "inf"]
    )
    def test_sample_interval_rejected(self, rm_name, interval):
        with pytest.raises(ConfigurationError, match="sample_interval_s"):
            build(rm_name, sample_interval_s=interval)

    @pytest.mark.parametrize("rm_name", ["slurm", "eslurm"])
    @pytest.mark.parametrize(
        "rate", [float("inf"), float("nan"), -0.5], ids=["inf", "nan", "negative"]
    )
    def test_user_rpc_rate_rejected(self, rm_name, rate):
        with pytest.raises(ConfigurationError, match="user_rpc_rate_per_s"):
            build(rm_name, user_rpc_rate_per_s=rate)

    def test_zero_rpc_rate_and_tiny_interval_run(self):
        sim, _, rm = build("eslurm", user_rpc_rate_per_s=0.0, sample_interval_s=0.5)
        rm.start()
        sim.run(until=100.0)
        assert len(rm.master_acct.cpu_util) == 200
