"""Engine-level malleability: grow/shrink through the full RM lifecycle."""

import pytest

from repro.cluster import ClusterSpec, FailureModel
from repro.rm import CentralizedRM
from repro.sched import BackfillScheduler
from repro.sched.job import Job, JobState
from repro.simkit import Simulator

HOUR = 3600.0


def build(n=8, seed=0):
    sim = Simulator(seed=seed)
    cluster = ClusterSpec(
        n_nodes=n, n_satellites=2, failure_model=FailureModel.disabled()
    ).build(sim)
    rm = CentralizedRM.from_name(
        "slurm", sim, cluster, scheduler=BackfillScheduler(malleable=True)
    )
    return sim, cluster, rm


def elastic(job_id, n_nodes, min_nodes, max_nodes, runtime=100.0, est=200.0,
            submit=1.0):
    return Job(job_id, f"j{job_id}.sh", "u", n_nodes, runtime, est, submit,
               min_nodes=min_nodes, max_nodes=max_nodes)


def rigid(job_id, n_nodes, runtime=100.0, est=200.0, submit=1.0):
    return Job(job_id, f"j{job_id}.sh", "u", n_nodes, runtime, est, submit)


class TestGrowth:
    def test_lone_elastic_job_grows_to_fill_machine(self):
        sim, _, rm = build(n=8)
        j = elastic(1, 4, 2, 8, runtime=100.0)
        rm.run_trace([j], until=HOUR)
        assert j.state is JobState.COMPLETED
        assert rm.resize_grows >= 1
        assert j.resize_count >= 1
        # Work conservation: 4 * 100 node-seconds at width 8 halves the
        # wall clock (launch/terminate broadcasts add a little slack).
        assert j.end_time - j.start_time < 75.0
        assert j.node_seconds == pytest.approx(400.0, rel=0.1)

    def test_grown_nodes_visible_in_cluster(self):
        sim, _, rm = build(n=8)
        j = elastic(1, 4, 2, 8, runtime=500.0, est=600.0)
        rm.start()
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=120.0)  # mid-flight, after the first elastic pass
        assert j.state is JobState.RUNNING
        assert len(j.allocated_nodes) == 8
        assert len(rm.pool.running[1].node_ids) == 8 and rm.pool.n_busy == 8
        sim.run(until=HOUR)
        assert not rm.pool.running and rm.pool.n_busy == 0
        assert rm.pool.n_free == 8

    def test_rigid_job_never_resized(self):
        sim, _, rm = build(n=8)
        j = rigid(1, 4, runtime=100.0)
        rm.run_trace([j], until=HOUR)
        assert j.state is JobState.COMPLETED
        assert j.resize_count == 0
        assert rm.resize_grows == 0


class TestContraction:
    def test_running_job_donates_to_blocked_head(self):
        sim, _, rm = build(n=8)
        hog = elastic(1, 8, 2, 8, runtime=2000.0, est=3000.0, submit=1.0)
        head = rigid(2, 4, runtime=100.0, submit=60.0)
        rm.run_trace([hog, head], until=2 * HOUR)
        assert rm.resize_shrinks >= 1
        assert head.state is JobState.COMPLETED
        assert hog.state is JobState.COMPLETED
        # The head ran inside the hog's window, not after it.
        assert head.start_time < hog.end_time

    def test_shrink_stretches_wall_clock(self):
        sim, _, rm = build(n=8)
        hog = elastic(1, 8, 2, 8, runtime=1000.0, est=3000.0, submit=1.0)
        head = rigid(2, 4, runtime=3000.0, est=4000.0, submit=60.0)
        rm.run_trace([hog, head], until=6 * HOUR)
        assert hog.state is JobState.COMPLETED
        # 8000 node-seconds of work at width 4 after the shrink: the
        # wall clock stretches well past the nominal 1000 s runtime.
        assert hog.end_time - hog.start_time > 1000.0
        assert hog.node_seconds == pytest.approx(8000.0, rel=0.1)


class TestShrinkOnFailure:
    def test_malleable_job_survives_node_failure(self):
        sim, _, rm = build(n=8)
        j = elastic(1, 4, 2, 4, runtime=500.0, est=600.0)
        rm.start()
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=100.0)
        assert j.state is JobState.RUNNING
        victim = j.allocated_nodes[0]
        rm._on_failure_event("fail", [victim], sim.now)
        assert j.state is JobState.RUNNING
        assert len(j.allocated_nodes) == 3
        assert victim not in j.allocated_nodes
        assert rm.resize_shrinks == 1
        sim.run(until=HOUR)
        assert j.state is JobState.COMPLETED

    def test_job_at_min_width_still_killed(self):
        sim, _, rm = build(n=8)
        # A rigid neighbour fills the machine, so the elastic job stays
        # pinned at its minimum width — no node to contract around.
        neighbour = rigid(2, 6, runtime=2000.0, est=3000.0)
        j = elastic(1, 2, 2, 4, runtime=500.0, est=600.0)
        rm.start()
        sim.call_at(1.0, lambda: rm.submit(neighbour))
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=100.0)
        assert len(j.allocated_nodes) == 2
        rm._on_failure_event("fail", [j.allocated_nodes[0]], sim.now)
        sim.run(until=HOUR)
        assert j.state is JobState.FAILED

    def test_rigid_job_killed_as_before(self):
        sim, _, rm = build(n=8)
        j = rigid(1, 4, runtime=500.0, est=600.0)
        rm.start()
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=100.0)
        rm._on_failure_event("fail", [j.allocated_nodes[0]], sim.now)
        sim.run(until=HOUR)
        assert j.state is JobState.FAILED
