"""Unit tests for the flat FSM job lifecycle (``repro.rm.lifecycle``).

These tests pin the phase walk, the kill/no-op edges, malleable
retiming, and the crashed-master hold; the retiming case also against
the times the generator reference computed before it was removed.
"""

import pytest

from repro.cluster import ClusterSpec, FailureModel
from repro.rm import CentralizedRM
from repro.rm.lifecycle import DONE, HOLD, TERM, WORK, JobLifecycle
from repro.sched import BackfillScheduler
from repro.sched.job import Job, JobState
from repro.simkit import Simulator

HOUR = 3600.0


def build(n=8, seed=0, malleable=False):
    sim = Simulator(seed=seed)
    cluster = ClusterSpec(
        n_nodes=n, n_satellites=2, failure_model=FailureModel.disabled()
    ).build(sim)
    scheduler = BackfillScheduler(malleable=True) if malleable else None
    rm = CentralizedRM.from_name("slurm", sim, cluster, scheduler=scheduler)
    return sim, cluster, rm


def rigid(job_id, n_nodes=4, runtime=100.0, est=200.0, submit=1.0):
    return Job(job_id, f"j{job_id}.sh", "u", n_nodes, runtime, est, submit)


def elastic(job_id, n_nodes, min_nodes, max_nodes, runtime=100.0, est=200.0, submit=1.0):
    return Job(job_id, f"j{job_id}.sh", "u", n_nodes, runtime, est, submit,
               min_nodes=min_nodes, max_nodes=max_nodes)


class TestPhaseWalk:
    def test_rigid_job_walks_launch_work_term_done(self):
        sim, _, rm = build()
        j = rigid(1, runtime=100.0)
        rm.start()
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=50.0)  # mid-runtime
        lc = rm._job_procs[1]
        assert isinstance(lc, JobLifecycle)
        assert lc.phase == WORK
        assert j.state is JobState.RUNNING
        sim.run(until=HOUR)
        assert lc.phase == DONE
        assert 1 not in rm._job_procs
        assert j.state is JobState.COMPLETED
        assert rm.pool.n_free == 8

    def test_underestimate_ends_in_timeout_state(self):
        sim, _, rm = build()
        j = rigid(1, runtime=1000.0, est=300.0)
        rm.run_trace([j], until=2 * HOUR)
        assert j.state is JobState.TIMEOUT


class TestKillPath:
    def test_kill_mid_work_fails_and_releases(self):
        sim, _, rm = build()
        j = rigid(1, runtime=500.0)
        rm.start()
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=100.0)
        lc = rm._job_procs[1]
        lc.kill()
        assert j.state is JobState.FAILED
        assert j.end_time == sim.now  # synchronous, same-tick
        assert lc.phase == DONE
        assert rm.pool.n_free == 8

    def test_interrupt_on_done_lifecycle_is_a_silent_noop(self):
        # By the time a second same-tick kill lands, the job is gone.
        sim, _, rm = build()
        j = rigid(1, runtime=500.0)
        rm.start()
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=100.0)
        lc = rm._job_procs[1]
        lc.kill()
        end = j.end_time
        lc.kill()  # must not raise or re-release
        assert j.end_time == end
        assert j.state is JobState.FAILED
        assert rm.pool.n_free == 8

    def test_same_tick_double_failure_kills_once(self):
        """Two failure events at one instant hitting the same job fail it
        exactly once at that time: the second finds it released."""
        sim, _, rm = build()
        j = rigid(1, n_nodes=4, runtime=500.0)
        rm.start()
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=100.0)
        nodes = j.allocated_nodes

        def double_blow():
            rm._on_failure_event("fail", [nodes[0]], sim.now)
            rm._on_failure_event("fail", [nodes[1]], sim.now)

        sim.call_at(150.0, double_blow)
        sim.run(until=HOUR)
        assert j.state is JobState.FAILED
        assert j.end_time == 150.0
        assert rm.pool.n_free == 8 - 2  # only the failed nodes stay out


class TestMalleableRetime:
    def test_shrink_stretches_wall_clock_work_conserving(self):
        sim, _, rm = build(malleable=True)
        hog = elastic(1, 8, 2, 8, runtime=1000.0, est=3000.0, submit=1.0)
        head = rigid(2, 4, runtime=3000.0, est=4000.0, submit=60.0)
        rm.run_trace([hog, head], until=6 * HOUR)
        assert hog.state is JobState.COMPLETED
        assert hog.end_time - hog.start_time > 1000.0
        assert hog.node_seconds == pytest.approx(8000.0, rel=0.1)

    def test_fsm_and_generator_retime_identically(self):
        # (hog start, hog end, head start, head end) as the generator
        # reference computed them for the same two jobs.
        sim, _, rm = build(malleable=True)
        hog = elastic(1, 8, 2, 8, runtime=1000.0, est=3000.0, submit=1.0)
        head = rigid(2, 4, runtime=3000.0, est=4000.0, submit=60.0)
        rm.run_trace([hog, head], until=6 * HOUR)
        ends = (hog.start_time, hog.end_time, head.start_time, head.end_time)
        assert ends == (1.02220724288, 1942.06341714112, 60.01900724288, 3060.03800989824)


class TestMasterCrashHold:
    def test_completion_during_crash_holds_resources(self):
        sim, _, rm = build()
        j = rigid(1, runtime=100.0)
        rm.start()
        sim.call_at(1.0, lambda: rm.submit(j))
        sim.run(until=50.0)
        work_end = j.start_time + 100.0
        # Crash the master across the completion instant.
        rm._crashed_until = work_end + 300.0
        sim.run(until=work_end + 1.0)
        assert rm._job_procs[1].phase == HOLD
        assert j.state is JobState.RUNNING  # completion held
        assert rm.pool.n_free == 8 - 4
        sim.run(until=HOUR)
        assert j.state is JobState.COMPLETED
        # Released only once the daemon was back.
        assert j.end_time >= work_end + 300.0
