"""Tests for daemon resource accounting."""

import pytest

from repro.rm.accounting import DaemonAccounting
from repro.rm.profiles import RM_PROFILES
from repro.simkit import Simulator

SLURM = RM_PROFILES["slurm"]
DAY = 86_400.0


def make(profile=SLURM):
    sim = Simulator()
    return sim, DaemonAccounting(sim, profile, "test.master")


class TestCpu:
    def test_charge_accumulates(self):
        _, acct = make()
        acct.charge_cpu(1.5)
        acct.charge_cpu(0.5)
        assert acct.cpu_time_s == 2.0

    def test_negative_rejected(self):
        _, acct = make()
        with pytest.raises(ValueError):
            acct.charge_cpu(-1.0)

    def test_nan_rejected(self):
        _, acct = make()
        with pytest.raises(ValueError):
            acct.charge_cpu(float("nan"))
        assert acct.cpu_time_s == 0.0

    def test_nan_rejected_for_each(self):
        _, a = make()
        _, b = make()
        with pytest.raises(ValueError):
            DaemonAccounting.charge_cpu_each([a, b], float("nan"))
        with pytest.raises(ValueError):
            DaemonAccounting.charge_cpu_each([a, b], -1.0)
        assert a.cpu_time_s == b.cpu_time_s == 0.0

    def test_utilization_window(self):
        sim, acct = make()
        sim.run(until=10.0)
        acct.charge_cpu(5.0)  # 5s of work in a 10s window
        acct.sample()
        assert acct.cpu_util.last() == pytest.approx(0.5)
        sim.run(until=20.0)
        acct.sample()  # no work since: utilization drops to 0
        assert acct.cpu_util.last() == 0.0

    def test_utilization_capped_at_one(self):
        sim, acct = make()
        sim.run(until=1.0)
        acct.charge_cpu(100.0)
        acct.sample()
        assert acct.cpu_util.last() == 1.0


class TestMemory:
    def test_vmem_scales_with_nodes(self):
        _, acct = make()
        acct.set_tracked(nodes=0)
        base = acct.vmem_mb()
        acct.set_tracked(nodes=4096)
        assert acct.vmem_mb() == pytest.approx(base + SLURM.vmem_per_node_kb * 4096 / 1024)

    def test_vmem_growth_over_days(self):
        sim, acct = make()
        v0 = acct.vmem_mb()
        sim.run(until=2 * DAY)
        assert acct.vmem_mb() == pytest.approx(v0 + 2 * SLURM.vmem_growth_mb_per_day)

    def test_rss_scales_with_state(self):
        _, acct = make()
        acct.set_tracked(nodes=1000, jobs=50)
        expected = (
            SLURM.base_rss_mb
            + SLURM.rss_per_node_kb * 1000 / 1024
            + SLURM.rss_per_job_kb * 50 / 1024
        )
        assert acct.rss_mb() == pytest.approx(expected)

    def test_slurm_hits_10gb_vmem_at_4k(self):
        """Fig. 7c: Slurm needs ~10 GB of virtual memory for 4K nodes."""
        _, acct = make()
        acct.set_tracked(nodes=4096, jobs=500)
        assert 9_000 < acct.vmem_mb() + SLURM.vmem_growth_mb_per_day < 12_000

    def test_eslurm_under_2gb_vmem_at_4k(self):
        """Fig. 7c: ESLURM stays under 2 GB at the same scale."""
        _, acct = make(RM_PROFILES["eslurm"])
        acct.set_tracked(nodes=4096, jobs=500)
        assert acct.vmem_mb() < 2_400


class TestSampler:
    def test_sampler_records_series(self):
        sim, acct = make()
        DaemonAccounting.start_samplers([acct], 1.0, "test.sampler")
        sim.run(until=10.0)
        assert len(acct.cpu_util) == 10
        assert acct.cpu_util.times.tolist() == [float(k) for k in range(1, 11)]

    def test_sampler_idempotent(self):
        sim, acct = make()
        DaemonAccounting.start_samplers([acct], 1.0, "test.sampler")
        DaemonAccounting.start_samplers([acct], 1.0, "test.sampler")
        sim.run(until=5.0)
        assert len(acct.cpu_util) == 5

    def test_summary_keys(self):
        _, acct = make()
        s = acct.summary()
        assert {"cpu_time_min", "vmem_mb", "rss_mb", "sockets_mean", "sockets_peak"} <= set(s)


def group(sim, n):
    return [DaemonAccounting(sim, SLURM, f"test.sat{i}") for i in range(n)]


def charger(sim, accts, label):
    """A timer charging each daemon a distinct amount at every whole second."""
    step = [0]

    def fire():
        step[0] += 1
        for i, acct in enumerate(accts):
            acct.charge_cpu(0.001 * (i + 1) * (step[0] % 7))
        timer.arm(1.0)

    timer = sim.timer(fire, label=label)
    timer.arm(1.0)


def separate_samplers(sim, accts, interval_s):
    """The former per-daemon arming: one re-armed timer per daemon."""

    def arm(acct):
        def fire():
            acct.sample()
            timer.arm(interval_s)

        timer = sim.timer(fire, label=f"{acct.owner}.sampler")
        timer.arm(interval_s)

    for acct in accts:
        arm(acct)


def series_of(accts):
    return [(a.cpu_util.times.tolist(), a.cpu_util.values.tolist()) for a in accts]


class TestGroupSampler:
    """One timer samples a group of daemons: exactly what one timer per
    daemon, armed back to back, recorded."""

    def test_group_adds_one_heap_entry(self):
        sim = Simulator()
        accts = group(sim, 16)
        before = len(sim._heap)
        DaemonAccounting.start_samplers(accts, 1.0, "sats.sampler")
        assert len(sim._heap) == before + 1
        sim.run(until=3.0)
        assert len(sim._heap) == before + 1
        assert all(len(a.cpu_util) == 3 for a in accts)

    @pytest.mark.parametrize("interval_s", [1.0, 2.0, 0.5])
    def test_group_equals_separate_samplers(self, interval_s):
        """Charges at sample instants from a timer armed before the
        samplers land in that sample; those from one armed after land in
        the next, in both arrangements."""
        recorded = []
        for grouped in (True, False):
            sim = Simulator()
            accts = group(sim, 5)
            charger(sim, accts, "before")
            if grouped:
                DaemonAccounting.start_samplers(accts, interval_s, "sats.sampler")
            else:
                separate_samplers(sim, accts, interval_s)
            charger(sim, accts[::-1], "after")
            sim.run(until=20.0)
            recorded.append((series_of(accts), sim.events_processed))
        (grouped_series, grouped_events), (separate_series, separate_events) = recorded
        assert grouped_series == separate_series
        assert len(grouped_series[0][0]) == int(20.0 / interval_s)
        # one sampler event per instant instead of one per daemon
        assert separate_events - grouped_events == 4 * int(20.0 / interval_s)

    def test_second_start_is_a_no_op_per_daemon(self):
        sim = Simulator()
        a, b, c = group(sim, 3)
        DaemonAccounting.start_samplers([a], 1.0, "first.sampler")
        before = len(sim._heap)
        DaemonAccounting.start_samplers([a, b], 1.0, "second.sampler")
        DaemonAccounting.start_samplers([a, b], 1.0, "third.sampler")
        assert len(sim._heap) == before + 1  # b's group only; a kept its timer
        DaemonAccounting.start_samplers([c], 2.0, "fourth.sampler")
        sim.run(until=6.0)
        assert [len(x.cpu_util) for x in (a, b, c)] == [6, 6, 3]
        assert a.cpu_util.times.tolist() == b.cpu_util.times.tolist()

    def test_empty_group_arms_nothing(self):
        sim = Simulator()
        DaemonAccounting.start_samplers([], 1.0, "none.sampler")
        assert sim._heap == []
