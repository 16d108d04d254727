"""Resource-usage accounting for RM daemons.

Fig. 7 and Fig. 9 plot, for the master (and satellite) daemons:
CPU utilisation and cumulative CPU time, virtual and real memory, and
concurrent TCP sockets — sampled once a second over 24 h.  This module
is the in-simulation recorder: the RM engine *charges* CPU for every
action it performs and *declares* its tracked state (nodes, jobs,
queued records), and the accounting turns those into the sampled
series using the daemon's cost profile.

Memory model::

    vmem = base + per_node·nodes + per_job·jobs + growth·elapsed_days
    rss  = rss_base + rss_per_node·nodes + rss_per_job·jobs

The growth term models the heap/cache growth production Slurm exhibits
(the paper watched slurmctld climb to 70 GB in a week on 20K nodes).

Sampling: one re-armed timer samples a *group* of daemons
(:meth:`DaemonAccounting.start_samplers`).  The RM gives its master a
group of one and its whole satellite tier one group, sampled in pool
order: the satellites' separate timers always fired back to back at one
instant, so one firing per interval reads the same state with one heap
push and one pop instead of one per satellite.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from repro.network.sockets import ConnectionTracker
from repro.simkit.monitor import TimeSeries

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.rm.profiles import RMProfile
    from repro.simkit.core import Simulator

DAY = 86_400.0


class DaemonAccounting:
    """Tracks one daemon's CPU / memory / socket usage over time."""

    def __init__(self, sim: "Simulator", profile: "RMProfile", owner: str) -> None:
        self.sim = sim
        self.profile = profile
        self.owner = owner
        self.start_time = sim.now
        self.cpu_time_s = 0.0
        self._busy_in_window = 0.0
        self.tracked_nodes = 0
        self.tracked_jobs = 0
        self.sockets = ConnectionTracker(sim, owner)
        self.cpu_util = TimeSeries(f"{owner}.cpu_util")
        self._sampler_started = False
        self._last_sample = sim.now

    # -- charging ---------------------------------------------------------
    def charge_cpu(self, seconds: float) -> None:
        """Record daemon CPU work (does not advance simulated time)."""
        if not seconds >= 0:
            raise ValueError("cannot charge negative CPU time")
        self.cpu_time_s += seconds
        self._busy_in_window += seconds

    @staticmethod
    def charge_cpu_each(accts: t.Iterable["DaemonAccounting"], seconds: float) -> None:
        """:meth:`charge_cpu` of ``seconds`` on every one of ``accts``,
        validated once (a heartbeat round charges each satellite alike)."""
        if not seconds >= 0:
            raise ValueError("cannot charge negative CPU time")
        for acct in accts:
            acct.cpu_time_s += seconds
            acct._busy_in_window += seconds

    def set_tracked(self, nodes: int | None = None, jobs: int | None = None) -> None:
        """Declare the daemon's current state size."""
        if nodes is not None:
            self.tracked_nodes = nodes
        if jobs is not None:
            self.tracked_jobs = jobs

    # -- instantaneous usage -------------------------------------------------
    def vmem_mb(self) -> float:
        p = self.profile
        days = (self.sim.now - self.start_time) / DAY
        return (
            p.base_vmem_mb
            + p.vmem_per_node_kb * self.tracked_nodes / 1024.0
            + p.vmem_per_job_kb * self.tracked_jobs / 1024.0
            + p.vmem_growth_mb_per_day * days
        )

    def rss_mb(self) -> float:
        p = self.profile
        return (
            p.base_rss_mb
            + p.rss_per_node_kb * self.tracked_nodes / 1024.0
            + p.rss_per_job_kb * self.tracked_jobs / 1024.0
        )

    # -- sampling ------------------------------------------------------------
    @staticmethod
    def start_samplers(
        accts: t.Sequence["DaemonAccounting"], interval_s: float, label: str
    ) -> None:
        """Arm one once-per-``interval`` timer that samples every one of
        ``accts``, in order (a daemon already started is skipped, so each
        is sampled at most once per instant).

        The paper samples once a second; benches on long horizons pass a
        coarser interval to keep series sizes manageable.  One
        :class:`~repro.simkit.events.Timer`, re-armed from its own
        firing, carries every sample of the group.

        Grouping is exact for daemons whose separate timers would fire
        back to back: armed in one loop that schedules nothing else,
        they take consecutive sequence numbers, and each firing re-arms
        only itself, so every later round's numbers are consecutive
        again.  At one time and priority with no free sequence number
        in between, nothing can run between two of those samples, so
        sampling them all in one callback reads the state each separate
        firing read, and the one timer keeps their place among the
        other events.  The RM arms its satellite tier this way.  The
        master keeps a timer of its own: it is armed before the
        heartbeat and scheduler-tick timers, so when the sample interval
        meets their period those run between its sample and the
        satellites', and one group would move their charges across a
        sample.
        """
        group = [acct for acct in accts if not acct._sampler_started]
        if not group:
            return
        for acct in group:
            acct._sampler_started = True
        sim = group[0].sim

        def fire() -> None:
            _sample_each(group, sim.now)
            timer.arm(interval_s)

        timer = sim.timer(fire, label=label)
        timer.arm(interval_s)

    def sample(self) -> None:
        """Record one CPU-utilisation sample at the current time."""
        _sample_each((self,), self.sim.now)

    # -- summaries -------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        return {
            "cpu_time_min": self.cpu_time_s / 60.0,
            "cpu_util_mean": self.cpu_util.mean(),
            "vmem_mb": self.vmem_mb(),
            "rss_mb": self.rss_mb(),
            "sockets_mean": self.sockets.mean(),
            "sockets_peak": self.sockets.peak(),
        }


def _sample_each(accts: t.Iterable[DaemonAccounting], now: float) -> None:
    """One CPU-utilisation sample at ``now`` for each of ``accts``.

    Appends to the series buffers directly: the clock never runs
    backwards, so the samples stay in time order."""
    for acct in accts:
        window = max(now - acct._last_sample, 1e-9)
        series = acct.cpu_util
        series._times.append(now)
        series._values.append(min(acct._busy_in_window / window, 1.0))
        acct._busy_in_window = 0.0
        acct._last_sample = now
