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
    def start_sampler(self, interval_s: float = 1.0) -> None:
        """Arm the once-per-``interval`` sampler timer (idempotent).

        The paper samples once a second; benches on long horizons pass a
        coarser interval to keep series sizes manageable.  One
        :class:`~repro.simkit.events.Timer`, re-armed from its own
        firing, carries every sample.
        """
        if self._sampler_started:
            return
        self._sampler_started = True

        def fire() -> None:
            self.sample()
            timer.arm(interval_s)

        timer = self.sim.timer(fire, label=f"{self.owner}.sampler")
        timer.arm(interval_s)

    def sample(self) -> None:
        """Record one CPU-utilisation sample at the current time.

        Appends to the series buffers directly: the clock never runs
        backwards, so the samples stay in time order."""
        now = self.sim.now
        window = max(now - self._last_sample, 1e-9)
        util = min(self._busy_in_window / window, 1.0)
        series = self.cpu_util
        series._times.append(now)
        series._values.append(util)
        self._busy_in_window = 0.0
        self._last_sample = now

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
