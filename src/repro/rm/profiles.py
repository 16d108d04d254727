"""Per-RM cost profiles.

Each production RM the paper compares against behaves differently on
three axes: how much master CPU one slave interaction costs, how much
master state one tracked node/job costs, and how it talks to slaves
(persistent vs burst connections; direct vs tree vs satellite fan-out).
The constants below are calibrated so a 4K-node / 24 h run reproduces
Fig. 7's curves — Slurm's 10 GB of virtual memory, ESLURM's <2 GB vmem
and ~60 MB rss, OpenPBS/SGE's standing connection armies, LSF/Slurm's
1000-connection bursts — and so full-scale runs land in the ranges of
Fig. 9 and Tables V/VI.  Only orderings and ratios are claims; see
EXPERIMENTS.md.
"""

from __future__ import annotations

import enum
import math
import typing as t
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError


class HeartbeatStyle(enum.Enum):
    """Who carries the periodic health-check traffic."""

    DIRECT = "direct"  # master polls every slave itself
    TREE = "tree"  # master seeds a fan-out tree (Slurm-style)
    SATELLITE = "satellite"  # master only talks to satellites (ESLURM)


class LaunchStructure(enum.Enum):
    """How job-launch/termination messages reach the allocated nodes."""

    SERIAL = "serial"  # one RPC after another (early PBS-family)
    STAR = "star"  # bounded pool of concurrent direct RPCs
    TREE = "tree"  # k-ary fan-out tree from the master
    SATELLITE_FPTREE = "satellite-fptree"  # ESLURM: satellites + FP-Tree


#: CPU, memory, socket-fraction and timing fields: finite and >= 0
_NON_NEGATIVE = (
    "rpc_cpu_us", "launch_cpu_ms", "launch_cpu_per_node_us", "sched_cpu_ms", "user_rpc_cpu_ms",
    "base_vmem_mb", "vmem_per_node_kb", "vmem_per_job_kb", "vmem_growth_mb_per_day",
    "base_rss_mb", "rss_per_node_kb", "rss_per_job_kb",
    "persistent_socket_frac", "burst_socket_frac",
    "heartbeat_interval_s", "launch_ack_s", "scheduler_tick_s", "reboot_minutes",
    "submit_fail_per_10k_nodes",
)
#: timer periods and the crash MTBF, which may be ``inf`` ("never"): > 0
_POSITIVE = ("heartbeat_interval_s", "scheduler_tick_s", "crash_node_hours")


@dataclass(frozen=True)
class RMProfile:
    """Cost and behaviour constants of one resource manager.

    CPU costs are *master-daemon* charges; satellite charges reuse
    ``rpc_cpu_us`` on the satellite's own accounting.
    """

    name: str
    # -- CPU ------------------------------------------------------------
    rpc_cpu_us: float  # per slave interaction (heartbeat, status)
    launch_cpu_ms: float  # per job launched (credential build etc.)
    launch_cpu_per_node_us: float  # additional per allocated node
    sched_cpu_ms: float  # per scheduling pass
    user_rpc_cpu_ms: float  # per user request (squeue/sbatch)
    # -- memory -----------------------------------------------------------
    base_vmem_mb: float
    vmem_per_node_kb: float
    vmem_per_job_kb: float
    vmem_growth_mb_per_day: float
    base_rss_mb: float
    rss_per_node_kb: float
    rss_per_job_kb: float
    # -- connections ----------------------------------------------------
    persistent_socket_frac: float  # standing connections, fraction of n
    burst_socket_frac: float  # extra connections during a heartbeat round
    # -- behaviour ----------------------------------------------------------
    heartbeat_style: HeartbeatStyle
    heartbeat_interval_s: float
    launch_structure: LaunchStructure
    #: synchronous slave-side ack/prolog wait per launch RPC.  Serial
    #: launchers (PBS family) pay it once per node — which is what makes
    #: their job occupation time explode with job size in Fig. 7f;
    #: star launchers pay it per node divided by their worker pool;
    #: tree launchers only per level (relays overlap).
    launch_ack_s: float = 0.02
    tree_width: int = 32
    star_concurrency: int = 64
    scheduler_tick_s: float = 30.0
    #: master-daemon crash MTBF expressed in *node-hours*: a master
    #: managing n nodes crashes every crash_node_hours/n hours.  The
    #: paper observed production Slurm at 20K+ nodes crashing every
    #: ~42 h with >90-minute reboots (Sec. II-B); ESLURM "almost never".
    crash_node_hours: float = float("inf")
    reboot_minutes: float = 90.0
    #: probability a user request fails to connect, per 10K managed
    #: nodes (the paper measured ~38 % at 20K+ for production Slurm).
    #: Failed submissions are retried or abandoned — the load shedding
    #: that caves in a centralized RM's utilization at scale.
    submit_fail_per_10k_nodes: float = 0.0

    def __post_init__(self) -> None:
        for name in _NON_NEGATIVE:
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigurationError(
                    f"profile {self.name}: {name} must be finite and >= 0, not {value!r}"
                )
        for name in _POSITIVE:
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"profile {self.name}: {name} must be > 0")
        if not self.persistent_socket_frac <= 1.0:
            raise ConfigurationError(f"profile {self.name}: invalid socket fraction")
        if self.tree_width < 2 or self.star_concurrency < 1:
            raise ConfigurationError(f"profile {self.name}: invalid fan-out")

    def with_overrides(self, **kw: t.Any) -> "RMProfile":
        return replace(self, **kw)


#: Slurm 20.11: efficient CPU path, but heavyweight per-node state (the
#: 10 GB vmem of Fig. 7c) and bursty fan-out connections.
SLURM = RMProfile(
    name="slurm",
    submit_fail_per_10k_nodes=0.19,
    crash_node_hours=860_000.0,
    reboot_minutes=90.0,
    launch_ack_s=0.015,
    rpc_cpu_us=60.0,
    launch_cpu_ms=8.0,
    launch_cpu_per_node_us=120.0,
    sched_cpu_ms=3.0,
    user_rpc_cpu_ms=1.5,
    base_vmem_mb=350.0,
    vmem_per_node_kb=2400.0,
    vmem_per_job_kb=64.0,
    vmem_growth_mb_per_day=140.0,
    base_rss_mb=60.0,
    rss_per_node_kb=75.0,
    rss_per_job_kb=12.0,
    persistent_socket_frac=0.0,
    burst_socket_frac=0.25,
    heartbeat_style=HeartbeatStyle.TREE,
    heartbeat_interval_s=30.0,
    launch_structure=LaunchStructure.TREE,
)

#: IBM LSF 10: moderate everything, bursty connections.
LSF = RMProfile(
    name="lsf",
    submit_fail_per_10k_nodes=0.25,
    crash_node_hours=700_000.0,
    reboot_minutes=45.0,
    launch_ack_s=0.05,
    rpc_cpu_us=150.0,
    launch_cpu_ms=12.0,
    launch_cpu_per_node_us=250.0,
    sched_cpu_ms=5.0,
    user_rpc_cpu_ms=2.5,
    base_vmem_mb=500.0,
    vmem_per_node_kb=800.0,
    vmem_per_job_kb=96.0,
    vmem_growth_mb_per_day=60.0,
    base_rss_mb=120.0,
    rss_per_node_kb=110.0,
    rss_per_job_kb=16.0,
    persistent_socket_frac=0.0,
    burst_socket_frac=0.3,
    heartbeat_style=HeartbeatStyle.DIRECT,
    heartbeat_interval_s=60.0,
    launch_structure=LaunchStructure.STAR,
)

#: SGE 8.1: chatty protocol, standing connections to every execd.
SGE = RMProfile(
    name="sge",
    submit_fail_per_10k_nodes=0.5,
    crash_node_hours=160_000.0,
    reboot_minutes=30.0,
    launch_ack_s=0.12,
    rpc_cpu_us=700.0,
    launch_cpu_ms=25.0,
    launch_cpu_per_node_us=900.0,
    sched_cpu_ms=15.0,
    user_rpc_cpu_ms=4.0,
    base_vmem_mb=400.0,
    vmem_per_node_kb=500.0,
    vmem_per_job_kb=128.0,
    vmem_growth_mb_per_day=40.0,
    base_rss_mb=150.0,
    rss_per_node_kb=140.0,
    rss_per_job_kb=24.0,
    persistent_socket_frac=1.0,
    burst_socket_frac=0.0,
    heartbeat_style=HeartbeatStyle.DIRECT,
    heartbeat_interval_s=30.0,
    launch_structure=LaunchStructure.SERIAL,
)

#: Torque 6: PBS-family serial launch path, heavy per-RPC cost.
TORQUE = RMProfile(
    name="torque",
    submit_fail_per_10k_nodes=0.45,
    crash_node_hours=220_000.0,
    reboot_minutes=30.0,
    launch_ack_s=0.1,
    rpc_cpu_us=500.0,
    launch_cpu_ms=20.0,
    launch_cpu_per_node_us=800.0,
    sched_cpu_ms=12.0,
    user_rpc_cpu_ms=3.5,
    base_vmem_mb=300.0,
    vmem_per_node_kb=350.0,
    vmem_per_job_kb=96.0,
    vmem_growth_mb_per_day=30.0,
    base_rss_mb=100.0,
    rss_per_node_kb=120.0,
    rss_per_job_kb=20.0,
    persistent_socket_frac=0.4,
    burst_socket_frac=0.2,
    heartbeat_style=HeartbeatStyle.DIRECT,
    heartbeat_interval_s=45.0,
    launch_structure=LaunchStructure.SERIAL,
)

#: OpenPBS 20: like Torque with an even larger standing connection set.
OPENPBS = RMProfile(
    name="openpbs",
    submit_fail_per_10k_nodes=0.4,
    crash_node_hours=260_000.0,
    reboot_minutes=30.0,
    launch_ack_s=0.08,
    rpc_cpu_us=450.0,
    launch_cpu_ms=18.0,
    launch_cpu_per_node_us=700.0,
    sched_cpu_ms=10.0,
    user_rpc_cpu_ms=3.0,
    base_vmem_mb=350.0,
    vmem_per_node_kb=550.0,
    vmem_per_job_kb=112.0,
    vmem_growth_mb_per_day=35.0,
    base_rss_mb=110.0,
    rss_per_node_kb=130.0,
    rss_per_job_kb=20.0,
    persistent_socket_frac=0.8,
    burst_socket_frac=0.1,
    heartbeat_style=HeartbeatStyle.DIRECT,
    heartbeat_interval_s=30.0,
    launch_structure=LaunchStructure.SERIAL,
)

#: ESLURM: the master only ever talks to satellites, keeps a slimmer
#: per-node record, and leaks nothing day over day.
ESLURM = RMProfile(
    name="eslurm",
    submit_fail_per_10k_nodes=0.005,
    crash_node_hours=1e12,
    reboot_minutes=5.0,
    launch_ack_s=0.012,
    rpc_cpu_us=40.0,
    launch_cpu_ms=6.0,
    launch_cpu_per_node_us=8.0,  # master only splits the nodelist
    sched_cpu_ms=3.0,
    user_rpc_cpu_ms=1.2,
    base_vmem_mb=180.0,
    vmem_per_node_kb=430.0,
    vmem_per_job_kb=48.0,
    vmem_growth_mb_per_day=5.0,
    base_rss_mb=8.0,
    rss_per_node_kb=13.0,
    rss_per_job_kb=8.0,
    persistent_socket_frac=0.0,
    burst_socket_frac=0.0,  # bursts hit satellites, not the master
    heartbeat_style=HeartbeatStyle.SATELLITE,
    heartbeat_interval_s=30.0,
    launch_structure=LaunchStructure.SATELLITE_FPTREE,
)

RM_PROFILES: dict[str, RMProfile] = {
    p.name: p for p in (SLURM, LSF, SGE, TORQUE, OPENPBS, ESLURM)
}
