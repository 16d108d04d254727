"""The job model shared by schedulers, RMs, and the estimator.

A job carries two runtimes: ``runtime_s`` — the *actual* duration,
hidden from the scheduler until completion — and ``user_estimate_s`` —
what the user asked for (the wall-time limit).  The paper's Fig. 5a
shows users overestimate 80–90 % of the time; ESLURM substitutes a
model estimate (times a slack α) when its cluster-level accuracy is
good enough.  Whatever the scheduler believes is stored in ``limit_s``:
jobs running past their limit are killed (state ``TIMEOUT``), which is
why *under*-estimation is penalised so heavily (Table VIII's UR metric).
"""

from __future__ import annotations

import enum
import typing as t
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.node import id_mask, node_array
from repro.errors import SchedulingError


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    TIMEOUT = "timeout"  # killed at its wall-time limit
    CANCELLED = "cancelled"
    FAILED = "failed"  # node failure etc.

#: States a job can no longer leave.
TERMINAL_STATES = frozenset({JobState.COMPLETED, JobState.TIMEOUT, JobState.CANCELLED, JobState.FAILED})


#: the allocation of a job that has none
_NO_NODES = node_array(())


@dataclass
class Job:
    """One batch job.

    Args:
        job_id: unique, monotonically increasing id.
        name: job-script name (a key locality feature, Table IV).
        user: submitting user (Table IV).
        n_nodes: nodes requested.
        runtime_s: true runtime (hidden from the scheduler).
        user_estimate_s: user-submitted wall-time request; ``None`` when
            the user declined to give one.
        submit_time: submission timestamp (simulated seconds).
        cores_per_node: cores used on each allocated node.
        min_nodes: smallest width a malleable job accepts (0 resolves to
            ``n_nodes`` — a rigid job).
        max_nodes: largest width a malleable job can exploit (0 resolves
            to ``n_nodes``).
    """

    job_id: int
    name: str
    user: str
    n_nodes: int
    runtime_s: float
    user_estimate_s: float | None
    submit_time: float
    cores_per_node: int = 1
    min_nodes: int = 0
    max_nodes: int = 0

    # -- scheduler-managed fields -------------------------------------
    state: JobState = JobState.PENDING
    limit_s: float = field(default=0.0)  # kill limit (wall limit)
    #: the scheduler's *planning* belief about the runtime — what
    #: backfill reservations trust.  A runtime estimator improves this
    #: without touching the kill limit, so a model underestimate costs
    #: some backfill accuracy but never kills the job.
    planned_s: float = field(default=0.0)
    start_time: float | None = None
    end_time: float | None = None
    #: the allocation, a read-only ``int64`` array (see
    #: :func:`~repro.cluster.node.node_array`), empty until the job
    #: starts.  Not a dataclass field (no annotation): an array default
    #: would cost a factory call per job, and an array has no truth
    #: value for the generated ``__eq__``.
    allocated_nodes = _NO_NODES
    #: model estimate recorded for estimator bookkeeping (pre-slack)
    model_estimate_s: float | None = None
    #: how many grow/shrink transitions this job went through
    resize_count: int = 0
    #: node-seconds integrated across resize segments (malleable jobs
    #: only; rigid jobs keep the closed-form ``n_nodes * duration``)
    alloc_node_seconds: float = 0.0
    #: simulated time the current allocation width took effect
    last_resize_time: float | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise SchedulingError(f"job {self.job_id}: needs at least one node")
        if self.runtime_s <= 0:
            raise SchedulingError(f"job {self.job_id}: runtime must be positive")
        if self.user_estimate_s is not None and self.user_estimate_s <= 0:
            raise SchedulingError(f"job {self.job_id}: user estimate must be positive")
        if self.min_nodes == 0:
            self.min_nodes = self.n_nodes
        if self.max_nodes == 0:
            self.max_nodes = self.n_nodes
        if not 1 <= self.min_nodes <= self.n_nodes <= self.max_nodes:
            raise SchedulingError(
                f"job {self.job_id}: need 1 <= min_nodes <= n_nodes <= max_nodes, "
                f"got {self.min_nodes}/{self.n_nodes}/{self.max_nodes}"
            )
        if self.limit_s == 0.0:
            # Default belief: the user's estimate, else the true runtime
            # (a perfectly-informed fallback used by baseline runs).
            self.limit_s = self.user_estimate_s if self.user_estimate_s else self.runtime_s
        if self.planned_s == 0.0:
            self.planned_s = self.limit_s

    # -- lifecycle ------------------------------------------------------
    def start(self, now: float, nodes: t.Sequence[int]) -> None:
        if self.state is not JobState.PENDING:
            raise SchedulingError(f"job {self.job_id}: start from state {self.state.value}")
        if self.malleable:
            if not self.min_nodes <= len(nodes) <= self.max_nodes:
                raise SchedulingError(
                    f"job {self.job_id}: allocated {len(nodes)} nodes, accepts "
                    f"[{self.min_nodes}, {self.max_nodes}]"
                )
        elif len(nodes) != self.n_nodes:
            raise SchedulingError(
                f"job {self.job_id}: allocated {len(nodes)} nodes, wanted {self.n_nodes}"
            )
        self.state = JobState.RUNNING
        self.start_time = now
        self.allocated_nodes = node_array(nodes)
        if self.malleable:
            self.last_resize_time = now

    # -- malleability ---------------------------------------------------
    @property
    def malleable(self) -> bool:
        """Whether the job accepts widths other than ``n_nodes``."""
        return self.min_nodes < self.max_nodes

    def _accumulate_segment(self, now: float) -> None:
        assert self.last_resize_time is not None
        self.alloc_node_seconds += (now - self.last_resize_time) * len(self.allocated_nodes)
        self.last_resize_time = now

    def grow(self, now: float, new_nodes: t.Sequence[int]) -> None:
        """Widen a running malleable job by ``new_nodes``."""
        if self.state is not JobState.RUNNING:
            raise SchedulingError(f"job {self.job_id}: grow from state {self.state.value}")
        if not self.malleable:
            raise SchedulingError(f"job {self.job_id}: not malleable")
        added = node_array(new_nodes)
        if id_mask(added, self.allocated_nodes).any():
            raise SchedulingError(f"job {self.job_id}: grow nodes overlap allocation")
        if len(self.allocated_nodes) + len(added) > self.max_nodes:
            raise SchedulingError(
                f"job {self.job_id}: grow past max_nodes={self.max_nodes}"
            )
        self._accumulate_segment(now)
        self.allocated_nodes = node_array(np.concatenate((self.allocated_nodes, added)))
        self.resize_count += 1

    def shrink(self, now: float, removed_nodes: t.Sequence[int]) -> None:
        """Narrow a running malleable job, releasing ``removed_nodes``."""
        if self.state is not JobState.RUNNING:
            raise SchedulingError(f"job {self.job_id}: shrink from state {self.state.value}")
        if not self.malleable:
            raise SchedulingError(f"job {self.job_id}: not malleable")
        removed = np.unique(node_array(removed_nodes))
        gone = id_mask(self.allocated_nodes, removed)
        if np.count_nonzero(gone) != removed.size:
            raise SchedulingError(f"job {self.job_id}: shrink nodes not in allocation")
        if len(self.allocated_nodes) - removed.size < self.min_nodes:
            raise SchedulingError(
                f"job {self.job_id}: shrink below min_nodes={self.min_nodes}"
            )
        self._accumulate_segment(now)
        self.allocated_nodes = node_array(self.allocated_nodes[~gone])
        self.resize_count += 1

    def finish(self, now: float, state: JobState = JobState.COMPLETED) -> None:
        if self.state is not JobState.RUNNING:
            raise SchedulingError(f"job {self.job_id}: finish from state {self.state.value}")
        if state not in TERMINAL_STATES:
            raise SchedulingError(f"job {self.job_id}: {state.value} is not terminal")
        if self.last_resize_time is not None:
            self._accumulate_segment(now)
            self.last_resize_time = None
        self.state = state
        self.end_time = now

    def cancel(self, now: float) -> None:
        if self.state in TERMINAL_STATES:
            raise SchedulingError(f"job {self.job_id}: already terminal")
        if self.last_resize_time is not None:
            self._accumulate_segment(now)
            self.last_resize_time = None
        self.state = JobState.CANCELLED
        self.end_time = now

    # -- derived quantities -----------------------------------------------
    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def effective_runtime_s(self) -> float:
        """What the job will actually run for, given its wall limit."""
        return min(self.runtime_s, self.limit_s)

    @property
    def will_timeout(self) -> bool:
        """Whether the wall limit truncates the job (an underestimate)."""
        return self.limit_s < self.runtime_s

    @property
    def wait_time(self) -> float:
        if self.start_time is None:
            raise SchedulingError(f"job {self.job_id}: not started")
        return self.start_time - self.submit_time

    @property
    def node_seconds(self) -> float:
        if self.start_time is None or self.end_time is None:
            return 0.0
        if self.alloc_node_seconds > 0.0:
            # Malleable jobs integrate the actual width over time.
            return self.alloc_node_seconds
        return self.n_nodes * (self.end_time - self.start_time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Job {self.job_id} {self.name!r} n={self.n_nodes} {self.state.value}>"
