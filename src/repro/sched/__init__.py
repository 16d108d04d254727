"""Job scheduling: job model, node pool, FCFS and EASY-backfill policies.

The paper evaluates every RM with the backfill scheduling algorithm
(Section VII-D); the quality of backfill decisions is exactly where the
job-runtime estimation framework earns its utilization gains — backfill
can only slot a job into a hole if the *believed* runtimes of the jobs
around the hole are accurate.

Policies are pure decision procedures over a :class:`NodePool` snapshot,
so they are unit-testable without a simulator; the RM engines drive them
from discrete events.

Beyond the paper's rigid/first-fit setting, :class:`BackfillScheduler`
optionally speaks a malleability protocol (jobs declare
``min_nodes``/``max_nodes`` and are grown/contracted at runtime) and the
pool accepts a :mod:`~repro.sched.placement` policy for topology/
fault-aware node selection.  Both are strictly opt-in.
"""

from repro.sched.allocator import NodePool
from repro.sched.backfill import BackfillScheduler, ResizeDecision
from repro.sched.fcfs import FcfsScheduler
from repro.sched.job import Job, JobState
from repro.sched.metrics import ScheduleMetrics, bounded_slowdown
from repro.sched.placement import (
    PlacementPolicy,
    TopologyAwarePlacement,
    build_placement,
    placement_score,
)
from repro.sched.queue import JobQueue

__all__ = [
    "Job",
    "JobState",
    "JobQueue",
    "NodePool",
    "FcfsScheduler",
    "BackfillScheduler",
    "ResizeDecision",
    "ScheduleMetrics",
    "bounded_slowdown",
    "PlacementPolicy",
    "TopologyAwarePlacement",
    "build_placement",
    "placement_score",
]
