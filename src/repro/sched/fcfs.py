"""First-come-first-served scheduling."""

from __future__ import annotations

import typing as t

import numpy as np

from repro.sched.allocator import NodePool
from repro.sched.job import Job
from repro.sched.queue import JobQueue


class FcfsScheduler:
    """Start queued jobs strictly in arrival order.

    The head blocks the queue until it fits — simple, fair, and the
    baseline that makes backfill's utilization advantage visible.
    """

    name = "fcfs"

    def plan(self, queue: JobQueue, pool: NodePool, now: float) -> list[tuple[Job, np.ndarray]]:
        """Pop and allocate every job that can start right now, in order.

        Returns ``(job, node_ids)`` decisions; jobs are started (their
        nodes held in the pool) but the caller owns the lifecycle calls.
        """
        decisions: list[tuple[Job, np.ndarray]] = []
        while True:
            head = queue.head()
            if head is None or not pool.fits(head):
                break
            nodes = pool.allocate(head, now)
            queue.remove(head)
            decisions.append((head, nodes))
        return decisions
