"""The pending-job queue (FIFO with positional lookups for backfill)."""

from __future__ import annotations

import typing as t

from repro.errors import SchedulingError
from repro.sched.job import Job, JobState


class JobQueue:
    """FIFO queue of pending jobs.

    Backfill needs ordered iteration beyond the head, so this is a list
    with O(1) membership checks rather than a deque.
    """

    def __init__(self) -> None:
        self._jobs: list[Job] = []
        self._ids: set[int] = set()
        self._demand = 0
        #: how many jobs have left the queue; with ``len`` it tells a
        #: backfill pass whether its window changed (``submit`` only appends)
        self.removals = 0

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> t.Iterator[Job]:
        return iter(self._jobs)

    def submit(self, job: Job) -> None:
        """Append a pending job."""
        if job.state is not JobState.PENDING:
            raise SchedulingError(f"job {job.job_id}: only pending jobs can be queued")
        if job.job_id in self._ids:
            raise SchedulingError(f"job {job.job_id}: already queued")
        self._jobs.append(job)
        self._ids.add(job.job_id)
        self._demand += job.n_nodes

    def head(self) -> Job | None:
        """Oldest pending job, or ``None``."""
        return self._jobs[0] if self._jobs else None

    def remove(self, job: Job) -> None:
        """Remove a job (started or cancelled), found by its id.

        The scheduler removes the head or a job inside the backfill
        window, so the walk is short; matching ids avoids the dataclass
        ``__eq__`` that ``list.remove`` runs on every job ahead.
        """
        job_id = job.job_id
        if job_id not in self._ids:
            raise SchedulingError(f"job {job_id}: not in queue")
        jobs = self._jobs
        for i, queued in enumerate(jobs):
            if queued.job_id == job_id:
                del jobs[i]
                break
        self._ids.discard(job_id)
        self._demand -= queued.n_nodes
        self.removals += 1

    @property
    def demand_nodes(self) -> int:
        """Total nodes requested by pending jobs (O(1), kept incrementally).

        The malleable grow pass consults this to decide whether free
        capacity is truly spare: an empty queue means holes can be handed
        to running elastic jobs without delaying anyone.
        """
        return self._demand

    def backfill_candidates(self, depth: int) -> list[Job]:
        """The first ``depth`` jobs behind the head, in order.

        A bounded snapshot (the scheduler mutates the queue while
        iterating) that copies O(depth), not the whole queue — the
        difference matters when thousands of jobs are queued behind a
        100-deep backfill window.
        """
        return self._jobs[1 : depth + 1]
