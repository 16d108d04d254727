"""The sweep engine: warm spawn-based workers with crash containment.

:func:`run_tasks` executes a list of :class:`Task` cells and returns
one :class:`TaskResult` per cell **in input order**, however the cells
were scheduled.  ``jobs=1`` (the default) executes inline in the
calling process — that *is* the serial path, byte for byte, because
the same kind handlers run either way.  ``jobs>1`` scatters cells onto
``min(jobs, len(tasks))`` warm worker processes created with the
``spawn`` start method; they live for that one call, driven by a
single-threaded loop in the calling process.

Spawn, not fork, deliberately: a forked child inherits whatever the
parent accumulated — an active telemetry session, numpy RNG state,
half-collected generators awaiting finalisation — any of which can
leak into a simulation and break the same-seed byte-identity this
repository's golden files assert.  A spawned worker is a pristine
interpreter whose runs are indistinguishable from a fresh serial
invocation (it also behaves identically on macOS/Windows, where fork
is unavailable or unsafe).

Failure posture, per cell:

* a handler that **raises** is caught inside the worker and reported
  as a failed attempt — the worker stays warm;
* a worker that **dies** (``os._exit``, segfault, OOM-kill) is
  detected via its process sentinel; only the cell it was holding is
  charged, and a fresh worker replaces it;
* either way the cell is retried once (``retries=1``) before its
  :class:`TaskResult` is finalised as failed.  Other cells always run
  to completion — one poisoned cell cannot take down a sweep.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
import typing as t
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait

from repro.errors import ReproError
from repro.parallel.tasks import resolve_kind


class SweepError(ReproError):
    """A sweep could not produce a result for every task cell."""


@dataclass(frozen=True)
class Task:
    """One sweep cell: a unique id, a kind, and a plain-dict spec."""

    id: str
    kind: str
    spec: dict[str, t.Any] = field(default_factory=dict)


@dataclass
class TaskResult:
    """The outcome of one cell, after any retry."""

    task_id: str
    ok: bool
    value: t.Any = None
    error: str | None = None
    attempts: int = 1
    worker: int | None = None  #: worker index, or ``None`` for inline
    wall_s: float = 0.0


def resolve_jobs(jobs: int) -> int:
    """Normalise a ``--jobs`` value: ``0`` means cpu autodetect."""
    if jobs < 0:
        raise SweepError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
def _worker_main(conn: Connection) -> None:  # pragma: no cover - runs in child
    """Warm worker loop: recv a cell, run its handler, send the outcome.

    Handler exceptions are converted to ``("err", ...)`` messages so the
    worker survives them; only a hard process death escapes this loop.
    """
    while True:
        message = conn.recv()
        if message[0] == "stop":
            conn.close()
            return
        _, task_id, kind, spec = message
        start = time.perf_counter()
        try:
            value = resolve_kind(kind)(spec)
        except BaseException:
            conn.send(("err", task_id, traceback.format_exc(), time.perf_counter() - start))
        else:
            conn.send(("ok", task_id, value, time.perf_counter() - start))


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------
@dataclass
class _WorkerHandle:
    index: int
    process: multiprocessing.process.BaseProcess
    conn: Connection
    current: Task | None = None


def _spawn_worker(ctx: t.Any, index: int) -> _WorkerHandle:
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    process = ctx.Process(
        target=_worker_main,
        args=(child_conn,),
        name=f"repro-sweep-{index}",
        daemon=True,
    )
    process.start()
    child_conn.close()
    return _WorkerHandle(index=index, process=process, conn=parent_conn)


def _run_inline(
    tasks: t.Sequence[Task],
    retries: int,
    progress: t.Callable[[TaskResult], None] | None,
) -> list[TaskResult]:
    """The serial path: same handlers, same retry policy, one process."""
    results = []
    for task in tasks:
        handler = resolve_kind(task.kind)
        result = TaskResult(task_id=task.id, ok=False)
        for attempt in range(1, retries + 2):
            start = time.perf_counter()
            result.attempts = attempt
            try:
                result.value = handler(dict(task.spec))
            except Exception:
                result.error = traceback.format_exc()
                result.wall_s = time.perf_counter() - start
            else:
                result.ok = True
                result.error = None
                result.wall_s = time.perf_counter() - start
                break
        if progress is not None:
            progress(result)
        results.append(result)
    return results


def run_tasks(
    tasks: t.Sequence[Task],
    jobs: int = 1,
    retries: int = 1,
    progress: t.Callable[[TaskResult], None] | None = None,
) -> list[TaskResult]:
    """Execute every cell; return results in task order, come what may.

    Args:
        tasks: the sweep cells; ids must be unique (results are merged
            keyed by id, so duplicates would be ambiguous).
        jobs: worker processes; ``1`` runs inline (the serial path),
            ``0`` autodetects the cpu count.
        retries: extra attempts per failed cell (default one retry).
        progress: called with each finalised :class:`TaskResult` as it
            completes — completion order, not task order.
    """
    tasks = list(tasks)
    ids = [task.id for task in tasks]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise SweepError(f"duplicate task ids in sweep: {dupes}")
    for task in tasks:
        resolve_kind(task.kind)  # fail fast on unknown kinds, pre-spawn
    if not tasks:
        return []
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(tasks) == 1:
        return _run_inline(tasks, retries, progress)
    return _run_pool(tasks, jobs, retries, progress)


def _run_pool(
    tasks: list[Task],
    jobs: int,
    retries: int,
    progress: t.Callable[[TaskResult], None] | None,
) -> list[TaskResult]:
    """The ``jobs>1`` path: feed cells to warm spawned workers, then order."""
    ctx = multiprocessing.get_context("spawn")
    pending: deque[Task] = deque(tasks)
    attempts = {task.id: 0 for task in tasks}
    finished: dict[str, TaskResult] = {}
    workers = [_spawn_worker(ctx, i) for i in range(min(jobs, len(tasks)))]
    next_index = len(workers)

    def settle(worker: _WorkerHandle, task: Task, ok: bool, value: t.Any,
               error: str | None, wall_s: float) -> None:
        """Record one attempt's outcome: finalise or requeue for retry."""
        if ok or attempts[task.id] > retries:
            result = TaskResult(
                task_id=task.id, ok=ok, value=value, error=error,
                attempts=attempts[task.id], worker=worker.index, wall_s=wall_s,
            )
            finished[task.id] = result
            if progress is not None:
                progress(result)
        else:
            pending.appendleft(task)

    try:
        while len(finished) < len(tasks):
            for worker in workers:
                if worker.current is None and pending:
                    task = pending.popleft()
                    worker.current = task
                    attempts[task.id] += 1
                    worker.conn.send(("task", task.id, task.kind, dict(task.spec)))
            busy = [w for w in workers if w.current is not None]
            if not busy:  # pragma: no cover - defensive
                break
            ready = set(wait([w.conn for w in busy] + [w.process.sentinel for w in busy]))
            dead: list[_WorkerHandle] = []
            for worker in busy:
                message = None
                if worker.conn in ready or worker.process.sentinel in ready:
                    try:
                        if worker.conn.poll():
                            message = worker.conn.recv()
                    except (EOFError, OSError):
                        message = None
                task = worker.current
                assert task is not None
                if message is not None:
                    status, task_id, payload, wall_s = message
                    assert task_id == task.id
                    worker.current = None
                    if status == "ok":
                        settle(worker, task, True, payload, None, wall_s)
                    else:
                        settle(worker, task, False, None, payload, wall_s)
                elif worker.process.sentinel in ready and not worker.process.is_alive():
                    # hard death mid-cell: charge only the held task
                    worker.current = None
                    dead.append(worker)
                    settle(
                        worker, task, False, None,
                        f"worker {worker.index} died (exit code {worker.process.exitcode}) "
                        f"while running task {task.id!r}", 0.0,
                    )
            for worker in dead:
                workers.remove(worker)
                worker.conn.close()
                worker.process.join()
                if len(tasks) - len(finished) > len(workers):
                    workers.append(_spawn_worker(ctx, next_index))
                    next_index += 1
    finally:
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - defensive
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            worker.conn.close()

    missing = [task.id for task in tasks if task.id not in finished]
    if missing:  # pragma: no cover - defensive
        raise SweepError(f"sweep lost results for tasks: {missing}")
    return [finished[task.id] for task in tasks]
