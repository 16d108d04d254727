"""The job lifecycle: a flat, table-driven FSM on the kernel's timer lane.

Each launched job gets one :class:`JobLifecycle`: one re-armable
:class:`~repro.simkit.events.Timer` and a phase table of plain
bound-method callbacks:

    LAUNCH --timer--> WORK --timer--> (HOLD --timer-->) TERM --timer--> DONE

* **LAUNCH**: launch CPU charged, launch broadcast computed, timer armed
  for the broadcast makespan; on fire the job starts.
* **WORK**: rigid jobs arm one timer for ``effective_runtime_s``;
  malleable jobs arm per-segment timers over a work-conserving budget
  (``n_nodes × effective_runtime_s`` node-seconds, the DMR model), and
  a resize retimes the segment with an explicit cancel + re-arm.
* **HOLD**: a crashed master cannot process the completion, so the
  job's resources stay occupied until the daemon is back (the crash
  window is checked once, when work completes).
* **TERM**: end state decided, terminate broadcast computed, timer armed
  for its makespan; on fire the job finishes and releases.

Kills (node failure, master-crash orphaning) arrive through
:meth:`JobLifecycle.kill` and run synchronously: the pending timer is
lazily cancelled and the job fails and releases at once.  Killing a
DONE lifecycle is a silent no-op, so a second same-tick failure on the
same job changes nothing.

``tests/rm/test_lifecycle_equivalence.py`` pins per-job start/end
times, end states, accounting and telemetry on seeded days (malleable,
node-failure and master-crash included) against digests recorded from
the generator implementation this FSM replaced.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.network.message import MessageKind
from repro.sched.job import Job, JobState
from repro.simkit.events import Timer

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.rm.base import ResourceManager

# Phase indices — the FSM table in ``_TRANSITIONS`` is keyed on these.
LAUNCH, WORK, HOLD, TERM, DONE = range(5)
PHASE_NAMES = ("launch", "work", "hold", "term", "done")

#: below this many node-seconds a malleable work budget counts as spent
_WORK_EPS = 1e-9


class JobLifecycle:
    """One job's lifecycle on the kernel's timer lane; the engine keeps
    it in ``ResourceManager._job_procs`` until the job releases."""

    __slots__ = (
        "rm",
        "job",
        "nodes",
        "phase",
        "timer",
        "work",
        "seg_start",
        "seg_width",
        "end_state",
    )

    def __init__(self, rm: "ResourceManager", job: Job, nodes: np.ndarray) -> None:
        self.rm = rm
        self.job = job
        self.nodes = nodes
        self.phase = LAUNCH
        self.timer: Timer | None = None
        # Malleable work-segment state (work-conservation bookkeeping).
        self.work = 0.0
        self.seg_start = 0.0
        self.seg_width = 1
        self.end_state: JobState | None = None

    # -- engine entry points -------------------------------------------
    def kill(self) -> None:
        """Fail the job now (node failure, master crash); no-op once DONE."""
        if self.phase != DONE:
            self._kill()

    def retime(self) -> None:
        """Re-time a malleable job's work segment after a grow/shrink.

        Only a malleable job in WORK has a segment to retime; in any
        other phase the resize changes nothing here.
        """
        if self.phase == WORK and self.job.malleable:
            self._retime_work()

    # -- lifecycle entry -----------------------------------------------
    def begin(self) -> None:
        """Charge launch CPU, fire the launch broadcast, arm its timer."""
        rm = self.rm
        p = rm.profile
        rm.master_acct.charge_cpu(
            p.launch_cpu_ms / 1e3 + p.launch_cpu_per_node_us / 1e6 * len(self.nodes)
        )
        launch = rm._broadcast(MessageKind.JOB_LAUNCH, self.nodes)
        rm._bcast_tally.record(launch.makespan_s)
        self._arm(launch.makespan_s)

    # -- timer plumbing ------------------------------------------------
    def _arm(self, delay: float) -> None:
        timer = self.timer
        if timer is None or timer.cancelled:
            # First phase, or the previous timer was lazily cancelled
            # (resize retime): its stale heap entry forbids re-arming the
            # same object, so a fresh one replaces it (see Timer.arm).
            timer = self.rm.sim.timer(self._on_timer, label=f"job{self.job.job_id}")
            self.timer = timer
        timer.arm(delay)

    def _on_timer(self) -> None:
        _TRANSITIONS[self.phase](self)

    # -- phase transitions ---------------------------------------------
    def _on_launched(self) -> None:
        rm, job = self.rm, self.job
        job.start(rm.sim.now, self.nodes)
        rm.master_acct.set_tracked(jobs=len(rm.pool.running) + len(rm.queue))
        self.phase = WORK
        if job.malleable:
            self.work = float(job.n_nodes) * job.effective_runtime_s
            self._arm_work_segment()
        else:
            self._arm(job.effective_runtime_s)

    def _arm_work_segment(self) -> None:
        """One interruptible segment: burns ``width`` node-seconds per
        second of the remaining budget at the current allocation."""
        job = self.job
        self.seg_width = max(len(job.allocated_nodes), 1)
        self.seg_start = self.rm.sim.now
        self._arm(self.work / self.seg_width)

    def _retime_work(self) -> None:
        """A grow/shrink landed mid-segment: deduct what the old width
        burned, then restart the segment at the new width."""
        rm = self.rm
        self.work -= (rm.sim.now - self.seg_start) * self.seg_width
        timer = self.timer
        if timer is not None and timer.pending and not timer.cancelled:
            timer.cancel()
        if self.work > _WORK_EPS:
            self._arm_work_segment()
        else:
            # The old width finished the budget exactly at the resize
            # instant: the work phase ends now.
            self.work = 0.0
            self._end_work()

    def _on_work_done(self) -> None:
        self.work = 0.0
        self._end_work()

    def _end_work(self) -> None:
        rm = self.rm
        # A crashed master cannot process the completion: the job's
        # resources stay occupied until the daemon is back.
        if rm.master_down:
            self.phase = HOLD
            self._arm(rm._crashed_until - rm.sim.now)
            return
        self._start_terminate()

    def _on_hold_done(self) -> None:
        self._start_terminate()

    def _start_terminate(self) -> None:
        rm, job = self.rm, self.job
        self.end_state = JobState.TIMEOUT if job.will_timeout else JobState.COMPLETED
        # Resizes may have changed the allocation since launch.
        term_targets = job.allocated_nodes if len(job.allocated_nodes) else self.nodes
        term = rm._broadcast(MessageKind.JOB_TERMINATE, term_targets)
        rm._bcast_tally.record(term.makespan_s)
        self.phase = TERM
        self._arm(term.makespan_s)

    def _on_term_done(self) -> None:
        rm, job = self.rm, self.job
        job.finish(rm.sim.now, t.cast(JobState, self.end_state))
        self.phase = DONE
        rm._release(job)

    # -- kill path -----------------------------------------------------
    def _kill(self) -> None:
        """Node failure / master crash killed the job mid-flight."""
        rm, job = self.rm, self.job
        timer = self.timer
        if timer is not None and timer.pending and not timer.cancelled:
            timer.cancel()
        self.phase = DONE
        if job.state is JobState.RUNNING:
            job.finish(rm.sim.now, JobState.FAILED)
        elif job.state is JobState.PENDING:
            job.state = JobState.FAILED
            job.end_time = rm.sim.now
        rm._release(job)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<JobLifecycle job{self.job.job_id} {PHASE_NAMES[self.phase]}>"


#: the FSM table: phase index -> transition run when the phase's timer
#: fires (DONE arms no timer, so it has no entry)
_TRANSITIONS: tuple[t.Callable[[JobLifecycle], None], ...] = (
    JobLifecycle._on_launched,
    JobLifecycle._on_work_done,
    JobLifecycle._on_hold_done,
    JobLifecycle._on_term_done,
)
