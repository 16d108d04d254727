"""Structural state capture: the snapshot's verifiable core.

Generator-based processes cannot be pickled, so a snapshot does not
serialise live objects.  Instead it walks every piece of *structural*
state — kernel (heap/clock/seq/RNG), scheduler (pool/queue/jobs),
RM (master + satellites + accounting), cluster (node states, failure
log, maintenance windows, alerts) — into one nested dict of JSON
scalars, and hashes its canonical form.  Cold restore rebuilds the
world, replays to the same event boundary, re-walks the state, and
compares field by field: any nondeterminism anywhere in the simulator
surfaces as a named divergent path, not as silently different results.

Deliberate normalisations (the captured form must be invariant to
representation choices that differ between a live and a replayed world):

* the event heap is reported sorted with cancelled entries dropped —
  lazy deletion means their physical position is timing-dependent;
* the pool's free set is reported sorted, derived from its per-node
  state column;
* derived memo caches (backfill reservation walk, heartbeat makespan,
  FP-construction memo) are excluded: they are recomputed, not state.

Deliberate exclusion: telemetry sessions.  A session's metrics
registry is not captured, so snapshot worlds refuse one rather than
restore with different counters.  Everything captured is a pure
function of (config, event index).
"""

from __future__ import annotations

import hashlib
import json
import typing as t

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.snapshot.world import SimWorld


def canonical_state_json(state: t.Mapping[str, t.Any]) -> str:
    """Canonical byte form of a state dict (sorted keys, compact).

    ``allow_nan`` stays on: believed-end times of jobs without a wall
    limit are ``Infinity``, and Python's ``json`` emits them
    deterministically.
    """
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def state_digest(state: t.Mapping[str, t.Any]) -> str:
    return "sha256:" + hashlib.sha256(canonical_state_json(state).encode()).hexdigest()


def first_divergence(
    a: t.Any, b: t.Any, path: str = "$"
) -> tuple[str, t.Any, t.Any] | None:
    """First leaf where two state trees differ, as ``(path, a, b)``."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                return (f"{path}.{key}", "<absent>", b[key])
            if key not in b:
                return (f"{path}.{key}", a[key], "<absent>")
            hit = first_divergence(a[key], b[key], f"{path}.{key}")
            if hit is not None:
                return hit
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return (f"{path}.length", len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            hit = first_divergence(x, y, f"{path}[{i}]")
            if hit is not None:
                return hit
        return None
    if a != b:
        return (path, a, b)
    return None


# ---------------------------------------------------------------------------
# component walks
# ---------------------------------------------------------------------------
def _tally_state(tally: t.Any) -> dict[str, t.Any]:
    return {
        "n": tally.n,
        "mean": tally._mean,
        "m2": tally._m2,
        "min": None if tally.n == 0 else tally._min,
        "max": None if tally.n == 0 else tally._max,
    }


def _series_state(series: t.Any) -> list[t.Any]:
    # Length + last sample: enough to catch divergence immediately
    # without embedding a full day of samples in every snapshot.
    n = len(series)
    return [n, series._times[-1] if n else None, series._values[-1] if n else None]


def _acct_state(acct: t.Any) -> dict[str, t.Any]:
    # Apply pulse closes due by now before reading counter/series state
    # (closes are lazily drained; see repro.network.sockets).
    acct.sockets.sync()
    pending = acct.sockets._pending
    return {
        "sockets_pending": [len(pending), min(pending)[0] if pending else None],
        "cpu_time_s": acct.cpu_time_s,
        "busy_in_window": acct._busy_in_window,
        "tracked_nodes": acct.tracked_nodes,
        "tracked_jobs": acct.tracked_jobs,
        "last_sample": acct._last_sample,
        "sockets_current": acct.sockets.current,
        "sockets_opened": acct.sockets.total_opened,
        "socket_series": _series_state(acct.sockets.series),
        "cpu_series": _series_state(acct.cpu_series),
        "cpu_util": _series_state(acct.cpu_util),
    }


def _job_state(job: t.Any) -> list[t.Any]:
    return [
        job.job_id,
        job.state.name,
        job.limit_s,
        job.planned_s,
        job.start_time,
        job.end_time,
        job.allocated_nodes.tolist(),
        job.model_estimate_s,
        job.resize_count,
        job.alloc_node_seconds,
        job.last_resize_time,
    ]


def _pool_state(pool: t.Any) -> dict[str, t.Any]:
    return {
        "free": sorted(pool.free_ids()),
        "down": sorted(pool.down_ids()),
        "running": {
            str(job_id): {
                "nodes": rec.node_ids.tolist(),
                "believed_end": rec.believed_end,
            }
            for job_id, rec in pool.running.items()
        },
    }


def _queue_state(queue: t.Any) -> dict[str, t.Any]:
    return {
        "ids": [job.job_id for job in queue],  # FIFO order is state
        "demand": queue.demand_nodes,
    }


def _rm_state(rm: t.Any) -> dict[str, t.Any]:
    state: dict[str, t.Any] = {
        "name": rm.rm_name,
        "crashed_until": rm._crashed_until,
        "crash_count": rm.crash_count,
        "submit_failures": rm.submit_failures,
        "submits_abandoned": rm.submits_abandoned,
        "resize_grows": rm.resize_grows,
        "resize_shrinks": rm.resize_shrinks,
        "resize_ok": sorted(rm._resize_ok),
        "live_job_procs": sorted(rm._job_procs),
        # FSM-path lifecycles expose structural phase state; generator
        # Processes don't (their phase lives in an opaque frame), so
        # this maps only FSM entries (empty on the generator path).
        "lifecycles": {
            str(job_id): proc.snapshot_state()
            for job_id, proc in sorted(rm._job_procs.items())
            if hasattr(proc, "snapshot_state")
        },
        "occupation": _tally_state(rm._occupation),
        "broadcast": _tally_state(rm._bcast_tally),
        "master": _acct_state(rm.master_acct),
        "jobs": [_job_state(job) for job in rm.jobs],
    }
    sat_pool = getattr(rm, "sat_pool", None)
    if sat_pool is not None:
        state["satellites"] = {
            "rr": sat_pool._rr,
            "master_takeovers": sat_pool.master_takeovers,
            "daemons": [
                {
                    "state": daemon.state.name,
                    "fault_since": daemon._fault_since,
                    "tasks_received": daemon.stats.tasks_received,
                    "nodes_in_tasks": daemon.stats.nodes_in_tasks,
                    "tasks_failed": daemon.stats.tasks_failed,
                    "acct": _acct_state(daemon.acct),
                }
                for daemon in sat_pool.daemons
            ],
        }
    estimator = getattr(rm, "estimator", None)
    if estimator is not None:
        est: dict[str, t.Any] = {"name": getattr(estimator, "name", type(estimator).__name__)}
        history = getattr(estimator, "_history", None)
        if history is not None:
            est["history"] = len(history)
        if hasattr(estimator, "_last_train"):
            est["last_train"] = estimator._last_train
        if hasattr(estimator, "trainings"):
            est["trainings"] = estimator.trainings
        state["estimator"] = est
    return state


def _cluster_state(cluster: t.Any) -> dict[str, t.Any]:
    # Liveness only: which job holds a node is in the pool's records.
    injector = cluster.failures
    monitor = cluster.monitor
    return {
        "version": cluster.version,
        "down": sorted(cluster.unresponsive_ids()),
        "failure_events": [
            [ev.time, ev.kind, list(ev.node_ids), ev.recover_at]
            for ev in injector.events
        ],
        "maintenance_until": {
            str(node_id): until for node_id, until in injector._maint_until.items()
        },
        "alerts": [
            [alert.time, alert.node_id, alert.indicator, alert.spurious]
            for alert in monitor.alerts
        ],
    }


def capture_state(world: "SimWorld") -> dict[str, t.Any]:
    """Walk the world into one canonical, JSON-scalar state tree."""
    sim = world.sim
    return {
        "sim": sim.snapshot_state(),
        "rng": sim.rng.getstate(),
        "pool": _pool_state(world.rm.pool),
        "queue": _queue_state(world.rm.queue),
        "rm": _rm_state(world.rm),
        "cluster": _cluster_state(world.cluster),
    }
