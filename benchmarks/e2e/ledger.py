"""Per-layer host-time ledger, measured from outside the simulator.

For the traced repetition only, public entry points of each layer are
replaced on their classes by timing wrappers, and put back afterwards.
Each wrapper records calls, inclusive time and self time (inclusive
minus the wrapped calls made inside it).  The roots are the callbacks
handed to ``Simulator.timer`` and ``Simulator.call_at``, classified by
timer label and by defining module; anything unwrapped that runs
between them is the kernel's own dispatch, so

    simkit.self_s = trace.run_s - sum(inclusive time of outermost calls)

and the ledger sums to ``trace.run_s`` by construction.  ``fits`` is
not wrapped: at about a million calls per day the wrapper would cost
more than the call.

:data:`LAYER_METRICS` is the layer -> metric -> workload map: the
end-to-end metric each per-layer metric should move, and on which
workloads.  ``check`` holds ``BENCHMARK.json`` to it.
"""

from __future__ import annotations

import contextlib
import typing as t
from time import perf_counter

_16K, _131K, _MALL, _SLURM = (
    "eslurm-16k-day",
    "eslurm-131k-2h",
    "eslurm-1k-malleable",
    "slurm-65k-day",
)
_ESLURM = (_16K, _131K, _MALL)
_ALL = (*_ESLURM, _SLURM)


class Layer(t.NamedTuple):
    unit: str
    better: str
    #: end-to-end metric this one should move ...
    moves: str
    #: ... on these workloads
    on: tuple[str, ...]
    #: workloads where the prediction is no change
    unchanged: tuple[str, ...] = ()


LAYER_METRICS: dict[str, Layer] = {
    "setup.cluster_s": Layer("s", "lower", "setup_s", (_131K,)),
    "setup.trace_s": Layer("s", "lower", "setup_s", (_16K, _MALL, _SLURM)),
    "setup.rm_s": Layer("s", "lower", "setup_s", _ALL),
    "simkit.events": Layer("count", "lower", "run_s", (_SLURM,)),
    "simkit.self_s": Layer("s", "lower", "run_s", (_SLURM,)),
    "simkit.ns_per_event": Layer("ns", "lower", "run_s", (_SLURM,)),
    "simkit.call_at.calls": Layer("count", "lower", "run_s", (_SLURM,)),
    "simkit.call_at.self_s": Layer("s", "lower", "run_s", (_SLURM,)),
    "rm.lifecycle.calls": Layer("count", "lower", "run_s", (_SLURM,)),
    "rm.lifecycle.self_s": Layer("s", "lower", "run_s", (_SLURM,)),
    "rm.submit.calls": Layer("count", "lower", "run_s", (_SLURM,)),
    "rm.submit.self_s": Layer("s", "lower", "run_s", (_SLURM,)),
    "rm.submit.retries": Layer("count", "lower", "run_s", (_SLURM,)),
    "rm.heartbeat.self_s": Layer("s", "lower", "run_s", _ESLURM),
    "rm.timers.self_s": Layer("s", "lower", "run_s", (_SLURM,)),
    "rm.satellite.self_s": Layer("s", "lower", "run_s", (_131K,), (_SLURM,)),
    "rm.accounting.calls": Layer("count", "lower", "run_s", (_131K,)),
    "rm.accounting.self_s": Layer("s", "lower", "run_s", (_131K,)),
    "sched.plan.calls": Layer("count", "lower", "run_s", (_SLURM, _MALL)),
    "sched.plan.self_s": Layer("s", "lower", "slice_s_p90", (_SLURM, _MALL)),
    "sched.plan.us_per_call": Layer("us", "lower", "run_s", (_SLURM, _MALL)),
    "sched.plan.decisions": Layer("count", "higher", "run_s", (_SLURM, _MALL)),
    "sched.queue_depth_mean": Layer("count", "lower", "run_s", (_SLURM, _MALL)),
    "sched.resize.calls": Layer("count", "lower", "run_s", (_MALL,)),
    "sched.resize.self_s": Layer("s", "lower", "run_s", (_MALL,)),
    "sched.release.self_s": Layer("s", "lower", "run_s", (_SLURM,)),
    "estimate.calls": Layer("count", "lower", "run_s", (_MALL, _16K), (_SLURM,)),
    "estimate.self_s": Layer("s", "lower", "run_s", (_MALL, _16K), (_SLURM,)),
    "estimate.us_per_call": Layer("us", "lower", "run_s", (_MALL, _16K), (_SLURM,)),
    "estimate.trainings": Layer("count", "lower", "run_s", (_MALL, _16K), (_SLURM,)),
    "estimate.observe.self_s": Layer("s", "lower", "run_s", (_MALL, _16K), (_SLURM,)),
    "network.tree.calls": Layer("count", "lower", "run_s", (_131K,)),
    "network.tree.self_s": Layer("s", "lower", "run_s", (_131K,), (_MALL,)),
    "network.memo.self_s": Layer("s", "lower", "run_s", (_131K,)),
    "network.memo.lookups": Layer("count", "lower", "run_s", (_131K,)),
    "network.memo.hit_ratio": Layer("ratio", "higher", "run_s", (_131K,)),
    "fptree.construct.calls": Layer("count", "lower", "run_s", (_131K,), (_SLURM,)),
    "fptree.construct.self_s": Layer("s", "lower", "run_s", (_131K,), (_SLURM,)),
    "fptree.memo.lookups": Layer("count", "lower", "run_s", (_131K,), (_SLURM,)),
    "fptree.memo.hit_ratio": Layer("ratio", "higher", "run_s", (_131K,), (_SLURM,)),
    "fptree.forest.self_s": Layer("s", "lower", "run_s", (_131K,), (_SLURM,)),
    "cluster.failures.self_s": Layer("s", "lower", "run_s", (_131K, _SLURM)),
    "trace.run_s": Layer("s", "lower", "run_s", _ALL),
    "trace.overhead_frac": Layer("ratio", "lower", "run_s", _ALL),
}

#: timer label suffix -> layer (``job<id>``, ``failures.*`` and
#: ``monitoring.*`` are matched by prefix in :func:`timer_layer`)
_TIMER_SUFFIX = {
    "heartbeat": "rm.heartbeat",
    "sched_tick": "rm.timers",
    "user_rpc": "rm.timers",
    "crashes": "rm.timers",
    "sampler": "rm.accounting",
}

#: package of a ``call_at`` callback -> layer
_CALLBACK_PACKAGE = {"repro.rm": "rm.submit", "repro.cluster": "cluster.failures"}


def timer_layer(label: str) -> str | None:
    if label.startswith("job"):
        return "rm.lifecycle"
    if label.startswith(("failures.", "monitoring.")):
        return "cluster.failures"
    return _TIMER_SUFFIX.get(label.rpartition(".")[2])


def callback_layer(func: t.Callable[..., t.Any]) -> str | None:
    module = getattr(func, "__module__", None) or ""
    return _CALLBACK_PACKAGE.get(module.rpartition(".")[0])


class Ledger:
    """Calls, inclusive and self host seconds per layer."""

    def __init__(self) -> None:
        #: layer -> [calls, inclusive_s, self_s]; reset in place, since
        #: wrappers made during set-up keep a reference to their record
        self.records: dict[str, list[float]] = {}
        #: wrapped time of open calls' children, innermost last
        self._stack: list[float] = []
        #: inclusive time of outermost wrapped calls
        self._outer = [0.0]
        self.counts: dict[str, float] = {}
        #: class -> instances built while installed (counter sources)
        self.instances: dict[type, list[t.Any]] = {}
        self._base: dict[str, float] = {}
        self._setup_trace_s = 0.0

    def wrap(self, layer: str, fn: t.Callable[..., t.Any]) -> t.Callable[..., t.Any]:
        rec = self.records.setdefault(layer, [0, 0.0, 0.0])
        stack = self._stack
        outer = self._outer
        clock = perf_counter

        def timed(*args: t.Any, **kwargs: t.Any) -> t.Any:
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    outer[0] += dt

        return timed

    def start_run(self) -> None:
        """Zero every record: the ledger covers the horizon, not set-up."""
        self._setup_trace_s = self.records["setup.trace"][1]
        for rec in self.records.values():
            rec[:] = [0, 0.0, 0.0]
        self._outer[0] = 0.0
        for key in self.counts:
            self.counts[key] = 0
        self._base = self._sources()

    def _sources(self) -> dict[str, float]:
        """Simulator-owned counters, summed over the tracked instances."""
        from repro.estimate.framework import EslurmEstimator
        from repro.fptree.constructor import FPTreeConstructor
        from repro.network.broadcast import MemoizedBroadcast
        from repro.rm.base import ResourceManager

        fields = {
            "submit_failures": (ResourceManager, "submit_failures"),
            "trainings": (EslurmEstimator, "trainings"),
            "memo_hits": (MemoizedBroadcast, "hits"),
            "memo_misses": (MemoizedBroadcast, "misses"),
            "fp_hits": (FPTreeConstructor, "memo_hits"),
            "fp_misses": (FPTreeConstructor, "memo_misses"),
        }
        return {
            key: float(sum(getattr(obj, attr) for obj in self.instances.get(cls, ())))
            for key, (cls, attr) in fields.items()
        }

    # -- installation --------------------------------------------------
    def _patches(self) -> list[tuple[t.Any, str, t.Any]]:
        """``(owner, attribute, replacement)`` for every wrapped entry point."""
        import repro.api
        from repro.estimate.framework import EslurmEstimator
        from repro.fptree.constructor import FPTreeBroadcast, FPTreeConstructor
        from repro.network.broadcast import MemoizedBroadcast
        from repro.network.sockets import ConnectionTracker
        from repro.network.structures import TreeBroadcast
        from repro.rm.accounting import DaemonAccounting
        from repro.rm.base import ResourceManager
        from repro.rm.lifecycle import JobLifecycle
        from repro.rm.satellite import SatellitePool
        from repro.sched.allocator import NodePool
        from repro.sched.backfill import BackfillScheduler
        from repro.simkit.core import Simulator

        wrap = self.wrap
        patches: list[tuple[t.Any, str, t.Any]] = []

        def method(cls: type, name: str, layer: str) -> None:
            patches.append((cls, name, wrap(layer, getattr(cls, name))))

        orig_timer = Simulator.timer

        def timer(sim: t.Any, fn: t.Any, label: str = "timer") -> t.Any:
            layer = timer_layer(label)
            return orig_timer(sim, fn if layer is None else wrap(layer, fn), label)

        timed_call_at = wrap("simkit.call_at", Simulator.call_at)

        def call_at(sim: t.Any, when: float, func: t.Any) -> t.Any:
            layer = callback_layer(func)
            return timed_call_at(sim, when, func if layer is None else wrap(layer, func))

        patches += [(Simulator, "timer", timer), (Simulator, "call_at", call_at)]

        orig_plan = BackfillScheduler.plan
        counts = self.counts
        counts.update({"sched.decisions": 0, "sched.queue_depth_sum": 0})

        def plan(sched: t.Any, queue: t.Any, pool: t.Any, now: float) -> t.Any:
            decisions = orig_plan(sched, queue, pool, now)
            counts["sched.decisions"] += len(decisions)
            # started jobs have left the queue: add them back for the
            # depth the pass saw
            counts["sched.queue_depth_sum"] += len(queue) + len(decisions)
            return decisions

        patches.append((BackfillScheduler, "plan", wrap("sched.plan", plan)))
        method(BackfillScheduler, "plan_resizes", "sched.resize")
        method(NodePool, "release", "sched.release")
        method(JobLifecycle, "begin", "rm.lifecycle")
        method(DaemonAccounting, "charge_cpu", "rm.accounting")
        method(DaemonAccounting, "sample", "rm.accounting")
        method(ConnectionTracker, "pulse", "rm.accounting")
        method(SatellitePool, "assign_task", "rm.satellite")
        method(SatellitePool, "heartbeat_all", "rm.satellite")
        method(EslurmEstimator, "estimate", "estimate")
        method(EslurmEstimator, "observe", "estimate.observe")
        for name in ("simulate", "simulate_forest"):
            method(TreeBroadcast, name, "network.tree")
            method(MemoizedBroadcast, name, "network.memo")
            method(FPTreeBroadcast, name, "fptree.forest")
        method(FPTreeConstructor, "construct", "fptree.construct")
        # set-up split: trace generation inside prepare_rm_day
        patches.append((repro.api, "generate_trace", wrap("setup.trace", repro.api.generate_trace)))

        for cls in (ResourceManager, EslurmEstimator, MemoizedBroadcast, FPTreeConstructor):
            patches.append((cls, "__init__", self._tracking_init(cls)))
        return patches

    def _tracking_init(self, cls: type) -> t.Callable[..., None]:
        orig = cls.__init__
        built = self.instances.setdefault(cls, [])

        def __init__(obj: t.Any, *args: t.Any, **kwargs: t.Any) -> None:
            orig(obj, *args, **kwargs)
            built.append(obj)

        return __init__

    @contextlib.contextmanager
    def installed(self) -> t.Iterator["Ledger"]:
        """Patch every entry point; the originals are back on exit,
        also when the traced repetition raises."""
        saved: list[tuple[t.Any, str, t.Any]] = []
        try:
            for owner, name, replacement in self._patches():
                saved.append((owner, name, owner.__dict__.get(name, _ABSENT)))
                setattr(owner, name, replacement)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                if original is _ABSENT:
                    delattr(owner, name)
                else:
                    setattr(owner, name, original)

    # -- results -------------------------------------------------------
    def metrics(self, rep: t.Any) -> dict[str, float]:
        """Every :data:`LAYER_METRICS` value of the traced
        :class:`~benchmarks.e2e.workloads.Rep` except
        ``trace.overhead_frac``, which needs the untraced repetitions.

        Times are normalized like the repetition's own: the horizon's
        host-speed scale applies to every run-phase layer, the set-up's
        to the set-up split, so the ledger sums to ``trace.run_s``."""
        rec = self.records
        run_s, events = rep.run_s, rep.events
        scale = run_s / rep.run_wall_s

        def calls(layer: str) -> float:
            return rec.get(layer, (0, 0.0, 0.0))[0]

        def self_s(layer: str) -> float:
            return rec.get(layer, (0, 0.0, 0.0))[2] * scale

        def per_call_us(layer: str) -> float:
            return self_s(layer) / calls(layer) * 1e6 if calls(layer) else 0.0

        now = self._sources()
        delta = {key: now[key] - self._base.get(key, 0.0) for key in now}
        memo_lookups = delta["memo_hits"] + delta["memo_misses"]
        fp_lookups = delta["fp_hits"] + delta["fp_misses"]
        kernel_s = (rep.run_wall_s - self._outer[0]) * scale
        plans = calls("sched.plan")
        cluster_s = rep.cluster_wall_s * rep.setup_scale
        trace_s = self._setup_trace_s * rep.setup_scale
        out = {
            "setup.cluster_s": cluster_s,
            "setup.trace_s": trace_s,
            "setup.rm_s": rep.setup_s - cluster_s - trace_s,
            "simkit.events": events,
            "simkit.self_s": kernel_s,
            "simkit.ns_per_event": kernel_s / events * 1e9 if events else 0.0,
            "rm.submit.retries": delta["submit_failures"],
            "sched.plan.us_per_call": per_call_us("sched.plan"),
            "sched.plan.decisions": self.counts["sched.decisions"],
            "sched.queue_depth_mean": self.counts["sched.queue_depth_sum"] / plans if plans else 0.0,
            "estimate.us_per_call": per_call_us("estimate"),
            "estimate.trainings": delta["trainings"],
            # a ratio over an empty base reads 0; the base is its own metric
            "network.memo.lookups": memo_lookups,
            "network.memo.hit_ratio": delta["memo_hits"] / memo_lookups if memo_lookups else 0.0,
            "fptree.memo.lookups": fp_lookups,
            "fptree.memo.hit_ratio": delta["fp_hits"] / fp_lookups if fp_lookups else 0.0,
            "trace.run_s": run_s,
        }
        for name in LAYER_METRICS:
            layer, _, kind = name.rpartition(".")
            if name in out:
                continue
            if kind == "calls":
                out[name] = calls(layer)
            elif kind == "self_s":
                out[name] = self_s(layer)
        return out


_ABSENT = object()
