"""The task kinds: what a sweep cell *does*.

A task cell carries ``(kind, spec)`` where ``spec`` is a plain dict of
JSON types — the only thing that crosses the process boundary.  Workers
resolve ``kind`` through :func:`resolve_kind` against one fixed table,
built when this module is imported fresh in every spawned interpreter.

Every handler takes the spec dict and returns a plain JSON-able dict.
Handlers run the *same* library entry points the serial paths use
(:func:`repro.chaos.campaign.run_scenario`,
:func:`repro.oracle.verify.run_verify`, the experiment drivers), which
is what makes the ``jobs=1`` inline executor literally the serial path
and the merged ``jobs>1`` output byte-identical to it.

The ``selftest`` kind exists for the pool's own tests and smoke
targets: it can succeed, raise, hard-exit the worker, or fail exactly
once (via a marker file), exercising crash containment and retry-once
without touching the simulator.
"""

from __future__ import annotations

import os
import typing as t

from repro.errors import ConfigurationError

#: a task handler: plain-dict spec in, plain JSON-able dict out
Handler = t.Callable[[t.Dict[str, t.Any]], t.Dict[str, t.Any]]

# ---------------------------------------------------------------------------
# built-in kinds (one per sweep surface)
# ---------------------------------------------------------------------------
def _chaos_cell(spec: dict[str, t.Any]) -> dict[str, t.Any]:
    """One chaos campaign run: ``{"scenario": name, "seed": n}``."""
    from dataclasses import asdict

    from repro.chaos.campaign import run_scenario

    report = run_scenario(spec["scenario"], seed=int(spec.get("seed", 0)))
    return {
        "scenario": report.scenario,
        "seed": report.seed,
        "ok": report.ok,
        "total_violations": report.total_violations,
        "report": asdict(report),
        "text": report.to_text(),
    }


def _verify_cell(spec: dict[str, t.Any]) -> dict[str, t.Any]:
    """One oracle layer at one seed: ``{"seed": n, "layer": name}``."""
    from pathlib import Path

    from repro.oracle.verify import run_verify

    golden_dir = spec.get("golden_dir")
    report = run_verify(
        seed=int(spec.get("seed", 0)),
        layers=(spec["layer"],),
        golden_dir=Path(golden_dir) if golden_dir else None,
        relations=spec.get("relations"),
    )
    return {
        "seed": report.seed,
        "layer": spec["layer"],
        "ok": report.ok,
        "payload": report.to_payload(),
    }


def _experiment_cell(spec: dict[str, t.Any]) -> dict[str, t.Any]:
    """One paper experiment: ``{"name": "fig7", "quick": bool}``."""
    from repro.cli import EXPERIMENTS

    name = spec["name"]
    if name not in EXPERIMENTS:
        raise ConfigurationError(f"unknown experiment {name!r}")
    return {"name": name, "text": EXPERIMENTS[name](bool(spec.get("quick", False)))}


def _selftest_cell(spec: dict[str, t.Any]) -> dict[str, t.Any]:
    """Pool self-test cell; ``mode`` picks the behaviour.

    * ``"ok"`` — succeed, echoing ``spec["payload"]``.
    * ``"raise"`` — raise (a contained, in-worker failure).
    * ``"exit"`` — hard-kill the worker process (crash containment).
    * ``"flaky"`` — fail unless ``spec["marker"]`` exists, creating it
      first, so the retry succeeds (retry-once coverage).
    """
    mode = spec.get("mode", "ok")
    if mode == "ok":
        return {"echo": spec.get("payload"), "pid": os.getpid()}
    if mode == "raise":
        raise RuntimeError(f"poisoned task cell ({spec.get('payload')})")
    if mode == "exit":
        os._exit(int(spec.get("code", 13)))
    if mode == "flaky":
        marker = spec["marker"]
        if os.path.exists(marker):
            return {"echo": spec.get("payload"), "recovered": True, "pid": os.getpid()}
        with open(marker, "w") as fh:
            fh.write("poisoned-once\n")
        raise RuntimeError("flaky task cell (first attempt)")
    raise ConfigurationError(f"unknown selftest mode {mode!r}")


#: task kind -> handler, one per sweep surface (plus the pool self-test)
_KINDS: dict[str, Handler] = {
    "chaos": _chaos_cell,
    "verify": _verify_cell,
    "experiment": _experiment_cell,
    "selftest": _selftest_cell,
}


def resolve_kind(kind: str) -> Handler:
    handler = _KINDS.get(kind)
    if handler is None:
        raise ConfigurationError(
            f"unknown task kind {kind!r}; choose from {sorted(_KINDS)}"
        )
    return handler
