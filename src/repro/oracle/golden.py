"""Golden traces: frozen event-stream digests for regression pinning.

Differential and metamorphic relations catch *wrong* behaviour; golden
traces catch *changed* behaviour.  A scenario is a name and a
:class:`~repro.api.SimulationConfig` (:data:`GOLDEN_SCENARIOS`: four
64-node days and the paper-scale tiers).  Each runs with a
:class:`TraceDigest` attached to the simulator's trace-hook seam,
folding every processed event's ``(time, priority, sequence)`` triple
into one SHA-256.  The digest, the event count and a summarized metric
vector are frozen under ``tests/golden/GOLDEN_<scenario>.json``; any
event inserted, dropped, re-ordered, or re-timed anywhere in the stack
changes the hash.  These files are the repository's only recorded
anchors.

Two rules keep this honest:

* same seed ⇒ byte-identical file — every recorded quantity derives
  from simulated state, never the host clock;
* the files regenerate **only** through ``repro verify
  --update-golden`` — a mismatch is a finding to explain (and then
  deliberately re-freeze), not noise to silence.

Scenario seeds are baked into the scenario definitions (a digest is
only meaningful against the workload it froze), so the golden layer
ignores the CLI's ``--seed``.
"""

from __future__ import annotations

import hashlib
import json
import struct
import typing as t
from dataclasses import asdict
from pathlib import Path

from repro.api import SimulationConfig, prepare_rm_day, quick_cluster, rm_kwargs_for_config
from repro.bench.scenarios import PAPER_SCALE
from repro.errors import ConfigurationError
from repro.oracle.relations import RelationResult

SCHEMA = "repro-golden/1"

#: repo root (this file lives at src/repro/oracle/golden.py)
DEFAULT_GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"


class TraceDigest:
    """SHA-256 over the deterministic event stream of one simulator.

    Attach via :meth:`repro.simkit.core.Simulator.add_trace_hook`; each
    processed event folds its ``(time, priority, seq)`` into the hash as
    packed little-endian ``double, int64, int64`` — the full heap
    ordering key, so the digest pins the exact replay order.
    """

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.events = 0
        self.last_time = 0.0

    def hook(self, when: float, priority: int, seq: int) -> None:
        self._sha.update(struct.pack("<dqq", when, priority, seq))
        self.events += 1
        self.last_time = when

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def _small(rm: str, n_satellites: int, **kwargs: t.Any) -> SimulationConfig:
    """A 64-node day of 300 jobs at seed 42 (the four original scenarios)."""
    return SimulationConfig(
        rm=rm, n_nodes=64, n_satellites=n_satellites, seed=42, n_jobs=300, **kwargs
    )


#: the canonical frozen scenarios, name -> config: four 64-node days
#: covering both RMs, failure injection and the estimation framework,
#: then the paper-scale tiers at seed 0 (1K to 131K nodes, 10K jobs,
#: the malleable and topology-aware variants) — about 15 s together on
#: a 2-CPU host
GOLDEN_SCENARIOS: dict[str, SimulationConfig] = {
    "slurm-base": _small("slurm", 1),
    "eslurm-base": _small("eslurm", 2),
    "eslurm-failures": _small("eslurm", 2, failures=True),
    "eslurm-estimator": _small("eslurm", 2, estimator="auto"),
    **{name: tier.simulation_config(0) for name, tier in PAPER_SCALE.items()},
}


def record(name: str, config: SimulationConfig) -> dict[str, t.Any]:
    """Run one scenario and return its golden payload.

    The day is built as :func:`repro.api.run_simulation` and the
    ``benchmarks/e2e`` harness build it (``quick_cluster``, then
    ``prepare_rm_day`` with :func:`repro.api.rm_kwargs_for_config`),
    with the digest hooked in before anything is scheduled.
    """
    cluster = quick_cluster(
        n_nodes=config.n_nodes,
        n_satellites=config.n_satellites,
        seed=config.seed,
        failures=config.failures,
        monitoring=config.monitoring,
    )
    digest = TraceDigest()
    cluster.sim.add_trace_hook(digest.hook)
    manager, jobs = prepare_rm_day(
        config.rm,
        cluster,
        n_jobs=config.n_jobs,
        seed=config.seed,
        horizon_s=config.horizon_s,
        workload=config.workload,
        estimator=config.estimator,
        **rm_kwargs_for_config(config, cluster),
    )
    manager.run_trace(jobs, until=cluster.sim.now + config.horizon_s)
    report = manager.report(horizon_s=config.horizon_s)
    assert report.schedule is not None
    settings: dict[str, t.Any] = {
        "rm": config.rm,
        "n_nodes": config.n_nodes,
        "n_satellites": config.n_satellites,
        "seed": config.seed,
        "failures": config.failures,
        "estimator": "auto" if config.estimator == "auto" else None,
        "n_jobs": config.n_jobs,
        "horizon_s": config.horizon_s,
    }
    # Set only when not the default, so the files recorded before
    # these knobs existed keep their bytes.
    if config.malleable:
        settings["malleable"] = True
    if config.placement != "first-fit":
        settings["placement"] = config.placement
    return {
        "schema": SCHEMA,
        "scenario": name,
        "config": settings,
        "trace": {
            "digest": f"sha256:{digest.hexdigest()}",
            "events": digest.events,
            "last_event_time_s": digest.last_time,
        },
        "metrics": {
            "master": dict(report.master),
            "schedule": asdict(report.schedule),
        },
    }


def golden_path(golden_dir: Path, name: str) -> Path:
    return Path(golden_dir) / f"GOLDEN_{name}.json"


def dump_canonical(payload: t.Mapping[str, t.Any]) -> str:
    """The canonical byte form — sorted keys, two-space indent."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_golden(
    golden_dir: Path | None = None,
    scenarios: t.Mapping[str, SimulationConfig] | None = None,
) -> list[Path]:
    """Re-run every scenario and freeze its payload (``--update-golden``).

    ``scenarios`` defaults to :data:`GOLDEN_SCENARIOS` as it is when called.
    """
    out_dir = Path(golden_dir) if golden_dir is not None else DEFAULT_GOLDEN_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, config in (GOLDEN_SCENARIOS if scenarios is None else scenarios).items():
        path = golden_path(out_dir, name)
        path.write_text(dump_canonical(record(name, config)))
        paths.append(path)
    return paths


def _load_file(path: Path) -> dict[str, t.Any]:
    """One frozen payload; a file of another shape is a
    :class:`ConfigurationError` naming it."""
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"golden file {path} is not JSON: {exc}") from None
    shape = {"scenario": str, "trace": dict, "metrics": dict}
    fields = payload if isinstance(payload, dict) else {}
    missing = [key for key, kind in shape.items() if not isinstance(fields.get(key), kind)]
    if not missing:
        trace = payload["trace"]
        missing = [
            f"trace.{key}" for key, kind in (("digest", str), ("events", int))
            if not isinstance(trace.get(key), kind)
        ]
    if missing:
        raise ConfigurationError(
            f"golden file {path} lacks {', '.join(missing)}; "
            "re-record it with `repro verify --update-golden`"
        )
    return payload


def load_golden(golden_dir: Path | None = None) -> dict[str, dict[str, t.Any]]:
    """Frozen payloads by scenario name (missing files simply absent)."""
    src = Path(golden_dir) if golden_dir is not None else DEFAULT_GOLDEN_DIR
    loaded: dict[str, dict[str, t.Any]] = {}
    for path in sorted(src.glob("GOLDEN_*.json")):
        payload = _load_file(path)
        loaded[payload["scenario"]] = payload
    return loaded


def compare(current: t.Mapping[str, t.Any], frozen: t.Mapping[str, t.Any]) -> list[RelationResult]:
    """Judge a fresh recording against its frozen payload."""
    name = current["scenario"]
    results = []
    cur_tr, froz_tr = current["trace"], frozen["trace"]
    digest_ok = cur_tr["digest"] == froz_tr["digest"]
    detail = f"{cur_tr['events']} events, {cur_tr['digest'][:23]}…"
    if not digest_ok:
        detail = (
            f"event stream diverged: {cur_tr['events']} events vs frozen {froz_tr['events']}, "
            f"{cur_tr['digest'][:23]}… vs {froz_tr['digest'][:23]}…"
        )
    results.append(
        RelationResult(relation=f"golden-digest/{name}", ok=digest_ok, detail=detail, layer="golden")
    )
    metrics_ok = current["metrics"] == frozen["metrics"]
    m_detail = "metric vector matches frozen values"
    if not metrics_ok:
        diffs = [
            f"{section}.{key}"
            for section in current["metrics"]
            for key in current["metrics"][section]
            if current["metrics"][section][key] != frozen["metrics"].get(section, {}).get(key)
        ]
        m_detail = f"metrics diverged: {', '.join(diffs[:5]) or 'section mismatch'}"
    results.append(
        RelationResult(relation=f"golden-metrics/{name}", ok=metrics_ok, detail=m_detail, layer="golden")
    )
    return results


def check_golden(
    golden_dir: Path | None = None,
    scenarios: t.Mapping[str, SimulationConfig] | None = None,
) -> list[RelationResult]:
    """Re-run every scenario and compare against the frozen files.

    ``scenarios`` defaults to :data:`GOLDEN_SCENARIOS` as it is when called.
    """
    frozen = load_golden(golden_dir)
    results: list[RelationResult] = []
    for name, config in (GOLDEN_SCENARIOS if scenarios is None else scenarios).items():
        if name not in frozen:
            results.append(
                RelationResult(
                    relation=f"golden-digest/{name}",
                    ok=False,
                    detail="no frozen trace on disk — run `repro verify --update-golden`",
                    layer="golden",
                )
            )
            continue
        results.extend(compare(record(name, config), frozen[name]))
    return results
