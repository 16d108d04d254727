"""Command line of the end-to-end benchmark.

    PYTHONPATH=src python -m benchmarks.e2e [--seed N] [--workload NAME ...] [--out FILE]
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python -m benchmarks.e2e check
    python -m benchmarks.e2e compare OLD.json [NEW.json]

Each workload runs in a fresh child interpreter, one at a time, with
numpy held to one thread.  The child does one discarded warm-up
repetition, at least ``MIN_REPS`` timed repetitions with telemetry off
(more while ``--seconds`` has not elapsed), each on its own machine
seed, and unless ``--trace 0`` one traced repetition for the per-layer
ledger.  Every repetition's ``RmReport`` digest is checked against the
anchors in ``expected.json`` or against an earlier run of the same
machine; a repetition that raises or whose digest differs counts as
failed.

Every metric is printed by name with its unit, and ``--out`` writes
them all.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1`` (the
default).  The exit code is nonzero when any repetition failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import traceback
import typing as t
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.ledger import LAYER_METRICS  # noqa: E402
from benchmarks.e2e.workloads import MIN_REPS, WORKLOADS  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
#: seed-0 ``RmReport`` digests and event counts, one per workload
EXPECTED_PATH = HERE / "expected.json"
#: a child over this is killed and its workload counted as failed
CHILD_TIMEOUT_S = 170
RESULTS_SCHEMA = "repro-e2e-bench/1"

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
_PATH = re.compile(r"[A-Za-z0-9_.][A-Za-z0-9_./-]{0,199}")
_SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def load_spec() -> dict[str, t.Any]:
    return json.loads(SPEC_PATH.read_text())


# -- check ----------------------------------------------------------------
def check_spec(spec: dict[str, t.Any]) -> list[str]:
    """Problems with a ``BENCHMARK.json`` payload (empty when valid)."""
    problems: list[str] = []
    if set(spec) != _SPEC_KEYS:
        problems.append(f"top-level keys {sorted(spec)} != {sorted(_SPEC_KEYS)}")
        return problems
    limits = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}
    for section, (lo, hi) in limits.items():
        if not lo <= len(spec[section]) <= hi:
            problems.append(f"{section}: {len(spec[section])} entries, allowed {lo}..{hi}")
    run_seconds = spec["run_seconds"]
    if not isinstance(run_seconds, int) or not 1 <= run_seconds <= 60:
        problems.append(f"run_seconds {run_seconds!r} is not a whole number in 1..60")
    command = spec["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32
            and all(isinstance(a, str) and len(a) <= 200 for a in command)):
        problems.append("command must be a list of 1..32 strings of at most 200 characters")
    paths = spec["paths"]
    if not (1 <= len(paths) <= 16 and all(
        isinstance(p, str) and _PATH.fullmatch(p) and ".." not in p.split("/") for p in paths
    )):
        problems.append(f"paths {paths!r}: need 1..16 relative paths inside the repository")
    seen: set[str] = set()
    shapes = {
        "workloads": {"name", "why"},
        "end_to_end": {"name", "unit", "better", "bound"},
        "per_layer": {"name", "unit", "better"},
    }
    for section, keys in shapes.items():
        for entry in spec[section]:
            name = entry.get("name", "")
            if set(entry) != keys:
                problems.append(f"{section} {name!r}: keys {sorted(entry)} != {sorted(keys)}")
            if not _NAME.fullmatch(name):
                problems.append(f"{section}: bad name {name!r}")
            if name in seen:
                problems.append(f"{section}: name {name!r} used twice")
            seen.add(name)
            if "unit" in keys and not _UNIT.fullmatch(entry.get("unit", "")):
                problems.append(f"{name}: bad unit {entry.get('unit')!r}")
            if "better" in keys and entry.get("better") not in ("higher", "lower"):
                problems.append(f"{name}: better must be 'higher' or 'lower'")
            why = entry.get("why", "")
            if "why" in keys and not (isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why):
                problems.append(f"{name}: why must be one line of 1..200 characters")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    for m in e2e.values():
        if not 0 < m.get("bound", -1) <= 0.25:
            problems.append(f"{m['name']}: bound {m.get('bound')!r} not in (0, 0.25]")
    setup = e2e.get("setup_s")
    if setup is None or (setup.get("unit"), setup.get("better")) != ("s", "lower"):
        problems.append("setup_s (unit s, better lower) is required")
    elif any(m.get("bound", 0) > setup.get("bound", 0) for m in e2e.values()):
        problems.append("setup_s must carry the largest bound")
    workloads = {w["name"] for w in spec["workloads"]}
    if workloads != set(WORKLOADS):
        problems.append(f"workloads {sorted(workloads)} != defined {sorted(WORKLOADS)}")
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    if set(per_layer) != set(LAYER_METRICS):
        problems.append(
            f"per_layer differs from the ledger: missing {sorted(set(LAYER_METRICS) - set(per_layer))}, "
            f"unknown {sorted(set(per_layer) - set(LAYER_METRICS))}"
        )
    for name, layer in LAYER_METRICS.items():
        entry = per_layer.get(name)
        if entry is not None and (entry["unit"], entry["better"]) != (layer.unit, layer.better):
            problems.append(f"{name}: unit/better differ from the ledger")
        if layer.moves not in e2e:
            problems.append(f"{name}: moves unknown end-to-end metric {layer.moves!r}")
        if not layer.on or not set(layer.on + layer.unchanged) <= workloads:
            problems.append(f"{name}: names no workload, or an unknown one")
    return problems


# -- statistics -----------------------------------------------------------
def distribution(samples: t.Sequence[float], unit: str) -> dict[str, t.Any]:
    """Median, quartiles and sample count."""
    out: dict[str, t.Any] = {"value": statistics.median(samples), "unit": unit, "n": len(samples)}
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    return out


def p90(samples: t.Sequence[float], unit: str) -> dict[str, t.Any]:
    """The 90th percentile, unresolved (``value`` None) when fewer than
    ten samples lie beyond it."""
    value = statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]
    beyond = sum(1 for s in samples if s > value)
    return {"value": value if beyond >= 10 else None, "unit": unit, "n": len(samples), "beyond": beyond}


def summarize(raw: dict[str, t.Any]) -> dict[str, dict[str, t.Any]]:
    """Metric name -> summary for one child's raw samples."""
    metrics: dict[str, dict[str, t.Any]] = {}
    if raw.get("run_s"):
        metrics["setup_s"] = distribution(raw["setup_s"], "s")
        metrics["run_s"] = distribution(raw["run_s"], "s")
        metrics["slice_s_p50"] = distribution(raw["slice_s"], "s")
        metrics["slice_s_p90"] = p90(raw["slice_s"], "s")
        metrics["peak_rss_mb"] = {"value": raw["peak_rss_mb"], "unit": "MB", "n": 1}
        # not judged: un-normalized walls, and how slow the host ran
        metrics["wall.setup_s"] = distribution(raw["wall_setup_s"], "s")
        metrics["wall.run_s"] = distribution(raw["wall_run_s"], "s")
        metrics["host.slowdown"] = distribution(raw["host_slowdown"], "x")
    metrics["failed_frac"] = {
        "value": raw["failed"] / max(raw["attempted"], 1), "unit": "ratio", "n": raw["attempted"]
    }
    for name, value in (raw.get("layers") or {}).items():
        metrics[name] = {"value": value, "unit": LAYER_METRICS[name].unit, "n": 1}
    return metrics


# -- child ----------------------------------------------------------------
def run_child(name: str, seed: int, seconds: float, trace: bool) -> dict[str, t.Any]:
    """Warm-up, timed repetitions and the traced one; raw samples out."""
    import resource
    from time import perf_counter

    from benchmarks.e2e import workloads
    from benchmarks.e2e.ledger import Ledger

    spec = workloads.scenario(name)
    expected = json.loads(EXPECTED_PATH.read_text())
    # machine seed -> its report digest and event count: the anchors at
    # the recorded seed, else whatever the machine's first run gave
    known: dict[int, dict[str, t.Any]] = {}
    if seed == expected["seed"]:
        known = {int(m): v for m, v in expected["workloads"].get(name, {}).items()}
    raw: dict[str, t.Any] = {"workload": name, "seed": seed, "attempted": 0, "failed": 0,
                             "notes": []}

    def attempt(rep: int, on_run_start: t.Callable[[], None] | None = None) -> t.Any:
        raw["attempted"] += 1
        machine = workloads.machine_seed(seed, rep)
        try:
            result = workloads.run_rep(spec, machine, on_run_start)
        except Exception:  # a raising repetition is a failed one; keep going
            traceback.print_exc()
            raw["failed"] += 1
            return None
        ref = known.setdefault(machine, {"digest": result.digest, "events": result.events})
        if result.digest != ref["digest"]:
            raw["failed"] += 1
            raw["notes"].append(f"machine {machine}: report digest {result.digest[:12]} "
                                f"!= {ref['digest'][:12]}")
            return None
        if result.events != ref["events"]:
            raw["notes"].append(f"machine {machine}: simkit.events {result.events} "
                                f"!= {ref['events']} (report unchanged)")
        print(f"  {name}: machine {machine} setup {result.setup_s:.3f}s run {result.run_s:.3f}s",
              file=sys.stderr, flush=True)
        return result

    # warm-up (imports, first-use caches, allocator arenas) on machine 0,
    # which timed repetition 0 and the traced one run again
    attempt(0)
    timed: dict[int, t.Any] = {}
    deadline = perf_counter() + seconds
    index = 0
    while index < MIN_REPS or perf_counter() < deadline:
        rep = attempt(index)
        if rep is not None:
            timed[index] = rep
        index += 1
    # one digest for the machines every run has, to compare commits by
    machines = [workloads.machine_seed(seed, i) for i in range(MIN_REPS)]
    raw["digest"] = hashlib.sha256(
        " ".join(known[m]["digest"] for m in machines if m in known).encode()
    ).hexdigest()
    raw["events"] = known.get(machines[0], {}).get("events")
    reps = list(timed.values())
    raw["setup_s"] = [r.setup_s for r in reps]
    raw["run_s"] = [r.run_s for r in reps]
    raw["slice_s"] = [s for r in reps for s in r.slices]
    raw["wall_setup_s"] = [r.setup_wall_s for r in reps]
    raw["wall_run_s"] = [r.run_wall_s for r in reps]
    raw["host_slowdown"] = [p / workloads.REFERENCE_S for r in reps for p in r.probes]
    raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw["layers"] = None
    if trace:
        ledger = Ledger()
        with ledger.installed():
            rep = attempt(0, ledger.start_run)
        if rep is not None and 0 in timed:
            raw["layers"] = ledger.metrics(rep)
            # against the untraced run of the same machine
            raw["layers"]["trace.overhead_frac"] = rep.run_s / timed[0].run_s - 1.0
    return raw


# -- parent ---------------------------------------------------------------
def spawn(name: str, seed: int, seconds: float, trace: bool) -> dict[str, t.Any]:
    """Run one workload in a fresh interpreter; a crash or a timeout
    comes back as one failed attempt."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # One process, no threads: the host has two cores.  It also fixes
    # the report digest: OpenBLAS splits a long np.dot (TimeSeries.mean)
    # across its threads, which moves the last digits of the report.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, "-m", "benchmarks.e2e", "--child", "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    failed = {"workload": name, "seed": seed, "attempted": 1, "failed": 1, "digest": None,
              "events": None, "layers": None}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {**failed, "notes": [f"child exceeded {CHILD_TIMEOUT_S}s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {**failed, "notes": [f"child exited with code {proc.returncode}"]}
    return json.loads(lines[-1])


def fingerprint() -> dict[str, t.Any]:
    """Where the numbers were taken."""
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit}


def _fmt(v: t.Any) -> str:
    if v is None:
        return "unresolved"
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_workload(result: dict[str, t.Any]) -> None:
    status = "ok" if result["correct"] else "FAILED"
    print(f"\n== {result['workload']} (seed {result['seed']}): {status}, "
          f"{result['failed']}/{result['attempted']} repetitions failed, "
          f"digest {str(result['digest'])[:16]}, {result['events']} events")
    for note in result["notes"]:
        print(f"   note: {note}")
    for name, m in result["metrics"].items():
        spread = f"  q1 {_fmt(m['q1'])} q3 {_fmt(m['q3'])}" if "q1" in m else ""
        beyond = f"  ({m['beyond']} beyond)" if "beyond" in m else ""
        print(f"   {name:<26} {_fmt(m['value']):>12} {m['unit']:<6} n={m['n']}{spread}{beyond}")


def compare(old: dict[str, t.Any], new: dict[str, t.Any], spec: dict[str, t.Any]) -> int:
    """Judge ``new`` against ``old`` by the bounds in ``BENCHMARK.json``;
    1 when any end-to-end metric got worse by more than its bound."""
    worse = 0
    for workload, before in old["workloads"].items():
        after = new["workloads"].get(workload)
        if after is None:
            continue
        for m in spec["end_to_end"]:
            a = before["metrics"].get(m["name"], {}).get("value")
            b = after["metrics"].get(m["name"], {}).get("value")
            if a is None or b is None:
                print(f"{workload:<22} {m['name']:<14} unresolved")
                continue
            change = b / a - 1.0 if m["better"] == "lower" else a / b - 1.0
            verdict = "WORSE" if change > m["bound"] else "ok"
            worse += verdict == "WORSE"
            print(f"{workload:<22} {m['name']:<14} {a:10.4g} -> {b:10.4g} "
                  f"{change:+7.1%} (bound {m['bound']:.0%}) {verdict}")
        if after["failed"] > before["failed"]:
            worse += 1
            print(f"{workload:<22} failed_frac rose: {before['failed']} -> {after['failed']} WORSE")
    return 1 if worse else 0


def _parse(argv: t.Sequence[str] | None, spec: dict[str, t.Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", nargs="?", default="run", choices=("run", "check", "compare"))
    parser.add_argument("files", nargs="*", help="compare: OLD.json [NEW.json]")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="repeatable; default every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="least measured time per workload (default BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="0: no traced repetition, end-to-end metrics on the last line; "
                             "1: traced repetition, per-layer metrics on the last line")
    parser.add_argument("--out", type=Path, help="write medians, quartiles and a host fingerprint")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: t.Sequence[str] | None = None) -> int:
    spec = load_spec()
    args = _parse(argv, spec)
    if args.child:
        print(json.dumps(run_child(args.workload[0], args.seed, args.seconds, bool(args.trace))))
        return 0
    if args.command == "check":
        problems = check_spec(spec)
        for problem in problems:
            print(f"BENCHMARK.json: {problem}")
        print("BENCHMARK.json: ok" if not problems else f"{len(problems)} problem(s)")
        return 1 if problems else 0
    if args.command == "compare":
        files = [json.loads(Path(f).read_text()) for f in args.files]
        if len(files) == 1 and "recordings" in files[0]:
            files = files[0]["recordings"][:2]
        if len(files) != 2:
            print("compare needs two results files, or one baseline with two recordings",
                  file=sys.stderr)
            return 2
        return compare(files[0], files[1], spec)
    problems = check_spec(spec)
    if problems:
        print("BENCHMARK.json is invalid; run `check`", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    trace = args.trace == 1
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    results: dict[str, dict[str, t.Any]] = {}
    for name in names:
        raw = spawn(name, args.seed, args.seconds, trace)
        metrics = summarize(raw)
        result = {
            "workload": name, "seed": args.seed, "correct": raw["failed"] == 0,
            "attempted": raw["attempted"], "failed": raw["failed"], "digest": raw["digest"],
            "events": raw["events"], "notes": raw["notes"], "metrics": metrics,
        }
        if raw["failed"] == 0 and any(metrics.get(w, {}).get("value") is None for w in wanted):
            result["correct"] = False
            result["notes"].append("a requested metric is missing or unresolved")
        results[name] = result
        print_workload(result)
    if args.out is not None:
        payload = {"schema": RESULTS_SCHEMA, "seed": args.seed, "seconds": args.seconds,
                   "fingerprint": fingerprint(), "workloads": results}
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    line_metrics = {}
    for name, result in results.items():
        for metric in wanted:
            m = result["metrics"].get(metric)
            if m is not None and m["value"] is not None:
                key = metric if len(results) == 1 else f"{name}/{metric}"
                line_metrics[key] = {"value": m["value"], "unit": m["unit"]}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": line_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
