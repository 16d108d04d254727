"""Command-line entry point: experiments, chaos campaigns, oracles, run verbs.

Installed as ``repro-eslurm`` (alias ``repro``)::

    repro --version
    repro list                      # paper experiments
    repro fig7 --quick
    repro all --quick -j 4          # experiment grid on 4 workers

    repro chaos list                # invariant-checked failure campaigns
    repro chaos run failure-storm --seed 7 --json
    repro chaos run failure-storm flapping-node --seeds 3 -j 4

    repro verify --seed 42          # differential + metamorphic + golden oracles
    repro verify --seed 42 --seeds 5 -j 4
    repro verify run --update-golden
    repro verify list               # the relation catalogue

    repro simulate --rm slurm --n-nodes 4096 --json
    repro estimate --n-history 300 --job-nodes 8

Every tool family is registered through the same :class:`Subcommand`
pattern and shares the ``--seed`` / ``--json`` / ``--out`` flags plus
the sweep-parallelism flag ``-j/--jobs`` via argparse *parent parsers*
(default 1 = the serial path, ``-j 0`` = cpu autodetect; sweeps fan out
over spawn-based workers via :mod:`repro.parallel` and merge results
keyed by task id, so output is byte-identical at any ``-j``).  New tool
families plug in by adding a table entry.

Each verb calls the library directly (``run_simulation``,
``run_scenario``, ``run_verify``, ``EslurmEstimator``) and renders
its result.  Exit codes are documented on :func:`main`; every checking
verb exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import typing as t
from dataclasses import asdict, dataclass

from repro._version import __version__

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import SimulationConfig


# ---------------------------------------------------------------------------
# shared subcommand plumbing
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Subcommand:
    """One verb of a tool family (``repro <family> <name> ...``).

    The shared flag sets every family spells identically — ``--seed`` /
    ``--json`` / ``--out`` and the sweep flag ``-j/--jobs`` — are not
    wired per subcommand; declaring ``common=True`` / ``jobs=True``
    attaches the corresponding parent parser in :func:`run_family`, so
    the flags exist exactly once and cannot drift between families.
    """

    name: str
    help: str
    configure: t.Callable[[argparse.ArgumentParser], None]
    run: t.Callable[[argparse.Namespace], int]
    #: attach the --seed/--json/--out parent parser
    common: bool = False
    #: override the --out help string for this verb
    out_help: str | None = None
    #: attach the -j/--jobs parent parser
    jobs: bool = False


def _nonneg_int(text: str) -> int:
    """A non-negative int: ``--seed`` (numpy's seeding requires it) and
    ``-j/--jobs`` (a worker count, 0 = cpu autodetect)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def common_parent(out_help: str | None = None) -> argparse.ArgumentParser:
    """The ``--seed/--json/--out`` flags as an argparse parent parser."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=_nonneg_int, default=0, help="master seed (default 0)")
    parent.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parent.add_argument(
        "--out",
        default=None,
        help=out_help or "write output to this path instead of stdout",
    )
    return parent


def jobs_parent() -> argparse.ArgumentParser:
    """The sweep-parallelism flag ``-j/--jobs`` as a parent parser."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "-j",
        "--jobs",
        type=_nonneg_int,
        default=1,
        help="worker processes for the sweep (default 1 = serial; 0 = cpu autodetect)",
    )
    return parent


def run_family(
    prog: str,
    description: str,
    commands: t.Sequence[Subcommand],
    argv: t.Sequence[str],
) -> int:
    """Parse ``argv`` against a family's subcommand table and run it."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in commands:
        parents = []
        if command.common:
            parents.append(common_parent(command.out_help))
        if command.jobs:
            parents.append(jobs_parent())
        cmd_parser = sub.add_parser(command.name, help=command.help, parents=parents)
        command.configure(cmd_parser)
        cmd_parser.set_defaults(_run=command.run, _parser=cmd_parser)
    args = parser.parse_args(argv)
    return args._run(args)


def _emit(text: str, out: str | None) -> None:
    """Print ``text``, or write it to ``--out`` when given."""
    if out is None:
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# repro chaos
# ---------------------------------------------------------------------------
def _chaos_list(args: argparse.Namespace) -> int:
    from repro.chaos import SCENARIOS

    for scenario in SCENARIOS.values():
        print(f"{scenario.name:<26} {scenario.description}")
    return 0


def _chaos_run_configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "scenarios", nargs="+", metavar="scenario",
        help="scenario name(s) (see 'repro chaos list'); several names plus "
        "--seeds form a campaign grid",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="run each scenario at this many consecutive seeds starting at "
        "--seed (default 1)",
    )
    parser.add_argument(
        "--shrink",
        action="store_true",
        help="on violation, ddmin-minimise the fault schedule and print it "
        "(single scenario/seed runs only)",
    )


def _chaos_run(args: argparse.Namespace) -> int:
    from repro.chaos import get_scenario, run_campaign, run_scenario, shrink_schedule

    try:
        for name in args.scenarios:
            get_scenario(name)
    except Exception as exc:
        args._parser.error(str(exc))
    if args.seeds < 1:
        args._parser.error("--seeds must be >= 1")
    multi = len(args.scenarios) > 1 or args.seeds > 1
    if multi:
        if args.shrink:
            args._parser.error("--shrink applies to a single scenario/seed run")
        outcome = run_campaign(
            args.scenarios,
            seeds=range(args.seed, args.seed + args.seeds),
            jobs=args.jobs,
            progress=None if args.json or args.out else print,
        )
        if args.json:
            _emit(json.dumps(outcome.to_payload(), sort_keys=True, indent=2), args.out)
        else:
            _emit(outcome.to_text(), args.out)
        return 0 if outcome.ok else 1
    report = run_scenario(args.scenarios[0], seed=args.seed)
    if args.json:
        _emit(json.dumps(asdict(report), sort_keys=True, indent=2), args.out)
    else:
        _emit(report.to_text(), args.out)
    if report.ok:
        return 0
    if args.shrink:
        scenario = get_scenario(args.scenarios[0])
        minimal = shrink_schedule(scenario, seed=args.seed, schedule=report.schedule)
        print()
        print(f"minimal failing schedule ({len(minimal)} of {len(report.schedule)} faults):")
        for fault in minimal:
            print(
                f"  t={fault.at:12.3f}  {fault.kind:<12} "
                f"dur={fault.duration:10.3f}  nodes={list(fault.node_ids)}"
            )
    return 1


CHAOS_COMMANDS = (
    Subcommand("list", "enumerate the scenario catalogue", lambda p: None, _chaos_list),
    Subcommand(
        "run", "execute one scenario and report violations", _chaos_run_configure,
        _chaos_run, common=True, jobs=True,
    ),
)


# ---------------------------------------------------------------------------
# repro verify
# ---------------------------------------------------------------------------
def _verify_list(args: argparse.Namespace) -> int:
    from repro.oracle import GOLDEN_SCENARIOS, relations_table

    print(f"{'relation':<26} {'layer':<13} {'paper':<28} claim")
    for relation in relations_table():
        print(f"{relation.name:<26} {relation.layer:<13} {relation.section:<28} {relation.claim}")
    for name, config in GOLDEN_SCENARIOS.items():
        print(
            f"{'golden/' + name:<26} {'golden':<13} {'VI':<28} "
            f"frozen {config.rm} trace, seed {config.seed}"
        )
    return 0


def _verify_run_configure(parser: argparse.ArgumentParser) -> None:
    from repro.oracle.verify import LAYERS

    parser.add_argument(
        "--layer",
        action="append",
        choices=LAYERS,
        default=None,
        help="run only this layer (repeatable; default: all)",
    )
    parser.add_argument(
        "--relation",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this named relation (repeatable; see 'repro verify list'; "
        "skips the golden layer)",
    )
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help="regenerate the frozen golden traces before comparing",
    )
    parser.add_argument(
        "--golden-dir", default=None, help="golden trace directory (default: tests/golden)"
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="sweep this many consecutive seeds starting at --seed (default 1)",
    )


def _verify_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.oracle.verify import LAYERS, run_verify, run_verify_sweep

    if args.seeds < 1:
        args._parser.error("--seeds must be >= 1")
    layers = tuple(args.layer) if args.layer else LAYERS
    golden_dir = Path(args.golden_dir) if args.golden_dir else None
    if args.relation and args.update_golden:
        args._parser.error("--relation skips the golden layer; drop --update-golden")
    if args.seeds > 1 or args.jobs != 1:
        if args.update_golden:
            args._parser.error(
                "--update-golden rewrites shared files and must run serially "
                "(drop --seeds/-j)"
            )
        try:
            sweep = run_verify_sweep(
                seeds=range(args.seed, args.seed + args.seeds),
                layers=layers,
                golden_dir=golden_dir,
                jobs=args.jobs,
                progress=None if args.json or args.out else print,
                relations=args.relation,
            )
        except ValueError as exc:
            args._parser.error(str(exc))
        if args.json:
            _emit(json.dumps(sweep.to_payload(), sort_keys=True, indent=2), args.out)
        elif args.out:
            _emit(sweep.to_text(), args.out)
        else:
            held = sum(len(r.results) - r.n_failed for r in sweep.reports)
            total = sum(len(r.results) for r in sweep.reports)
            print(
                f"verify sweep: {'OK' if sweep.ok else 'FAIL'} — {held}/{total} "
                f"relations held over {args.seeds} seed(s)"
            )
        return 0 if sweep.ok else 1
    try:
        report = run_verify(
            seed=args.seed,
            layers=layers,
            golden_dir=golden_dir,
            update_golden=args.update_golden,
            progress=None if args.json or args.out else print,
            relations=args.relation,
        )
    except ValueError as exc:
        args._parser.error(str(exc))
    if args.json:
        _emit(json.dumps(report.to_payload(), sort_keys=True, indent=2), args.out)
    elif args.out:
        _emit(report.to_text(), args.out)
    else:
        failed = report.n_failed
        print(
            f"verify: {'FAIL' if failed else 'OK'} — "
            f"{len(report.results) - failed}/{len(report.results)} relations held"
        )
    return 0 if report.ok else 1


VERIFY_COMMANDS = (
    Subcommand("list", "enumerate every relation and golden scenario", lambda p: None, _verify_list),
    Subcommand(
        "run", "run the differential/metamorphic/golden oracles", _verify_run_configure,
        _verify_run, common=True, jobs=True,
    ),
)

# ---------------------------------------------------------------------------
# repro simulate
# ---------------------------------------------------------------------------
def _simulate_run_configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rm", default="eslurm", help="RM profile (default eslurm)")
    parser.add_argument("--n-nodes", type=int, default=1024, help="compute nodes (default 1024)")
    parser.add_argument("--n-satellites", type=int, default=2, help="satellites (default 2)")
    parser.add_argument("--n-jobs", type=int, default=500, help="jobs over the horizon (default 500)")
    parser.add_argument(
        "--horizon-s", type=float, default=86_400.0, help="simulated span (default 1 day)"
    )
    parser.add_argument("--failures", action="store_true", help="enable the failure injector")
    parser.add_argument(
        "--placement", default="first-fit", help="placement policy (first-fit | topology)"
    )
    parser.add_argument(
        "--malleable", action="store_true", help="enable the elastic-job protocol"
    )


#: the base-day fields a simulate digest covers
_DAY_PARAMS = (
    "seed", "rm", "n_nodes", "n_satellites", "failures", "monitoring",
    "n_jobs", "horizon_s", "placement", "malleable",
)


def _day_config(args: argparse.Namespace) -> "SimulationConfig":
    """The :class:`~repro.api.SimulationConfig` the base-day flags spell;
    a config it rejects is a usage error."""
    from repro.api import SimulationConfig
    from repro.errors import ConfigurationError

    try:
        return SimulationConfig(
            rm=args.rm,
            n_nodes=args.n_nodes,
            n_satellites=args.n_satellites,
            seed=args.seed,
            failures=args.failures,
            n_jobs=args.n_jobs,
            horizon_s=args.horizon_s,
            placement=args.placement,
            malleable=args.malleable,
        )
    except ConfigurationError as exc:
        args._parser.error(str(exc))


def _digest(kind: str, params: dict[str, t.Any]) -> str:
    """A run's identity: SHA-256 over its kind and JSON-scalar params.

    Equal digests mean byte-identical results, because every run is a
    pure function of its seeded parameters; no runtime object is hashed,
    so the value is the same in every process.
    """
    from repro.api import canonical_json

    blob = canonical_json({"kind": kind, "params": params})
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_json(kind: str, digest: str, result: dict[str, t.Any]) -> str:
    """The ``--json`` object of ``simulate`` / ``estimate``."""
    return json.dumps(
        {"kind": kind, "digest": digest, "ok": True, "result": result},
        sort_keys=True,
        indent=2,
    )


def _simulate_run(args: argparse.Namespace) -> int:
    from repro.api import run_simulation

    verbose = not (args.json or args.out)
    config = _day_config(args)
    if verbose:
        print(
            f"simulate: rm={config.rm} nodes={config.n_nodes} "
            f"jobs={config.n_jobs} seed={config.seed}"
        )
    simulation = run_simulation(config)
    report = simulation.report
    events = simulation.events
    if verbose:
        print(f"simulate: done, {events} events")
    sim_time_s = simulation.sim_time_s
    digest = _digest("simulate", {name: getattr(config, name) for name in _DAY_PARAMS})
    if args.json:
        result = {
            "rm": report.rm_name,
            "n_nodes": report.n_nodes,
            "seed": config.seed,
            "events": events,
            "sim_time_s": sim_time_s,
            "schedule": asdict(report.schedule) if report.schedule is not None else {},
            "master": dict(report.master),
            "n_satellites": len(report.satellites),
        }
        _emit(_run_json("simulate", digest, result), args.out)
    else:
        _emit(
            report.summary()
            + f"\n  events={events} sim_time={sim_time_s:.0f}s"
            + f"\n  digest={digest}",
            args.out,
        )
    return 0


SIMULATE_COMMANDS = (
    Subcommand(
        "run", "run one simulated RM day",
        _simulate_run_configure, _simulate_run, common=True,
    ),
)


# ---------------------------------------------------------------------------
# repro estimate
# ---------------------------------------------------------------------------
def _estimate_run_configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--n-history", type=int, default=300,
        help="completed jobs to train on (default 300)",
    )
    parser.add_argument(
        "--max-nodes", type=int, default=64, help="history job-size ceiling (default 64)"
    )
    parser.add_argument(
        "--job-nodes", type=int, default=8, help="queried job's width (default 8)"
    )
    parser.add_argument(
        "--user-estimate-s", type=float, default=None,
        help="user wall request for the queried job (default: none)",
    )
    parser.add_argument(
        "--app", default=None,
        help="job-script name to query (default: most recent in the history)",
    )
    parser.add_argument(
        "--k-clusters", type=int, default=12, help="estimator clusters (default 12)"
    )


def _estimate_run(args: argparse.Namespace) -> int:
    """Train the paper's estimator on a seeded synthetic history, then
    query it for one described job."""
    import numpy as np

    from repro.estimate.framework import EslurmEstimator, EstimatorConfig
    from repro.sched.job import Job
    from repro.workload.synthetic import WorkloadConfig, generate_trace

    user_s = args.user_estimate_s
    if args.n_history < 50 or args.n_history > 5000:
        args._parser.error("n_history must be in [50, 5000]")
    if args.max_nodes < 1 or args.job_nodes < 1:
        args._parser.error("max_nodes/job_nodes must be >= 1")
    if args.k_clusters < 1:
        args._parser.error("k_clusters must be >= 1")
    if user_s is not None and user_s <= 0:
        args._parser.error("user_estimate_s must be positive")
    if user_s is not None and not math.isfinite(user_s):
        args._parser.error("user_estimate_s must be finite")
    jobs = generate_trace(
        WorkloadConfig(n_users=16, n_apps=12, jobs_per_day=2000.0, max_nodes=args.max_nodes),
        args.n_history,
        seed=args.seed,
    )
    estimator = EslurmEstimator(
        EstimatorConfig(k_clusters=args.k_clusters),
        rng=np.random.default_rng(args.seed),
    )
    for job in jobs:
        estimator.estimate(job, job.submit_time)
        estimator.observe(job, job.submit_time)
    if not (args.json or args.out):
        print(
            f"estimate: trained on {len(jobs)} jobs "
            f"({estimator.trainings} model generation(s))"
        )
    last = jobs[-1]
    app = args.app if args.app is not None else last.name
    query = Job(
        job_id=last.job_id + 1,
        name=app,
        user=last.user,
        n_nodes=args.job_nodes,
        # the true runtime is what the estimator predicts — any positive
        # placeholder works, the encoder never sees it
        runtime_s=1.0,
        user_estimate_s=user_s,
        submit_time=last.submit_time + 1.0,
    )
    value = estimator.estimate(query, query.submit_time)
    if value is None:
        source = "none"
    elif user_s is not None and value == user_s:
        source = "user"
    else:
        source = "model"
    result = {
        # slack applied; None when neither the model nor the user answered
        "estimate_s": value,
        # the model's pre-slack value; None when no model answered
        "model_estimate_s": query.model_estimate_s,
        # which source won the AEA gate
        "source": source,
        "trainings": estimator.trainings,
        "aea": round(estimator.average_estimation_accuracy(), 6),
        "app": app,
        "seed": args.seed,
    }
    if args.json:
        params = {
            name: getattr(args, name)
            for name in (
                "seed", "n_history", "max_nodes", "job_nodes",
                "user_estimate_s", "app", "k_clusters",
            )
        }
        _emit(_run_json("estimate", _digest("estimate", params), result), args.out)
    else:
        model_s = result["model_estimate_s"]
        _emit(
            f"estimate: {f'{value:.0f}s' if value is not None else 'none'} "
            f"(source {source}) for {app!r} x {args.job_nodes} nodes\n"
            f"  model {f'{model_s:.0f}s' if model_s is not None else 'none'}, "
            f"aea {result['aea']:.3f}, {result['trainings']} training generation(s)",
            args.out,
        )
    return 0


ESTIMATE_COMMANDS = (
    Subcommand(
        "run", "train the paper's estimator on synthetic history and query it",
        _estimate_run_configure, _estimate_run, common=True,
    ),
)


#: tool families reachable as ``repro <family> ...``
FAMILIES: dict[str, tuple[str, tuple[Subcommand, ...]]] = {
    "chaos": ("Run a chaos campaign with simulation-wide invariant checking.", CHAOS_COMMANDS),
    "verify": ("Run the correctness oracles against the current tree.", VERIFY_COMMANDS),
    "simulate": ("Run one simulated RM day.", SIMULATE_COMMANDS),
    "estimate": ("Query the runtime estimator as a service.", ESTIMATE_COMMANDS),
}

#: families where a bare ``repro <family> [flags]`` implies this verb
DEFAULT_VERBS: dict[str, str] = {
    "verify": "run",
    "simulate": "run",
    "estimate": "run",
}


# ---------------------------------------------------------------------------
# paper experiments (the original verb set)
# ---------------------------------------------------------------------------
def _fig5(quick: bool) -> str:
    from repro.experiments.fig5 import render_fig5, run_fig5

    return render_fig5(run_fig5(n_jobs=8_000 if quick else 40_000))


def _fig7(quick: bool) -> str:
    from repro.experiments.fig7 import render_fig7, run_fig7

    return render_fig7(
        run_fig7(n_nodes=1024 if quick else 4096, n_jobs=300 if quick else 1000,
                 job_sizes=(64, 256, 1024) if quick else (64, 256, 1024, 4096))
    )


def _fig8(quick: bool) -> str:
    from repro.experiments.fig8 import render_fig8, run_fig8a, run_fig8b

    n = 2048 if quick else 4096
    return render_fig8(run_fig8a(n_nodes=n), run_fig8b(n_nodes=n))


def _fig9(quick: bool) -> str:
    from repro.experiments.fig9 import render_fig9, run_fig9

    return render_fig9(run_fig9(n_nodes=4096 if quick else 16_384,
                                n_jobs=400 if quick else 1500))


def _fig10(quick: bool) -> str:
    from repro.experiments.fig10 import render_fig10, run_fig10

    return render_fig10(
        run_fig10(scale=0.125 if quick else 1.0, horizon_days=2.0 if quick else 7.0,
                  with_attribution=True)
    )


def _fig11(quick: bool) -> str:
    from repro.experiments.fig11 import render_fig11, run_fig11a, run_fig11b

    a = run_fig11a(n_nodes=5120 if quick else 20_480,
                   counts=(2, 5, 10, 20, 30) if quick else (5, 10, 20, 30, 40, 50))
    b = run_fig11b(n_jobs=2500 if quick else 4000, fast=quick)
    return render_fig11(a, b)


def _table5(quick: bool) -> str:
    from repro.experiments.tables import render_table5_table6, run_table5_table6

    return render_table5_table6(
        run_table5_table6(n_nodes=5120 if quick else 20_480,
                          setups=(4, 8, 12, 16, 20) if quick else (10, 20, 30, 40, 50),
                          n_jobs=300 if quick else 800)
    )


def _table8(quick: bool) -> str:
    from repro.experiments.tables import render_table8, run_table8

    return render_table8(run_table8(n_jobs=2000 if quick else 4000))


def _placement(quick: bool) -> str:
    from repro.experiments.placement import render_placement, run_placement

    return render_placement(
        run_placement(n_nodes=2048 if quick else 4096,
                      constructions_per_day=24 if quick else 60)
    )


def _motivation(quick: bool) -> str:
    from repro.experiments.motivation import render_motivation, run_motivation

    n = 8192 if quick else 20_480
    days = 1.0 if quick else 2.0
    return render_motivation(
        [run_motivation("slurm", n_nodes=n, days=days),
         run_motivation("eslurm", n_nodes=n, days=days)]
    )


EXPERIMENTS: dict[str, t.Callable[[bool], str]] = {
    "fig5": _fig5,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "table5": _table5,
    "table8": _table8,
    "placement": _placement,
    "motivation": _motivation,
}


def main(argv: t.Sequence[str] | None = None) -> int:
    """The ``repro`` entry point; returns a documented exit code.

    Exit codes (see :mod:`repro.errors`):

    * ``0`` — success
    * ``1`` — a check ran and failed
    * ``2`` — malformed command line (argparse usage error)
    * ``3`` — invalid configuration / parameters
    * ``4`` — internal error
    """
    import traceback

    from repro.errors import (
        EXIT_CONFIG,
        EXIT_INTERNAL,
        ConfigurationError,
        ReproError,
    )

    try:
        return _main(argv)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReproError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def _main(argv: t.Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in FAMILIES:
        description, commands = FAMILIES[argv[0]]
        rest = argv[1:]
        default_verb = DEFAULT_VERBS.get(argv[0])
        implies_default = not rest or (
            rest[0].startswith("-") and rest[0] not in ("-h", "--help")
        )
        if default_verb is not None and implies_default:
            rest = [default_verb, *rest]
        return run_family(f"repro {argv[0]}", description, commands, rest)
    parser = argparse.ArgumentParser(
        prog="repro-eslurm",
        description="Regenerate the tables and figures of the ESLURM paper (SC'22).",
        parents=[jobs_parent()],
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all", "list"],
        help="which experiment to run ('list' to enumerate)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down cluster sizes (seconds instead of hours)",
    )
    args = parser.parse_args(argv)
    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0
    from repro.parallel.pool import Task, TaskResult, run_tasks

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    tasks = [
        Task(id=name, kind="experiment", spec={"name": name, "quick": args.quick})
        for name in names
    ]

    def print_block(outcome: TaskResult) -> None:
        print(f"==== {outcome.task_id} ====")
        if outcome.ok:
            print(outcome.value["text"])
        else:
            print(f"FAILED after {outcome.attempts} attempt(s):")
            print(outcome.error)
        print()

    # Serial runs stream each experiment as it finishes (inline execution
    # preserves order); parallel runs buffer and re-emit in catalogue
    # order so the merged output is byte-identical to the serial one.
    streaming = args.jobs == 1
    outcomes = run_tasks(
        tasks, jobs=args.jobs, progress=print_block if streaming else None
    )
    if not streaming:
        for outcome in outcomes:
            print_block(outcome)
    return 1 if any(not o.ok for o in outcomes) else 0


if __name__ == "__main__":
    sys.exit(main())
