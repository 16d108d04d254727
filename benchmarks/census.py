"""Consumer census: which ``src/repro`` functions does a consumer call?

Runs every consumer of the library in a fresh interpreter with a call
hook installed, then lists each function under ``src/repro`` that none
of them called, with its line count (decorators and docstring included).
The consumers are the CLI's experiments (``all --quick -j 1`` and full
``fig11``), the oracles (``verify`` text, ``--json``, ``--out``,
``--update-golden``, a ``--seeds 2`` sweep), every chaos scenario (plus
``--json``, ``--shrink`` and a multi-scenario grid), ``simulate
run`` for each RM profile and once with failures, topology placement and
malleable jobs, ``estimate run``, every verb's ``--help``, one traced
e2e repetition of each benchmark workload and the five ``examples/``.

The hook comes in through a ``sitecustomize`` module put first on
``PYTHONPATH``, so the spawned workers of a ``-j 2`` sweep install it
too.  It records the code object of every Python call (``sys.settrace``
with no local trace) and writes the ``src/repro`` ones out at exit.

A never-called row is one of three things (DESIGN.md, "Consumer
census"): dead code to delete with its tests, a test seam or reference
kept on purpose, or a consumer this list misses.

Usage::

    python benchmarks/census.py              # ~10 CPU-minutes on a 2-CPU host

Not a CI step: it is a tool for deletion PRs.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
import typing as t
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: written into the hook directory as ``sitecustomize.py``
HOOK = '''\
import atexit
import os
import sys
import threading

_OUT = os.environ.get("REPRO_CENSUS_OUT")
if _OUT:
    _PREFIX = os.environ["REPRO_CENSUS_SRC"]
    _seen = {}

    def _hook(frame, event, arg):
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code  # held, so the id is never reused
        return None

    def _dump():
        sys.settrace(None)
        hits = sorted({f"{c.co_filename}:{c.co_firstlineno}" for c in _seen.values()
                       if c.co_filename.startswith(_PREFIX)})
        path = os.path.join(_OUT, f"{os.getpid()}.txt")
        with open(path, "a") as fh:
            fh.write("".join(h + "\\n" for h in hits))

    atexit.register(_dump)
    sys.settrace(_hook)
    threading.settrace(_hook)
'''

RM_NAMES = ("slurm", "lsf", "sge", "torque", "openpbs", "eslurm")
CHAOS_SCENARIOS = (
    "failure-storm", "rolling-maintenance", "master-takeover-cascade",
    "flapping-node", "malleable-shrink-storm", "topology-storm",
)
E2E_WORKLOADS = ("eslurm-16k-day", "eslurm-131k-2h", "eslurm-1k-malleable", "slurm-65k-day")
EXAMPLES = ("quickstart", "failure_storm", "fptree_broadcast", "runtime_estimation",
            "scaling_study")
HELP_VERBS = (
    (), ("verify",), ("verify", "run"), ("verify", "list"), ("chaos",), ("chaos", "run"),
    ("chaos", "list"), ("simulate",), ("simulate", "run"), ("estimate",), ("estimate", "run"),
)


def consumers(tmp: Path) -> list[tuple[str, list[str]]]:
    """Every consumer as ``(label, argv)``; outputs go under ``tmp``."""
    cli = [sys.executable, "-m", "repro.cli"]
    out: list[tuple[str, list[str]]] = [
        ("all --quick -j 1", cli + ["all", "--quick", "-j", "1"]),
        ("list", cli + ["list"]),
        ("--version", cli + ["--version"]),
        ("fig11 (full)", cli + ["fig11"]),
        ("verify --seed 42", cli + ["verify", "--seed", "42"]),
        ("verify --json", cli + ["verify", "run", "--seed", "42", "--json"]),
        ("verify list", cli + ["verify", "list"]),
        ("verify --update-golden --out", cli + [
            "verify", "run", "--layer", "golden", "--update-golden",
            "--golden-dir", str(tmp / "golden"), "--out", str(tmp / "verify.txt")]),
        ("verify --seeds 2 -j 2 --json", cli + [
            "verify", "run", "--layer", "metamorphic", "--layer", "golden",
            "--seeds", "2", "-j", "2", "--json"]),
        ("verify --seeds 2 --out", cli + [
            "verify", "run", "--relation", "rack-relabel-score", "--seeds", "2",
            "--out", str(tmp / "sweep.txt")]),
        ("chaos list", cli + ["chaos", "list"]),
        ("chaos --json", cli + ["chaos", "run", "failure-storm", "--seed", "7", "--json"]),
        ("chaos --shrink", cli + ["chaos", "run", "flapping-node", "--seed", "7", "--shrink"]),
        ("chaos grid --json -j 2", cli + [
            "chaos", "run", "failure-storm", "flapping-node", "--seed", "7", "--seeds", "2",
            "--json", "-j", "2"]),
        ("chaos grid", cli + ["chaos", "run", "failure-storm", "flapping-node", "--seed", "7"]),
        ("simulate --failures --placement topology --malleable", cli + [
            "simulate", "run", "--failures", "--placement", "topology", "--malleable"]),
        ("estimate run", cli + ["estimate", "run"]),
        ("estimate run --json", cli + ["estimate", "run", "--json"]),
    ]
    out += [(f"chaos {name}", cli + ["chaos", "run", name, "--seed", "7"])
            for name in CHAOS_SCENARIOS]
    out += [(f"simulate --rm {rm}", cli + ["simulate", "run", "--rm", rm]) for rm in RM_NAMES]
    out += [(" ".join(verb + ("--help",)), cli + list(verb) + ["--help"]) for verb in HELP_VERBS]
    out += [(f"e2e {name}", [sys.executable, "-m", "benchmarks.e2e", "--child", "--workload",
                             name, "--seconds", "0", "--trace", "1"]) for name in E2E_WORKLOADS]
    out += [(f"examples/{name}.py", [sys.executable, str(ROOT / "examples" / f"{name}.py")])
            for name in EXAMPLES]
    return out


class Row(t.NamedTuple):
    path: str  #: relative to ``src/``
    line: int  #: first line (the first decorator's, as ``co_firstlineno``)
    end: int
    qualname: str

    @property
    def lines(self) -> int:
        return self.end - self.line + 1


def functions() -> list[Row]:
    """Every ``def`` under ``src/repro``, nested ones included."""
    rows: list[Row] = []
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC.parent))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    start = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    rows.append(Row(rel, start, child.end_lineno or start, name))
                    visit(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), rel), "")
    return rows


def run(tmp: Path) -> set[tuple[str, int]]:
    """Run every consumer under the hook; the ``(path, line)`` keys called."""
    hook_dir, hits_dir = tmp / "hook", tmp / "hits"
    hook_dir.mkdir()
    hits_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(ROOT / "src"), str(ROOT)])
    env.update(REPRO_CENSUS_OUT=str(hits_dir), REPRO_CENSUS_SRC=str(SRC) + os.sep,
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for label, argv in consumers(tmp):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
        print(f"  {label:<55} {status:<7} {time.perf_counter() - start:7.1f} s",
              file=sys.stderr, flush=True)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
    called: set[tuple[str, int]] = set()
    for hits in hits_dir.glob("*.txt"):
        for hit in hits.read_text().split():
            filename, line = hit.rsplit(":", 1)
            called.add((str(Path(filename).relative_to(SRC.parent)), int(line)))
    return called


def main(argv: t.Sequence[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    rows = functions()
    with tempfile.TemporaryDirectory(prefix="repro-census-") as tmp:
        called = run(Path(tmp))
    never = [r for r in rows if (r.path, r.line) not in called]
    # a def nested in a never-called one is counted in its parent's lines
    outer = [r for r in never if not any(
        o.path == r.path and o.line < r.line <= o.end for o in never)]
    print(f"{'lines':>5}  {'where':<40}  function")
    for r in never:
        nested = "" if r in outer else "  (nested)"
        print(f"{r.lines:>5}  {f'{r.path}:{r.line}':<40}  {r.qualname}{nested}")
    total = sum(r.lines for r in outer)
    print(f"\n{len(rows)} functions, {len(never)} never called, {total} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
