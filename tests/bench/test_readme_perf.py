"""README's performance table is rendered from the checked-in ledger.

The block between the two marker comments in README.md must equal the
table rendered here from recording 0 of ``benchmarks/e2e/baseline.json``,
so no speed figure in the README is typed by hand.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BEGIN = "<!-- e2e-table:begin -->"
END = "<!-- e2e-table:end -->"


def _cell(metric):
    """``median`` or ``median (q1–q3)``, three significant digits."""
    if metric["value"] is None:
        return "unresolved"
    fmt = "{:.1f}" if metric["unit"] == "MB" else "{:#.3g}"
    text = fmt.format(metric["value"])
    if "q1" in metric:
        text += f" ({fmt.format(metric['q1'])}–{fmt.format(metric['q3'])})"
    return text


def render_table(recording, end_to_end):
    """Markdown block: one row per workload, one column per metric."""
    fp = recording["fingerprint"]
    lines = [
        f"Recorded at commit `{fp['commit'][:7]}` on {fp['cpu']} "
        f"({fp['nproc']} CPUs), Python {fp['python']}, numpy {fp['numpy']}; "
        f"seed {recording['seed']}, at least {recording['seconds']:g} s per workload.",
        "",
        "| Workload | Events | "
        + " | ".join(f"`{m['name']}` ({m['unit']})" for m in end_to_end)
        + " |",
        "|---" * (len(end_to_end) + 2) + "|",
    ]
    for name, workload in sorted(recording["workloads"].items()):
        cells = [_cell(workload["metrics"][m["name"]]) for m in end_to_end]
        lines.append(f"| `{name}` | {workload['events']:,} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def test_readme_perf_table_is_generated():
    recording = json.loads((ROOT / "benchmarks/e2e/baseline.json").read_text())[
        "recordings"
    ][0]
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    expected = render_table(recording, end_to_end)
    readme = (ROOT / "README.md").read_text()
    assert BEGIN in readme and END in readme, "README.md lacks the e2e-table markers"
    actual = readme.split(BEGIN, 1)[1].split(END, 1)[0].strip("\n")
    assert actual == expected, (
        "README.md's perf table differs from benchmarks/e2e/baseline.json; "
        f"replace the block between the markers with:\n{expected}"
    )
