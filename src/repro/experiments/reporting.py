"""ASCII rendering of tables and series, the way benches print them."""

from __future__ import annotations

import typing as t


def render_table(
    headers: t.Sequence[str],
    rows: t.Sequence[t.Sequence[t.Any]],
    title: str = "",
    float_fmt: str = "{:.2f}",
) -> str:
    """Render a fixed-width table.

    Floats go through ``float_fmt``, ``None`` (no value) prints as
    ``n/a``, everything else goes through ``str``.
    """

    def cell(x: t.Any) -> str:
        if x is None:
            return "n/a"
        if isinstance(x, float):
            return float_fmt.format(x)
        return str(x)

    grid = [[cell(h) for h in headers]] + [[cell(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in grid) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(grid[0], widths)))
    lines.append(sep)
    for row in grid[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    x_label: str,
    xs: t.Sequence[t.Any],
    series: dict[str, t.Sequence[float | None]],
    title: str = "",
    float_fmt: str = "{:.3f}",
) -> str:
    """Render several named series against a shared x-axis as a table."""
    headers = [x_label, *series.keys()]
    rows = []
    for i, x in enumerate(xs):
        rows.append([x, *(vals[i] for vals in series.values())])
    return render_table(headers, rows, title=title, float_fmt=float_fmt)
