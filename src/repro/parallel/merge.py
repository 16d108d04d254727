"""Order-independent merging of per-cell counter maps.

Every sweep cell is a fully seeded, self-contained run, so its result
does not depend on *where* or *when* it executed — only completion
order varies with worker count.  :func:`~repro.parallel.pool.run_tasks` re-emits results in
task order; what remains to merge is per-cell counts, and a sum is
commutative, so the merged map is a pure function of the task list —
identical at ``-j 1`` and ``-j 64``.  The chaos campaign sums its
per-cell invariant hit-counts this way.
"""

from __future__ import annotations

import typing as t


def merge_counter_maps(
    maps: t.Iterable[t.Mapping[str, float]],
) -> dict[str, float]:
    """Sum counter snapshots name-by-name (commutative, order-free)."""
    merged: dict[str, float] = {}
    for section in maps:
        for name, value in section.items():
            merged[name] = merged.get(name, 0.0) + value
    return {name: merged[name] for name in sorted(merged)}
