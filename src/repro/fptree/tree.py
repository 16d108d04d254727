"""K-ary communication-tree construction by recursive list grouping.

The paper's procedure (Section IV-B): the satellite node holds the full
participant list; it splits the *rest* of the list into ``w`` contiguous
groups, the first element of each group becomes a first-layer child, and
each child repeats the procedure on its group.  Because every node uses
the same deterministic grouping, *a node's position in the initial list
fully determines its position in the tree* — which is exactly what lets
the FP-Tree constructor control tree placement purely by rearranging the
list (Section IV-D/E).

``leaf_positions`` reproduces the paper's "simulate the construction,
collect leaf locations" step without materialising the tree; its cost
recurrence is Eq. 2, i.e. Θ(n).
"""

from __future__ import annotations

import contextlib
import typing as t
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


class VisitCounter:
    """Counts recursion steps of the tree walks.

    Tests install one via :func:`count_visits` to assert the paper's
    O(n) construction-cost claim (Eq. 2) — a quadratic regression shows
    up as a superlinear visit count long before it shows up as wall
    time.
    """

    __slots__ = ("visits",)

    def __init__(self) -> None:
        self.visits = 0


_counter: VisitCounter | None = None


@contextlib.contextmanager
def count_visits(counter: VisitCounter | None = None) -> t.Iterator[VisitCounter]:
    """Install ``counter`` (created if omitted) for the with-block."""
    global _counter
    counter = counter if counter is not None else VisitCounter()
    previous, _counter = _counter, counter
    try:
        yield counter
    finally:
        _counter = previous


def _visit() -> None:
    if _counter is not None:
        _counter.visits += 1


@dataclass
class TreeNode:
    """One vertex of a built communication tree."""

    node_id: int
    children: list["TreeNode"] = field(default_factory=list)

    def is_leaf(self) -> bool:
        return not self.children

    def iter_nodes(self) -> t.Iterator["TreeNode"]:
        """Pre-order traversal."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaf_ids(self) -> list[int]:
        return [n.node_id for n in self.iter_nodes() if n.is_leaf()]

    def size(self) -> int:
        return sum(1 for _ in self.iter_nodes())


def _check_width(width: int) -> None:
    if width < 2:
        raise ConfigurationError(f"tree width must be >= 2, got {width}")


def _chunk_bounds(lo: int, hi: int, width: int) -> list[tuple[int, int]]:
    """Split range [lo, hi) into <= width contiguous non-empty chunks.

    Balanced like ``numpy.array_split``: the first ``n % width`` chunks
    get one extra element.  Deterministic, so every node in the real
    system would compute identical groupings.
    """
    n = hi - lo
    if n <= 0:
        return []
    k = min(width, n)
    base, extra = divmod(n, k)
    bounds = []
    start = lo
    for i in range(k):
        size = base + (1 if i < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def build_tree(nodelist: t.Sequence[int], width: int) -> TreeNode:
    """Build the k-ary communication tree for ``nodelist``.

    ``nodelist[0]`` is the root (the satellite node in ESLURM); the rest
    are grouped recursively.  Raises on an empty list.
    """
    _check_width(width)
    if not nodelist:
        raise ConfigurationError("cannot build a tree from an empty nodelist")

    def rec(lo: int, hi: int) -> TreeNode:
        # nodelist[lo] is the subtree root; (lo, hi) holds its descendants.
        _visit()
        root = TreeNode(nodelist[lo])
        for c_lo, c_hi in _chunk_bounds(lo + 1, hi, width):
            root.children.append(rec(c_lo, c_hi))
        return root

    return rec(0, len(nodelist))


#: (n, width) -> leaf positions.  Trees are pure functions of list
#: length and width, and the same handful of shapes recurs thousands of
#: times (heartbeat shares, common job sizes), so this is the cheapest
#: memo in the whole broadcast path.  Bypassed while a VisitCounter is
#: installed so cost-claim tests still measure the real recursion.
_leaf_memo: dict[tuple[int, int], tuple[int, ...]] = {}
_LEAF_MEMO_MAX = 512


def leaf_positions(n: int, width: int) -> list[int]:
    """Indices of ``nodelist`` positions that become leaves of the tree.

    Equivalent to ``build_tree(range(n), width).leaf_ids()`` but without
    constructing nodes — the paper's O(n) "Leaf-nodes Location" pass.
    """
    _check_width(width)
    if n < 0:
        raise ConfigurationError("n cannot be negative")
    if _counter is None:
        cached = _leaf_memo.get((n, width))
        if cached is not None:
            return list(cached)
    leaves: list[int] = []

    def rec(lo: int, hi: int) -> None:
        _visit()
        if hi - lo == 1:  # no descendants: position lo is a leaf
            leaves.append(lo)
            return
        for c_lo, c_hi in _chunk_bounds(lo + 1, hi, width):
            rec(c_lo, c_hi)

    if n:
        rec(0, n)
    if _counter is None:
        if len(_leaf_memo) >= _LEAF_MEMO_MAX:
            _leaf_memo.clear()
        _leaf_memo[(n, width)] = tuple(leaves)
    return leaves


def children_bounds(lo: int, hi: int, width: int) -> list[tuple[int, int]]:
    """Public alias of the grouping step for engines that walk the
    implicit tree over index ranges instead of building it."""
    return _chunk_bounds(lo + 1, hi, width)
