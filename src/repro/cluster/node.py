"""Node vocabulary: liveness states and their column codes, id arrays."""

from __future__ import annotations

import enum
import typing as t

import numpy as np


class NodeState(enum.Enum):
    """Liveness of a node.

    ``UP``      healthy (answers messages)
    ``DOWN``    failed (times out instead of answering)

    Which job holds a node is not a node state: the scheduler's
    :class:`~repro.sched.allocator.NodePool` keeps that record.
    """

    UP = "up"
    DOWN = "down"


#: ``Cluster`` state-column codes, one per :class:`NodeState` in
#: declaration order.
UP_CODE, DOWN_CODE = range(2)
#: state-column code -> state
STATE_OF_CODE: tuple[NodeState, ...] = tuple(NodeState)


_INT64 = np.dtype(np.int64)


def node_array(ids: t.Collection[int]) -> np.ndarray:
    """``ids`` as a read-only ``int64`` array, the form a job's
    allocation takes from the scheduler pool to the broadcast engines.

    A read-only ``int64`` array is returned as it is, so an allocation
    passes through every layer without a copy; other ids are copied
    (``np.fromiter`` for Python ints: faster than ``np.array``).
    """
    if isinstance(ids, np.ndarray):
        if ids.dtype is _INT64 and not ids.flags.writeable:
            return ids
        arr = np.array(ids, dtype=np.int64)
    else:
        arr = np.fromiter(ids, dtype=np.int64, count=len(ids))
    arr.flags.writeable = False
    return arr


def id_mask(ids: np.ndarray, among: np.ndarray) -> np.ndarray:
    """Boolean mask of the entries of ``ids`` that occur in ``among``.

    ``np.isin``'s answer through one sort of ``among`` and one search,
    without its fixed cost (about 25 µs), which dominates on the few
    ids of a resize.
    """
    if not among.size:
        return np.zeros(ids.size, dtype=bool)
    ordered = np.sort(among)
    return ordered.take(ordered.searchsorted(ids), mode="clip") == ids
