"""FP-Tree: the failure-prediction-based communication tree (Section IV).

The paper's construction has three O(n) components (Fig. 4):

1. **Leaf-nodes location** — simulate the recursive grouping of the
   k-ary tree to find which *positions* of a nodelist become leaves
   (:func:`repro.fptree.tree.leaf_positions`, Eq. 2's recursion);
2. **Failure-node prediction** — a plugin that returns the subset of
   nodes expected to fail (:mod:`repro.fptree.predictor`), driven by the
   monitoring subsystem's alert stream with deliberate over-prediction;
3. **Nodelist rearranging** — place predicted-failed nodes on leaf
   positions and healthy nodes on inner positions, preserving relative
   order within each class (:func:`repro.fptree.constructor.rearrange`).
   The placement has a closed form: the Python work is O(predicted),
   on top of C-level list copies and scans.

:class:`~repro.fptree.constructor.FPTreeConstructor` wires the three
together; :class:`~repro.fptree.constructor.FPTreeBroadcast` is the
resulting broadcast structure, directly comparable with the engines in
:mod:`repro.network.structures`.

Names are re-exported lazily: :mod:`repro.network.structures` shares the
tree-construction helpers in :mod:`repro.fptree.tree`, so an eager
import here would be circular.
"""

from __future__ import annotations

import typing as t

__all__ = [
    "TreeNode",
    "build_tree",
    "leaf_positions",
    "rearrange",
    "FPTreeConstructor",
    "FPTreeBroadcast",
    "FailurePredictor",
    "MonitorAlertPredictor",
    "NullPredictor",
    "OraclePredictor",
    "StaticSetPredictor",
]

_LAZY: dict[str, str] = {
    "TreeNode": "repro.fptree.tree",
    "build_tree": "repro.fptree.tree",
    "leaf_positions": "repro.fptree.tree",
    "rearrange": "repro.fptree.constructor",
    "FPTreeConstructor": "repro.fptree.constructor",
    "FPTreeBroadcast": "repro.fptree.constructor",
    "FailurePredictor": "repro.fptree.predictor",
    "MonitorAlertPredictor": "repro.fptree.predictor",
    "NullPredictor": "repro.fptree.predictor",
    "OraclePredictor": "repro.fptree.predictor",
    "StaticSetPredictor": "repro.fptree.predictor",
}


def __getattr__(name: str) -> t.Any:
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.fptree' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)
