"""Failure-prediction plugins for the FP-Tree constructor.

The paper implements failure prediction as a *plugin* so that
alternative predictors can be dropped in (Section IV-C).  We mirror that
with a tiny protocol — ``predict(candidates) -> set of node ids`` — and
three implementations:

* :class:`MonitorAlertPredictor` — the production one: a node is
  predicted failed iff the monitoring/diagnostic subsystem has an
  active alert for it (the over-prediction principle: every alert
  counts, because a wrong prediction only demotes a node to a leaf);
* :class:`OraclePredictor` — reads the true down set from the cluster,
  an upper bound used in ablations;
* :class:`StaticSetPredictor` — a fixed set, for tests and worked
  examples.
"""

from __future__ import annotations

import typing as t

import numpy as np

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.spec import Cluster


class FailurePredictor(t.Protocol):
    """Protocol every predictor plugin implements."""

    def predict(self, candidates: t.Sequence[int]) -> set[int]:
        """Subset of ``candidates`` expected to fail soon.

        The verdict is per node: predicting over a union of candidate
        lists gives the union of the per-list predictions (the ESLURM
        heartbeat asks once for the whole machine and splits the answer
        across its satellite shares).
        """
        ...  # pragma: no cover - protocol body


def _members(ids: set[int], candidates: t.Iterable[int]) -> set[int]:
    """The members of ``ids`` among ``candidates``, as Python ints (an
    id array is converted once)."""
    if isinstance(candidates, np.ndarray):
        candidates = candidates.tolist()
    return ids.intersection(candidates)


class MonitorAlertPredictor:
    """Predicts failure for every node with an active monitoring alert."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster

    def predict(self, candidates: t.Sequence[int]) -> set[int]:
        return self.cluster.monitor.predicted_failed(among=candidates)


class OraclePredictor:
    """Perfect knowledge of the current down set (ablation upper bound)."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster

    def predict(self, candidates: t.Sequence[int]) -> set[int]:
        return _members(self.cluster.down_ids(), candidates)


class StaticSetPredictor:
    """A fixed predicted-failed set (tests, documentation examples)."""

    def __init__(self, predicted: t.Iterable[int]) -> None:
        self.predicted = set(predicted)

    def predict(self, candidates: t.Sequence[int]) -> set[int]:
        return _members(self.predicted, candidates)


class NullPredictor:
    """Predicts nothing — turns the FP-Tree back into a plain tree
    (the paper's "ESLURM without FP-Tree" ablation)."""

    def predict(self, candidates: t.Sequence[int]) -> set[int]:
        return set()
