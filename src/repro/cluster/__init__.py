"""Cluster substrate: nodes, topology, failures, and health monitoring.

This package models the physical machine the resource manager runs on:

* :mod:`repro.cluster.node` — liveness states (UP/DOWN), their column
  codes, and the read-only id arrays allocations travel as;
* :mod:`repro.cluster.spec` — declarative cluster descriptions (with
  presets for the paper's Tianhe-2A and NG-Tianhe systems) and the
  instantiated :class:`~repro.cluster.spec.Cluster`, where a node is a
  dense id and its liveness is one column over all ids (which job holds
  it is the scheduler pool's record, not the cluster's);
* :mod:`repro.cluster.topology` — the rack/chassis/board hierarchy and
  hop distances used by the latency model and topology-aware trees;
* :mod:`repro.cluster.failures` — failure injection (point failures,
  bursts, maintenance events) as simulation processes;
* :mod:`repro.cluster.monitoring` — the monitoring/diagnostic subsystem
  abstraction (the paper's BMU/CMU/SMU stack) that emits the alert
  stream consumed by the FP-Tree's failure predictor.
"""

from repro.cluster.failures import FailureEvent, FailureInjector, FailureModel
from repro.cluster.monitoring import HealthMonitor
from repro.cluster.node import NodeState
from repro.cluster.spec import Cluster, ClusterSpec
from repro.cluster.topology import Topology

__all__ = [
    "NodeState",
    "Cluster",
    "ClusterSpec",
    "Topology",
    "FailureModel",
    "FailureInjector",
    "FailureEvent",
    "HealthMonitor",
]
