"""Correctness oracles for a simulator with no ground truth.

Three complementary layers, all runnable via ``repro verify``:

* **differential** (:mod:`repro.oracle.differential`) — paired
  simulations on identical seeded workloads asserting the paper's
  relative claims (master offload, FP-Tree failure bounds, AEA gating);
* **metamorphic** (:mod:`repro.oracle.metamorphic`) — workload
  transformations with known output relations (relabeling, jitter,
  scaling, capacity monotonicity, seed sensitivity);
* **golden** (:mod:`repro.oracle.golden`) — frozen SHA-256 digests of
  canonical event streams (four 64-node days and the paper-scale
  tiers), the repository's only recorded anchors, regenerable only via
  ``repro verify --update-golden``.

The simulation-state invariants shared with the chaos harness live in
:mod:`repro.oracle.invariants`.
"""

from repro.oracle.golden import (
    GOLDEN_SCENARIOS,
    TraceDigest,
    check_golden,
    load_golden,
    write_golden,
)
from repro.oracle.invariants import (
    ChaosContext,
    Invariant,
    InvariantRegistry,
    Violation,
    default_invariants,
)
from repro.oracle.relations import (
    MASTER_LOAD_NODE_THRESHOLD,
    Relation,
    RelationResult,
    relations_table,
)
from repro.oracle.verify import (
    LAYERS,
    SweepVerifyReport,
    VerifyReport,
    run_verify,
    run_verify_sweep,
)

__all__ = [
    "GOLDEN_SCENARIOS",
    "TraceDigest",
    "check_golden",
    "load_golden",
    "write_golden",
    "ChaosContext",
    "Invariant",
    "InvariantRegistry",
    "Violation",
    "default_invariants",
    "MASTER_LOAD_NODE_THRESHOLD",
    "Relation",
    "RelationResult",
    "relations_table",
    "LAYERS",
    "SweepVerifyReport",
    "VerifyReport",
    "run_verify",
    "run_verify_sweep",
]
