"""Relation framework: named, paper-mapped checks with pass/fail results.

A :class:`Relation` is one assertion the oracle can evaluate — a
*differential* relation compares paired simulations, a *metamorphic*
relation compares a run against a transformed re-run.  Each carries the
paper section its claim comes from, so ``repro verify list`` and the
DESIGN table render straight from the registry.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ESLURM's master-offload advantage is asserted only at or above this
#: machine size; below it the satellite indirection overhead can rival
#: the savings (the paper's comparison starts at 1K nodes).
MASTER_LOAD_NODE_THRESHOLD = 256


@dataclass(frozen=True)
class RelationResult:
    """Outcome of evaluating one relation."""

    relation: str
    ok: bool
    detail: str
    layer: str = "differential"  # differential | metamorphic | golden

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        return f"[{status}] {self.layer:<12} {self.relation:<28} {self.detail}"


class Relation:
    """One named, paper-mapped oracle check.

    Subclasses implement :meth:`run`; ``name`` / ``section`` / ``claim``
    feed the registry table and the docs.
    """

    name = "relation"
    layer = "differential"
    section = "-"
    claim = "-"

    def run(self, seed: int = 0) -> RelationResult:
        raise NotImplementedError

    def _result(self, ok: bool, detail: str) -> RelationResult:
        return RelationResult(relation=self.name, ok=ok, detail=detail, layer=self.layer)


def relations_table() -> list[Relation]:
    """Every registered differential + metamorphic relation.

    Imported lazily so :mod:`repro.oracle.relations` stays importable
    from the concrete relation modules without a cycle.
    """
    from repro.oracle.differential import DIFFERENTIAL_RELATIONS
    from repro.oracle.metamorphic import METAMORPHIC_RELATIONS

    return [*DIFFERENTIAL_RELATIONS, *METAMORPHIC_RELATIONS]
