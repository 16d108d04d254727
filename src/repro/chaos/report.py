"""The campaign result object.

A :class:`ChaosReport` is pure data with a canonical text rendering:
two runs of the same scenario with the same seed must produce
byte-identical ``to_text()`` output — that property is itself asserted
by the chaos test suite, because a nondeterministic simulator would
make every seed-based bug reproduction worthless.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.scenarios import ScheduledFault
from repro.oracle.invariants import Violation

#: how many individual violations the text rendering spells out
_MAX_RENDERED = 20


@dataclass(frozen=True)
class ChaosReport:
    """Everything one campaign run produced."""

    scenario: str
    seed: int
    horizon_s: float
    n_nodes: int
    n_satellites: int
    events_processed: int
    checks_run: int
    faults_injected: int
    alerts_raised: int
    jobs_submitted: int
    jobs_completed: int
    jobs_failed: int
    master_takeovers: int
    invariant_counts: tuple[tuple[str, int], ...]
    violations: tuple[Violation, ...] = ()
    schedule: tuple[ScheduledFault, ...] = field(default=(), repr=False)
    jobs_grown: int = 0
    jobs_shrunk: int = 0

    @property
    def total_violations(self) -> int:
        return sum(count for _, count in self.invariant_counts)

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def to_text(self) -> str:
        """Canonical, deterministic rendering of the whole report."""
        lines = [
            f"chaos campaign: {self.scenario} (seed={self.seed})",
            f"  cluster: {self.n_nodes} compute + {self.n_satellites} satellites, "
            f"horizon {self.horizon_s:.0f}s",
            f"  events processed: {self.events_processed}, "
            f"invariant sweeps: {self.checks_run}",
            f"  faults injected: {self.faults_injected} "
            f"({len(self.schedule)} scheduled), alerts raised: {self.alerts_raised}",
            f"  jobs: {self.jobs_submitted} submitted, {self.jobs_completed} completed, "
            f"{self.jobs_failed} failed",
            f"  master takeovers: {self.master_takeovers}",
            f"  resizes: {self.jobs_grown} grow(s), {self.jobs_shrunk} shrink(s)",
            f"  violations: {self.total_violations}",
        ]
        for name, count in self.invariant_counts:
            lines.append(f"    {name:<24} {count}")
        for violation in self.violations[:_MAX_RENDERED]:
            lines.append(
                f"  VIOLATION t={violation.time:.3f} [{violation.invariant}] "
                f"{violation.detail}"
            )
        if len(self.violations) > _MAX_RENDERED:
            lines.append(f"  ... {len(self.violations) - _MAX_RENDERED} more recorded")
        if not self.ok:
            lines.append(f"  reproduce with: repro chaos run {self.scenario} --seed {self.seed}")
        return "\n".join(lines)
