"""Chaos campaigns: adversarial failure schedules + in-line invariants.

The correctness backstop for every scaling/perf PR: named failure
scenarios run against the full RM stack while simulation-wide
invariants are checked after every event.  See ``repro chaos run`` for
the CLI and ``tests/chaos`` for the enforced acceptance properties.
"""

from repro.chaos.campaign import (
    CampaignCell,
    CampaignOutcome,
    campaign_cell_id,
    ddmin,
    run_campaign,
    run_scenario,
    shrink_schedule,
)
from repro.chaos.report import ChaosReport
from repro.chaos.scenarios import SCENARIOS, ChaosScenario, ScheduledFault, get_scenario
from repro.oracle.invariants import (
    ChaosContext,
    Eq1Correctness,
    FPTreeSoundness,
    Invariant,
    InvariantRegistry,
    NodeConservation,
    SatelliteLegality,
    SchedulerConservation,
    Violation,
    default_invariants,
)

__all__ = [
    "SCENARIOS",
    "CampaignCell",
    "CampaignOutcome",
    "ChaosContext",
    "ChaosReport",
    "ChaosScenario",
    "Eq1Correctness",
    "FPTreeSoundness",
    "Invariant",
    "InvariantRegistry",
    "NodeConservation",
    "SatelliteLegality",
    "ScheduledFault",
    "SchedulerConservation",
    "Violation",
    "campaign_cell_id",
    "ddmin",
    "default_invariants",
    "get_scenario",
    "run_campaign",
    "run_scenario",
    "shrink_schedule",
]
