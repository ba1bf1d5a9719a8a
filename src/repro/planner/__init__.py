"""SLO-aware capacity planning over the batched design grid.

``repro.planner`` answers the deployment question the cost model exists
for: *what hardware does this workload need?*  Given a declarative
:class:`~repro.scenarios.spec.ScenarioSpec` and SLO targets, the planner
enumerates fleet topologies × chip design points, rejects provably
SLO-infeasible chip designs with one array pass of analytic lower bounds
(:func:`repro.core.batch.batch_service_time_bounds` — no simulation), then
exactly simulates the surviving frontier through the event-driven serving
engines and returns a Pareto frontier over (SLO attainment, chip count,
silicon area, power) as a deterministic, canonically-JSON
:class:`~repro.planner.report.PlanReport`.

Run it from the command line::

    python -m repro.planner plan chat-poisson
    python -m repro.planner plan mixed-rush-hour --slo-p99-ttft 5.0 --json

See ``docs/capacity_planning.md`` for the pruning math and a full
walkthrough.
"""

from .bnb import BnbResult, Subgrid, bnb_prune_designs, initial_subgrids
from .evaluate import (
    CandidateOutcome,
    evaluate_candidate,
    simulate_candidate,
)
from .pareto import dominates, pareto_frontier
from .plan import (
    GOLDEN_PLAN_SCENARIOS,
    SEARCH_MODES,
    plan_scenario,
    resolve_slo,
)
from .prune import DesignBounds, prune_designs, trace_pricer
from .report import PlanEntry, PlanReport, chip_cost, format_plan_report, plan_hash
from .space import (
    ChipDesign,
    FleetOption,
    PlannerConfig,
    build_chip_grid,
    parse_mixes,
)
from .store import PlanStore, candidate_key

__all__ = [
    "BnbResult",
    "CandidateOutcome",
    "ChipDesign",
    "DesignBounds",
    "FleetOption",
    "GOLDEN_PLAN_SCENARIOS",
    "PlanEntry",
    "PlanReport",
    "PlanStore",
    "PlannerConfig",
    "SEARCH_MODES",
    "Subgrid",
    "bnb_prune_designs",
    "build_chip_grid",
    "candidate_key",
    "chip_cost",
    "dominates",
    "evaluate_candidate",
    "format_plan_report",
    "initial_subgrids",
    "pareto_frontier",
    "parse_mixes",
    "plan_hash",
    "plan_scenario",
    "prune_designs",
    "resolve_slo",
    "simulate_candidate",
    "trace_pricer",
]
