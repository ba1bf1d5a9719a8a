"""Planner-suite experiment: capacity plans for the golden scenarios.

Runs the SLO-aware capacity planner (:mod:`repro.planner`) over the
scenarios that carry committed golden plan reports and tabulates each
search: how much of the candidate space the analytic bounds pruned, how
many candidates were exactly simulated, and the cheapest SLO-meeting plan.
The table is the planning counterpart of the scenario suite — adding a
scenario to ``GOLDEN_PLAN_SCENARIOS`` adds a row here and a golden plan to
the regression suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..planner import GOLDEN_PLAN_SCENARIOS, PlanReport, plan_scenario
from ..scenarios import get_scenario
from .runner import format_table


@dataclass(frozen=True)
class PlannerSuiteResult:
    """Plan reports of the golden-plan scenarios, in catalogue order."""

    reports: Tuple[PlanReport, ...]

    @property
    def n_feasible(self) -> int:
        """Scenarios for which some plan met every stated objective."""
        return sum(1 for report in self.reports if report.feasible)


def run_planner_suite() -> PlannerSuiteResult:
    """Plan every golden-plan scenario with the default planner config."""
    return PlannerSuiteResult(
        reports=tuple(
            plan_scenario(get_scenario(name)) for name in GOLDEN_PLAN_SCENARIOS
        )
    )


def format_report(result: PlannerSuiteResult) -> str:
    """Render the planner suite as the usual aligned text table."""
    rows: List[List[object]] = []
    for report in result.reports:
        if report.best is None:
            best = "(none feasible)"
            chips = "-"
        else:
            best = f"{report.best.design.name} {report.best.fleet.label}"
            chips = str(report.best.chips_provisioned)
        rows.append(
            [
                report.scenario,
                report.n_candidates,
                report.n_pruned_candidates,
                report.n_simulated,
                len(report.frontier),
                best,
                chips,
            ]
        )
    table = format_table(
        ["scenario", "candidates", "pruned", "simulated", "frontier",
         "best plan", "chips"],
        rows,
    )
    return (
        "Planner suite — SLO-aware capacity plans "
        f"({result.n_feasible}/{len(result.reports)} scenarios feasible)\n" + table
    )
