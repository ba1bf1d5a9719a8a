"""Structured plan reports with a canonical JSON form.

:class:`PlanReport` is the artifact a planning run emits: the scenario and
planner-config identity (hashed into ``plan_hash``), the SLO targets the
search was judged against, the candidate-space accounting (how many designs
the analytic bounds pruned, how many candidates were exactly simulated),
the per-design bound verdicts, the Pareto frontier over the simulated
candidates and the cheapest fully-SLO-meeting plan.  Every report type is
a :class:`~repro.codec.Spec`, so its :meth:`~repro.codec.Spec.to_json`
rendering is canonical — key-sorted, 2-space indented, trailing newline —
and fully determined by the scenario spec and planner config, so golden
plan reports assert byte identity the same way scenario reports do.
:meth:`PlanReport.from_json` round-trips the canonical form
byte-identically (regression-tested on every golden).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..arch.area_power import AreaPowerModel
from ..codec import Spec, when_set
from ..scenarios.report import SLOCheck, slo_verdicts
from .evaluate import CandidateOutcome
from .prune import DesignBounds
from .space import ChipDesign, FleetOption, PlannerConfig


def chip_cost(design: ChipDesign) -> Tuple[float, float]:
    """Analytic per-chip (area mm², peak-power W) of a design point."""
    model = AreaPowerModel(design.system().chip)
    return model.chip_area_mm2(), model.power_report(1.0).total_mw / 1e3


@dataclass(frozen=True)
class PlanEntry(Spec):
    """One exactly-simulated candidate with its cost and SLO verdicts.

    ``fleet`` is the candidate's fleet option; ``chips_provisioned`` (peak
    chips for autoscaled fleets) scales the per-chip silicon cost into
    ``fleet_area_mm2`` and ``fleet_power_w``; ``slo`` holds one verdict
    per stated objective and ``slo_attainment`` the met fraction (1.0
    when no objectives are stated).
    """

    derived = ("slo_met",)

    design: ChipDesign
    fleet: FleetOption
    chips_provisioned: int
    chip_area_mm2: float
    fleet_area_mm2: float
    fleet_power_w: float
    ttft_p99_s: float
    latency_p95_s: float
    queue_wait_p99_s: float
    n_completed: int
    makespan_s: float
    slo: Tuple[SLOCheck, ...]
    slo_attainment: float
    n_scale_events: int = 0
    #: Verdict of the one-chip-loss chaos probe; ``None`` (the default,
    #: omitted from the serialized form) when the planning run did not
    #: require chip-loss survival, so historical goldens stay byte-stable.
    survives_chip_loss: Optional[bool] = when_set(None)

    @property
    def slo_met(self) -> bool:
        """True when every stated objective is met (vacuously if none)."""
        return all(check.met for check in self.slo)

    def objectives(self) -> Tuple[float, float, float, float]:
        """The maximization vector Pareto dominance ranks entries by.

        (SLO attainment, −chip count, −fleet area, −fleet power): a plan
        dominates another when it attains at least as much of the SLO with
        no more chips, silicon or power, and improves at least one axis.
        """
        return (
            self.slo_attainment,
            -float(self.chips_provisioned),
            -self.fleet_area_mm2,
            -self.fleet_power_w,
        )

    @classmethod
    def from_outcome(
        cls, outcome: CandidateOutcome, targets: Mapping[str, float]
    ) -> "PlanEntry":
        """Fold a simulation outcome and the SLO targets into an entry."""
        # The outcome holds each objective's attained_slo value by name.
        checks = slo_verdicts(
            targets, {metric: getattr(outcome, metric) for metric in targets}
        )
        attainment = (
            sum(1 for check in checks if check.met) / len(checks) if checks else 1.0
        )
        area, power = chip_cost(outcome.design)
        return cls(
            design=outcome.design,
            fleet=outcome.option,
            chips_provisioned=outcome.chips_provisioned,
            chip_area_mm2=area,
            fleet_area_mm2=area * outcome.chips_provisioned,
            fleet_power_w=power * outcome.chips_provisioned,
            ttft_p99_s=outcome.ttft_p99_s,
            latency_p95_s=outcome.latency_p95_s,
            queue_wait_p99_s=outcome.queue_wait_p99_s,
            n_completed=outcome.n_completed,
            makespan_s=outcome.makespan_s,
            slo=checks,
            slo_attainment=attainment,
            n_scale_events=outcome.n_scale_events,
        )


@dataclass(frozen=True)
class PlanReport(Spec):
    """The structured outcome of one capacity-planning run."""

    derived = ("feasible",)

    scenario: str
    description: str
    spec_hash: str
    plan_hash: str
    planner: PlannerConfig
    slo_targets: Dict[str, float]
    n_requests: int
    n_chip_designs: int
    n_candidates: int
    n_pruned_designs: int
    n_pruned_candidates: int
    n_simulated: int
    design_bounds: Tuple[DesignBounds, ...]
    frontier: Tuple[PlanEntry, ...]
    best: Optional[PlanEntry]
    #: Search mode that produced the report: ``"flat"`` (every design
    #: bounded individually — the oracle) or ``"bnb"`` (branch-and-bound
    #: over subgrids).  Both modes yield the identical frontier and best
    #: plan; ``"bnb"`` reports bounds only for individually-priced designs.
    #: Search and store accounting below is written only when set, so
    #: flat-search reports (and the committed goldens) stay byte-stable.
    search: str = when_set("flat")
    #: Subgrids retired by one corner comparison (bnb search only).
    n_pruned_subgrids: Optional[int] = when_set(None)
    #: Analytic bound evaluations performed (bnb search only; flat search
    #: always prices exactly ``n_chip_designs``).
    n_bound_evals: Optional[int] = when_set(None)
    #: Plan-store accounting (populated only when a store was attached):
    #: hits skipped exact simulation, misses were simulated then stored.
    store_hits: Optional[int] = when_set(None)
    store_misses: Optional[int] = when_set(None)
    #: True when the run additionally required the best plan to survive a
    #: one-chip loss (SLO-meeting candidates were chaos-probed).
    require_chip_loss: bool = when_set(False)

    @property
    def feasible(self) -> bool:
        """True when some simulated candidate met every stated objective."""
        return self.best is not None


def plan_hash(
    spec_hash: str, config: PlannerConfig, targets: Mapping[str, float]
) -> str:
    """The plan identity: SHA-256 over ``spec_hash``, ``config`` and ``targets``.

    Seeded from the scenario's spec hash (itself the root of every compiled
    trace's RNG seed), so equal inputs always reproduce the byte-identical
    report and any input change moves the hash.
    """
    material = json.dumps(
        {
            "spec_hash": spec_hash,
            "planner": config.to_dict(),
            "slo_targets": dict(sorted(targets.items())),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def format_plan_report(report: PlanReport) -> str:
    """Human-readable rendering of ``report`` for the CLI."""
    title = f"Capacity plan: {report.scenario}"
    lines = [title, "=" * len(title)]
    if report.description:
        lines.append(report.description)
    lines.append(f"plan hash          : {report.plan_hash[:16]}…")
    targets = ", ".join(
        f"{metric} <= {target:g}s" for metric, target in report.slo_targets.items()
    )
    lines.append(f"objectives         : {targets or 'none stated'}")
    if report.require_chip_loss:
        lines.append(
            "resilience         : best plan must survive one chip loss"
        )
    lines.append(
        f"candidate space    : {report.n_candidates} "
        f"({report.n_chip_designs} chip designs), "
        f"{report.n_pruned_candidates} pruned analytically, "
        f"{report.n_simulated} simulated exactly"
    )
    if report.search != "flat":
        evals = report.n_bound_evals
        subgrids = report.n_pruned_subgrids
        lines.append(
            f"search             : {report.search} — "
            f"{evals} bound evals, {subgrids} subgrids pruned whole"
        )
    if report.store_hits is not None or report.store_misses is not None:
        lines.append(
            f"plan store         : {report.store_hits or 0} hits "
            f"(simulation skipped), {report.store_misses or 0} misses"
        )
    pruned = [bounds for bounds in report.design_bounds if not bounds.feasible]
    for bounds in pruned:
        lines.append(f"  pruned {bounds.design.name:<12}: {bounds.reasons[0]}")
    lines.append(f"Pareto frontier    : {len(report.frontier)} plans")
    for entry in report.frontier:
        verdict = "MET " if entry.slo_met else "MISS"
        survival = ""
        if entry.survives_chip_loss is not None:
            survival = (
                "  [survives chip loss]"
                if entry.survives_chip_loss
                else "  [dies with a chip]"
            )
        lines.append(
            f"  {verdict} {entry.design.name:<12} {entry.fleet.label:<22} "
            f"chips {entry.chips_provisioned}  area {entry.fleet_area_mm2:8.1f} mm^2  "
            f"power {entry.fleet_power_w:6.2f} W  p99 TTFT {entry.ttft_p99_s * 1e3:9.2f} ms"
            f"{survival}"
        )
    if report.best is None:
        lines.append("best plan          : none meets every objective")
    else:
        best = report.best
        lines.append(
            f"best plan          : {best.design.name} {best.fleet.label} — "
            f"{best.chips_provisioned} chips, {best.fleet_area_mm2:.1f} mm^2, "
            f"{best.fleet_power_w:.2f} W"
        )
    return "\n".join(lines)
