"""Exact evaluation of surviving plan candidates.

Candidates that survive analytic pruning are replayed through the real
event-driven serving engines — a
:class:`~repro.serving.fleet.FleetSimulator`, static or autoscaled — on
the scenario's compiled trace.  A candidate's fleet is the scenario's
own, resized by :meth:`~repro.planner.space.FleetOption.fleet_spec` and
built by :func:`~repro.scenarios.runner.build_fleet`, the one builder
scenario runs use too.  Every chip of a candidate's fleet runs on
one performance simulator of the candidate's chip design, and a serial
planning run hands each design's one simulator to all of its
candidates (:func:`repro.planner.plan.plan_scenario`).  The module-level
:func:`simulate_candidate` worker takes only picklable data (the spec's
JSON, dicts for design/option, the resolved SLO targets), so the same code
runs serially or fanned out through
:func:`repro.experiments.parallel.parallel_map`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Sequence

from ..codec import Spec
from ..core.simulator import PerformanceSimulator
from ..scenarios.compile import compile_scenario
from ..scenarios.report import attained_slo
from ..scenarios.runner import build_fleet
from ..scenarios.spec import ScenarioSpec, SLOSpec
from ..serving.queue import ServingRequest
from .space import ChipDesign, FleetOption


@dataclass(frozen=True)
class CandidateOutcome(Spec):
    """Exact-simulation metrics of one (chip design, fleet option) candidate.

    The three objective fields hold the run's
    :func:`~repro.scenarios.report.attained_slo` values, under the
    objectives' names.  ``chips_provisioned`` is the fleet size the plan
    must stand up: the static chip count, or the autoscaled run's peak
    concurrent chips.  ``n_scale_events`` counts controller decisions
    (zero for static fleets).
    """

    design: ChipDesign
    option: FleetOption
    n_completed: int
    makespan_s: float
    ttft_p99_s: float
    latency_p95_s: float
    queue_wait_p99_s: float
    chips_provisioned: int
    n_scale_events: int = 0


def _candidate_spec(
    spec: ScenarioSpec, option: FleetOption, targets: Mapping[str, float]
) -> ScenarioSpec:
    """``spec`` serving its traffic on ``option``'s fleet, judged by ``targets``.

    The fleet is :meth:`FleetOption.fleet_spec` of the scenario's, and
    ``targets`` (the resolved SLO objectives) become the spec's SLOs, so
    an autoscaled candidate's controller steers toward the resolved TTFT
    target.  The fault plan is dropped: the planner plans the fault-free
    run, and a spec checks its fault plan against the fleet's chip count,
    which a 1-chip candidate may not meet.
    """
    return replace(
        spec,
        fleet=option.fleet_spec(spec.fleet),
        slo=SLOSpec(**targets),
        faults=None,
    )


def evaluate_candidate(
    spec: ScenarioSpec,
    trace: Sequence[ServingRequest],
    design: ChipDesign,
    option: FleetOption,
    targets: Mapping[str, float],
    *,
    simulator: Optional[PerformanceSimulator] = None,
) -> CandidateOutcome:
    """Exactly simulate one (``design``, ``option``) candidate.

    ``spec`` supplies the serving knobs, ``trace`` the pre-compiled
    traffic and ``targets`` the resolved SLO objectives (the autoscaled
    path needs the TTFT target as its set point).  The candidate's fleet
    runs on ``simulator`` when given: it must carry ``design``'s system,
    and a planning run shares one per design, so the candidate's chips
    share its serving-cost memo with every other fleet of the design.
    Without it the fleet runs on a fresh simulator of ``design.system()``.
    Shared evaluations are bit-identical to cold ones because every
    memoized value is a deterministic function of the design.
    """
    fleet = build_fleet(
        _candidate_spec(spec, option, targets),
        simulator=simulator or PerformanceSimulator(design.system()),
    )
    result = fleet.run(list(trace))
    report = result.report
    return CandidateOutcome(
        design=design,
        option=option,
        n_completed=report.n_requests,
        makespan_s=report.makespan_s,
        chips_provisioned=result.peak_chips,
        n_scale_events=len(result.events),
        **attained_slo(report),
    )


def candidate_survives_chip_loss(
    spec: ScenarioSpec,
    trace: Sequence[ServingRequest],
    design: ChipDesign,
    option: FleetOption,
    targets: Mapping[str, float],
    *,
    simulator: Optional[PerformanceSimulator] = None,
) -> bool:
    """Whether a candidate still meets every objective after losing a chip.

    The chaos probe of the planner: the candidate's fleet replays the
    trace with chip 0 permanently failed at a quarter of the arrival span
    (the fault-injection machinery of :mod:`repro.serving.faults`, drain
    policy, no recovery), and survival means the degraded run still
    completes every request and meets every objective in ``targets``.
    The probe is deterministic — same spec, design and option always return the
    same verdict.  The fleet runs on ``simulator`` when given (it must
    carry ``design``'s system; a plan shares one per design across that
    design's probes), else on a fresh one, as in :func:`evaluate_candidate`.
    Single-chip fleets cannot survive by construction and return
    ``False`` without simulation.
    """
    if option.n_chips < 2:
        return False
    # Imported lazily: the serving fault layer is optional for planning.
    from ..serving.faults import FaultEvent, FaultSchedule

    fleet = build_fleet(
        _candidate_spec(spec, option, targets),
        simulator=simulator or PerformanceSimulator(design.system()),
    )
    span = max(request.arrival_s for request in trace)
    schedule = FaultSchedule(
        events=(
            FaultEvent(time_s=0.25 * span, kind="chip_down", chip_id=0),
        ),
        drain_policy="drain",
    )
    result = fleet.run(list(trace), faults=schedule)
    report = result.report
    if report.n_requests < len(trace):
        return False
    attained = attained_slo(report)
    return all(
        attained[metric] <= target for metric, target in targets.items()
    )


def simulate_candidate(
    spec_json: str,
    design: Dict[str, Any],
    option: Dict[str, Any],
    targets: Dict[str, float],
) -> CandidateOutcome:
    """Picklable worker: rebuild the candidate from data and simulate it.

    ``spec_json`` is the scenario spec's JSON form, ``design`` and
    ``option`` are :meth:`~repro.planner.space.ChipDesign.to_dict` /
    :meth:`~repro.planner.space.FleetOption.to_dict` payloads and
    ``targets`` the resolved SLO objectives.  The trace recompiles inside
    the worker — scenario compilation is spec-hash-seeded, so every process
    derives the bit-identical trace and the parallel path returns exactly
    what the serial path would.
    """
    spec = ScenarioSpec.from_json(spec_json)
    trace = compile_scenario(spec).trace
    return evaluate_candidate(
        spec,
        trace,
        ChipDesign.from_dict(design),
        FleetOption.from_dict(option),
        targets,
    )
