"""Exact evaluation of surviving plan candidates.

Candidates that survive analytic pruning are replayed through the real
event-driven serving engines — a
:class:`~repro.serving.fleet.FleetSimulator`, static or autoscaled — on
the scenario's compiled trace.  Every chip of a candidate's fleet runs on
one performance simulator of the candidate's chip design, and a serial
planning run hands each design's one simulator to all of its
candidates (:func:`repro.planner.plan.plan_scenario`).  The module-level
:func:`simulate_candidate` worker takes only picklable data (the spec's
JSON, dicts for design/option, the resolved SLO targets), so the same code
runs serially or fanned out through
:func:`repro.experiments.parallel.parallel_map`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, Mapping, Optional, Sequence

from ..codec import Spec
from ..core.simulator import PerformanceSimulator
from ..models.mllm import MLLMConfig, get_mllm
from ..scenarios.compile import compile_scenario
from ..scenarios.report import attained_slo
from ..scenarios.spec import AutoscalerSpec, ScenarioSpec
from ..serving.autoscale import AutoscalerConfig
from ..serving.fleet import FleetSimulator
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


def candidate_fleet(
    model: MLLMConfig,
    spec: ScenarioSpec,
    design: ChipDesign,
    option: FleetOption,
    ttft_target: Optional[float],
    *,
    simulator: Optional[PerformanceSimulator] = None,
):
    """Instantiate the serving fleet a (``design``, ``option``) candidate describes.

    ``spec`` contributes the serving knobs (``model``, batch size,
    bandwidth split, context bucket); only the chips, the fleet size/policy
    and the autoscaler block vary with the candidate.  Autoscaled options reuse
    the scenario's controller tuning when the spec carries an autoscaler
    block, always with queue admission (plans serve the whole trace), and
    require a ``ttft_target`` for the controller's set point.  Every chip
    runs on one performance simulator, and so reads one serving-cost memo
    (:class:`~repro.serving.queue.ChipCosts`): ``simulator`` when given (it
    must carry ``design``'s system; a planning run shares one per design
    across that design's fleets), else a fresh one on ``design.system()``.
    The chips run the wave engine.
    """
    if simulator is None:
        simulator = PerformanceSimulator(design.system())
    sizing: Dict[str, Any] = {"n_chips": option.n_chips, "policy": option.policy}
    if option.autoscaled:
        if ttft_target is None:
            raise ValueError(
                "an autoscaled candidate needs a ttft_p99_s objective for the "
                "controller to target"
            )
        # Built like ``autoscaler_config``, so a new knob reaches both.
        tuning = replace(
            spec.fleet.autoscaler or AutoscalerSpec(),
            min_chips=option.min_chips,
            max_chips=option.n_chips,
            admission="queue",
        )
        config = AutoscalerConfig(target_p99_ttft_s=ttft_target, **asdict(tuning))
        sizing = {"autoscaler": config}
    return FleetSimulator(
        model,
        **sizing,
        simulator=simulator,
        max_batch_size=spec.fleet.max_batch_size,
        cc_bandwidth_fraction=spec.fleet.cc_bandwidth_fraction,
        context_bucket=spec.fleet.context_bucket,
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
    path needs the TTFT target as its set point).  ``simulator``
    optionally carries the design's performance simulator across the
    candidates of one planning run (see :func:`candidate_fleet`): the
    candidate's chips then share its serving-cost memo with every other
    fleet of the design.  Shared evaluations are bit-identical to cold
    ones because every memoized value is a deterministic function of the
    design.
    """
    fleet = candidate_fleet(
        get_mllm(spec.fleet.model),
        spec,
        design,
        option,
        targets.get("ttft_p99_s"),
        simulator=simulator,
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
    design's probes), else on a fresh one, as in :func:`candidate_fleet`.
    Single-chip fleets cannot survive by construction and return
    ``False`` without simulation.
    """
    if option.n_chips < 2:
        return False
    # Imported lazily: the serving fault layer is optional for planning.
    from ..serving.faults import FaultEvent, FaultSchedule

    model = get_mllm(spec.fleet.model)
    fleet = candidate_fleet(
        model,
        spec,
        design,
        option,
        targets.get("ttft_p99_s"),
        simulator=simulator,
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
