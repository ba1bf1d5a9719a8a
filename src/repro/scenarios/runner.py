"""Scenario execution: spec → trace → fleet simulation → report.

:func:`run_scenario` is the entry point: it compiles the spec
(:mod:`repro.scenarios.compile`), builds the
:class:`~repro.serving.fleet.FleetSimulator` it describes — static, or
SLO-aware autoscaled when the spec carries an
:class:`~repro.serving.autoscale.AutoscalerSpec` — plays the trace, prices
the offered load through the array-native batch engine and folds
everything into a :class:`~repro.scenarios.report.ScenarioReport`.
:func:`run_scenario_live` is its live-runtime twin, which can also
pause a run into a self-contained checkpoint and finish it;
:func:`resume_scenario` finishes such a checkpoint from the spec it
embeds.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional, Union

from ..core.batch import batch_price_request_mix
from ..core.config import default_system
from ..core.simulator import PerformanceSimulator
from ..models.mllm import get_mllm
from ..serving.faults import fault_recovery
from ..serving.fleet import FleetResult, FleetSimulator
from ..serving.runtime import (
    DEFAULT_HANG_UNIT_S,
    ChaosSchedule,
    Checkpoint,
    SupervisionConfig,
    run_live,
)
from .compile import CompiledScenario, compile_scenario
from .report import (
    AutoscaleSummary,
    FaultSummary,
    IncidentSummary,
    PricingSummary,
    ScenarioReport,
    format_scenario_report,
    slo_checks,
    tenant_summaries,
)
from .spec import ScenarioSpec


def build_fleet(
    spec: ScenarioSpec,
    *,
    engine: str = "wave",
    simulator: Optional[PerformanceSimulator] = None,
) -> FleetSimulator:
    """Instantiate the fleet ``spec``'s :class:`FleetSpec` describes.

    The one place a fleet spec becomes a fleet: scenario runs, the live
    plane and the planner's candidates all build here.  With an
    autoscaler block the fleet spec's ``n_chips`` and ``policy`` are not
    passed: the autoscaler sets the fleet's size and placement, and its
    target is the scenario's ``slo.ttft_p99_s`` — a spec that asks for
    autoscaling without that objective is rejected, since the controller
    would have nothing to steer toward.  Every chip runs on
    ``simulator`` when given (the planner shares one per chip design),
    else on a fresh default-system one.  ``engine`` selects the chips'
    decode-loop implementation (see :data:`repro.serving.queue.ENGINES`);
    reports are engine-independent, the wave default just simulates
    faster.  This is the one scenario-level place the engine is chosen:
    to run a scenario on the step oracle, play
    ``build_fleet(spec, engine="step")`` and fold its result with
    :func:`scenario_report`.
    """
    fleet = spec.fleet
    sizing: Dict[str, Any] = {"n_chips": fleet.n_chips, "policy": fleet.policy}
    if fleet.autoscaler is not None:
        if spec.slo.ttft_p99_s is None:
            raise ValueError(
                f"scenario {spec.name!r} enables autoscaling but states no "
                "ttft_p99_s SLO for the controller to target"
            )
        sizing = {
            "autoscaler": replace(
                fleet.autoscaler, target_p99_ttft_s=spec.slo.ttft_p99_s
            )
        }
    return FleetSimulator(
        get_mllm(fleet.model),
        **sizing,
        simulator=simulator,
        max_batch_size=fleet.max_batch_size,
        cc_bandwidth_fraction=fleet.cc_bandwidth_fraction,
        context_bucket=fleet.context_bucket,
        engine=engine,
    )


def price_offered_load(
    compiled: CompiledScenario, makespan_s: float
) -> PricingSummary:
    """Price ``compiled``'s offered load through the batched cost engine.

    The load is priced on the paper's default EdgeMM system;
    ``makespan_s`` converts total batch-1 chip-seconds into the mean fleet
    size the load demands.
    """
    model = get_mllm(compiled.spec.fleet.model)
    prices = batch_price_request_mix(
        model, [request.request for request in compiled.trace], default_system()
    )
    chip_seconds = sum(prices[request.request].latency_s for request in compiled.trace)
    return PricingSummary(
        unique_shapes=len(prices),
        batch1_chip_seconds=chip_seconds,
        mean_chips_demanded=(chip_seconds / makespan_s if makespan_s > 0 else 0.0),
    )


def scenario_run_kwargs(compiled: CompiledScenario, fleet) -> dict:
    """The ``faults``/``priorities`` kwargs a compiled scenario's run takes.

    Shared by the batch and live execution planes so both drive the
    fleet's controller identically.  Every ``fleet`` kind takes both
    (``None`` when the spec has no faults, or uniform priorities), so
    the kwargs depend on ``compiled`` alone.
    """
    return {"faults": compiled.faults, "priorities": compiled.priorities}


def run_scenario(spec: ScenarioSpec, *, runtime: str = "batch") -> ScenarioReport:
    """Compile and run one scenario ``spec`` end to end, on the wave engine.

    ``runtime`` selects the execution plane (see
    :data:`repro.serving.fleet.RUNTIMES`): ``"live"`` streams the
    compiled trace through the asyncio actor runtime
    (:func:`run_scenario_live`) and produces the byte-identical report.
    Specs carrying a ``faults`` block replay their fault schedule and
    their reports grow a ``faults`` summary with per-disruption recovery
    metrics; specs declaring tenants grow a per-tenant attainment block.

    A spec's ``chaos`` block is a plan for the live plane only: there it
    injects the spec's compiled chaos schedule, and the report is
    byte-identical modulo the conditional ``incidents`` block.  The
    ``"batch"`` plane ignores chaos by design (there is no control plane
    to break), which is itself the invariant: chaos must not change
    what is computed.
    """
    if runtime == "live":
        return run_scenario_live(spec)
    compiled = compile_scenario(spec)
    fleet = build_fleet(spec)
    result = fleet.run(
        list(compiled.trace),
        runtime=runtime,
        **scenario_run_kwargs(compiled, fleet),
    )
    return scenario_report(spec, compiled, result)


def run_scenario_live(
    spec: ScenarioSpec,
    *,
    checkpoint: Optional[Checkpoint] = None,
    pace: Optional[float] = None,
    pause_after: Optional[int] = None,
    chaos: Optional[ChaosSchedule] = None,
    supervision: Optional[SupervisionConfig] = None,
    hang_unit_s: float = DEFAULT_HANG_UNIT_S,
) -> Union[ScenarioReport, Checkpoint]:
    """Run one scenario spec through the live runtime, or finish a paused run.

    The live twin of :func:`run_scenario`: same compilation, same fleet,
    same report — byte-identical including the golden JSON, modulo the
    conditional ``incidents`` block that records the recovery timeline
    when anything went wrong.  ``chaos`` defaults to the spec's own
    compiled :class:`~repro.serving.runtime.chaos.ChaosSchedule` when
    the spec carries a ``chaos`` block (seeded from the spec hash), and
    the default ``supervision`` seed likewise derives from the spec
    hash, so retry backoff schedules are part of the scenario's
    identity.  With ``pause_after`` the returned :class:`Checkpoint`
    embeds the spec, so :func:`resume_scenario` needs nothing else to
    finish the run; given a ``checkpoint`` of this spec, the run resumes
    from its cursor.  ``pace``, ``hang_unit_s`` and the checkpoint
    checks act as in :func:`~repro.serving.runtime.service.run_live`.
    """
    compiled = compile_scenario(spec)
    fleet = build_fleet(spec)
    if chaos is None:
        chaos = compiled.chaos
    if supervision is None:
        max_retries = (
            spec.chaos.max_retries
            if spec.chaos is not None
            else SupervisionConfig.max_retries
        )
        supervision = SupervisionConfig(
            seed=spec.derive_seed("supervision"), max_retries=max_retries
        )
    outcome = run_live(
        fleet,
        list(compiled.trace),
        checkpoint=checkpoint,
        chaos=chaos,
        supervision=supervision,
        pace=pace,
        pause_after=pause_after,
        hang_unit_s=hang_unit_s,
        **scenario_run_kwargs(compiled, fleet),
    )
    if isinstance(outcome, Checkpoint):
        return replace(outcome, scenario=spec.to_dict())
    return scenario_report(
        spec, compiled, outcome.result, incidents=outcome.incidents
    )


def resume_scenario(
    checkpoint: Checkpoint,
    *,
    pause_after: Optional[int] = None,
) -> Union[ScenarioReport, Checkpoint]:
    """Finish (or re-pause) the scenario run ``checkpoint`` froze.

    Rebuilds the spec from the checkpoint's embedded ``scenario`` data
    and resumes it through :func:`run_scenario_live`, which recompiles
    the trace (deterministic: the spec hash seeds every stream) and runs
    it under the spec's own chaos schedule and supervision; returns the
    final :class:`~repro.scenarios.report.ScenarioReport`,
    byte-identical to the uninterrupted run's (modulo the ``incidents``
    block), or, given ``pause_after`` (an absolute arrival cursor past
    the checkpoint's), a re-paused checkpoint.
    """
    if checkpoint.scenario is None:
        raise ValueError(
            "checkpoint embeds no scenario spec; resume it with "
            "run_live(fleet, trace, checkpoint=...) against the original "
            "fleet and trace"
        )
    return run_scenario_live(
        ScenarioSpec.from_dict(checkpoint.scenario),
        checkpoint=checkpoint,
        pause_after=pause_after,
    )


def scenario_report(
    spec: ScenarioSpec,
    compiled: CompiledScenario,
    result: FleetResult,
    *,
    incidents=None,
) -> ScenarioReport:
    """Fold a fleet ``result`` into ``spec``'s canonical report.

    Pure assembly over the ``spec``, its ``compiled`` trace and the run
    ``result`` — both execution planes (and checkpoint resumes) call it
    with their :class:`~repro.serving.fleet.FleetResult`, so report
    formatting lives in exactly one place.  The ``autoscale`` block is
    emitted for a spec with an autoscaler.  ``incidents`` (live runs
    only) attaches the recovery timeline as the conditional
    ``incidents`` block; an empty sequence attaches nothing, so
    undisturbed live runs emit the exact batch report.
    """
    report = result.report
    autoscale = (
        AutoscaleSummary.from_result(result)
        if spec.fleet.autoscaler is not None
        else None
    )
    tenants = None
    if any(component.tenant is not None for component in spec.mix):
        tenants = tenant_summaries(
            result.records,
            compiled.tenants,
            {
                component.tenant or "default": component.priority
                for component in spec.mix
            },
            spec.slo.targets(),
            rejected_ids=result.rejected_ids,
        )
    faults = None
    if compiled.faults is not None:
        faults = FaultSummary(
            drain_policy=compiled.faults.drain_policy,
            n_redispatched=len(result.redispatched_ids),
            n_aborted=len(result.aborted_ids),
            events=compiled.faults.events,
            impacts=fault_recovery(result.records, compiled.faults.events),
        )
    return ScenarioReport(
        name=spec.name,
        description=spec.description,
        spec_hash=spec.spec_hash(),
        n_requests=spec.n_requests,
        n_completed=report.n_requests,
        component_counts=dict(sorted(compiled.component_counts.items())),
        makespan_s=report.makespan_s,
        requests_per_second=report.requests_per_second,
        tokens_per_second=report.tokens_per_second,
        latency=report.latency,
        ttft=report.ttft,
        queue_wait=report.queue_wait,
        slo=slo_checks(spec.slo.targets(), report),
        pricing=price_offered_load(compiled, report.makespan_s),
        autoscale=autoscale,
        tenants=tenants,
        faults=faults,
        # Attached only when the timeline is non-empty: an undisturbed
        # live run emits the exact batch report, byte for byte.
        incidents=(
            IncidentSummary.from_incidents(incidents) if incidents else None
        ),
    )


__all__ = [
    "build_fleet",
    "price_offered_load",
    "resume_scenario",
    "run_scenario",
    "run_scenario_live",
    "scenario_report",
    "scenario_run_kwargs",
    "format_scenario_report",
]
