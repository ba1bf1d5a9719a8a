"""Declarative serving scenarios on EdgeMM fleets.

``repro.scenarios`` turns hand-wired serving experiments into data: a
:class:`~repro.scenarios.spec.ScenarioSpec` declares a workload mix, an
arrival pattern, a fleet topology (optionally SLO-aware autoscaled) and
service-level objectives; :func:`~repro.scenarios.runner.run_scenario`
compiles it to a trace, plays it through the serving layer, prices the
offered load through the array-native batch engine and emits a
:class:`~repro.scenarios.report.ScenarioReport` whose canonical JSON form
is regression-locked by the golden-report suite.
:func:`~repro.scenarios.runner.run_scenario_live` plays the same spec
through the live actor runtime, byte-identically, and can pause it into
a self-contained checkpoint that
:func:`~repro.scenarios.runner.resume_scenario` finishes.

Run the catalogue from the command line::

    python -m repro.scenarios list
    python -m repro.scenarios run mixed-rush-hour
"""

from .compile import (
    CompiledScenario,
    build_arrival_process,
    compile_chaos_schedule,
    compile_fault_schedule,
    compile_scenario,
    component_sampler,
)
from .registry import (
    LONG_CONTEXT,
    MULTI_IMAGE,
    TEXT_CHAT,
    VIDEO_FRAMES,
    available_scenarios,
    get_scenario,
    register_scenario,
)
from .report import (
    AutoscaleSummary,
    FaultSummary,
    IncidentSummary,
    PricingSummary,
    ScenarioReport,
    SLOCheck,
    TenantSummary,
    attained_slo,
    format_scenario_report,
    slo_checks,
    slo_verdicts,
    tenant_summaries,
)
from .runner import (
    autoscaler_config,
    build_fleet,
    price_offered_load,
    resume_scenario,
    run_scenario,
    run_scenario_live,
)
from .spec import (
    ArrivalSpec,
    AutoscalerSpec,
    ChaosSpec,
    FaultsSpec,
    FleetSpec,
    ScenarioSpec,
    SLOSpec,
    WorkloadComponent,
)

__all__ = [
    "ArrivalSpec",
    "AutoscalerSpec",
    "AutoscaleSummary",
    "ChaosSpec",
    "CompiledScenario",
    "FaultSummary",
    "FaultsSpec",
    "FleetSpec",
    "IncidentSummary",
    "LONG_CONTEXT",
    "MULTI_IMAGE",
    "PricingSummary",
    "ScenarioReport",
    "ScenarioSpec",
    "SLOCheck",
    "SLOSpec",
    "TEXT_CHAT",
    "TenantSummary",
    "VIDEO_FRAMES",
    "WorkloadComponent",
    "attained_slo",
    "autoscaler_config",
    "available_scenarios",
    "build_arrival_process",
    "build_fleet",
    "compile_chaos_schedule",
    "compile_fault_schedule",
    "compile_scenario",
    "component_sampler",
    "format_scenario_report",
    "get_scenario",
    "price_offered_load",
    "register_scenario",
    "resume_scenario",
    "run_scenario",
    "run_scenario_live",
    "slo_checks",
    "slo_verdicts",
    "tenant_summaries",
]
