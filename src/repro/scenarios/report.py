"""Structured scenario reports with a canonical JSON form.

:class:`ScenarioReport` is the artifact a scenario run emits: identity
(name + spec hash), traffic accounting, serving percentiles, SLO verdicts,
autoscaler activity and the batched-cost-engine pricing summary.  Every
report type is a :class:`~repro.codec.Spec`, so its
:meth:`~repro.codec.Spec.to_json` rendering is *canonical* — key-sorted,
2-space-indented, trailing newline — and fully determined by the spec, so
the golden-report regression suite asserts byte identity against committed
files (the same discipline as the fig11 byte-identity check).  Optional
blocks are written only when present (:func:`~repro.codec.when_set`), so
reports without them keep their bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..codec import Spec, when_set
from ..serving.autoscale import ScalingEvent
from ..serving.faults import FaultEvent, FaultRecovery
from ..serving.fleet import FleetResult
from ..serving.metrics import (
    PercentileStats,
    RequestRecord,
    ServingReport,
    summarize,
)
from ..serving.runtime.supervision import ActorIncident


@dataclass(frozen=True)
class SLOCheck(Spec):
    """One objective's verdict: the attained value against its target."""

    derived = ("met",)

    metric: str
    target_s: float
    attained_s: float

    @property
    def met(self) -> bool:
        """True when the attained value is within the target."""
        return self.attained_s <= self.target_s


@dataclass(frozen=True)
class AutoscaleSummary(Spec):
    """Controller activity over one run."""

    peak_chips: int
    final_chips: int
    n_scale_ups: int
    n_scale_downs: int
    n_rejected: int
    rejection_rate: float
    events: Tuple[ScalingEvent, ...]

    @classmethod
    def from_result(cls, result: FleetResult) -> "AutoscaleSummary":
        """Summarize the controller activity of an autoscaled run's ``result``."""
        return cls(
            peak_chips=result.peak_chips,
            final_chips=result.final_chips,
            n_scale_ups=result.n_scale_ups,
            n_scale_downs=result.n_scale_downs,
            n_rejected=result.n_rejected,
            rejection_rate=result.rejection_rate,
            events=result.events,
        )


@dataclass(frozen=True)
class TenantSummary(Spec):
    """One tenant class's traffic accounting and SLO verdicts."""

    derived = ("slo_met",)

    tenant: str
    priority: float
    n_requests: int
    n_completed: int
    n_rejected: int
    latency: PercentileStats
    ttft: PercentileStats
    queue_wait: PercentileStats
    slo: Tuple[SLOCheck, ...]

    @property
    def slo_met(self) -> bool:
        """True when the tenant meets every stated objective."""
        return all(check.met for check in self.slo)


def tenant_summaries(
    records: Sequence[RequestRecord],
    tenants: Sequence[str],
    priorities: Mapping[str, float],
    slo_targets: Mapping[str, float],
    rejected_ids: Sequence[int],
) -> Tuple[TenantSummary, ...]:
    """Per-tenant attainment, tenant-name-sorted.

    ``tenants`` names the tenant of every *offered* request by trace
    position (request id for compiled traces), ``priorities`` the
    admission priority of each tenant class, and ``rejected_ids`` the
    requests admission dropped; each tenant's verdicts against the
    ``slo_targets`` objectives are computed over its own completed
    ``records`` only.
    """
    by_tenant: Dict[str, list] = {tenant: [] for tenant in tenants}
    for record in records:
        by_tenant[tenants[record.request_id]].append(record)
    offered: Dict[str, int] = {tenant: 0 for tenant in by_tenant}
    for tenant in tenants:
        offered[tenant] += 1
    dropped: Dict[str, int] = {tenant: 0 for tenant in by_tenant}
    for request_id in rejected_ids:
        dropped[tenants[request_id]] += 1
    out = []
    for tenant in sorted(by_tenant):
        report = summarize(by_tenant[tenant])
        out.append(
            TenantSummary(
                tenant=tenant,
                priority=priorities.get(tenant, 1.0),
                n_requests=offered[tenant],
                n_completed=report.n_requests,
                n_rejected=dropped[tenant],
                latency=report.latency,
                ttft=report.ttft,
                queue_wait=report.queue_wait,
                slo=slo_checks(slo_targets, report),
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class FaultSummary(Spec):
    """The run's fault timeline with recovery metrics per disruption."""

    drain_policy: str
    n_redispatched: int
    n_aborted: int
    events: Tuple[FaultEvent, ...]
    impacts: Tuple[FaultRecovery, ...]


@dataclass(frozen=True)
class IncidentSummary(Spec):
    """The live runtime's recovery timeline for one run.

    ``timeline`` is the chronological
    :class:`~repro.serving.runtime.supervision.ActorIncident` sequence;
    ``n_sessions`` counts supervisor lives (more than one means the
    supervisor itself crashed and rebuilt from the auto-checkpoint
    ring).  The summary describes *how* the run was computed, never
    *what* it computed: the rest of the report is byte-identical with or
    without disturbances — strip the block with
    :meth:`ScenarioReport.without_incidents` to compare.
    """

    derived = ("counts",)

    n_sessions: int
    timeline: Tuple[ActorIncident, ...]

    @classmethod
    def from_incidents(
        cls, incidents: Sequence[ActorIncident]
    ) -> "IncidentSummary":
        """Summarize a supervised run's incident list."""
        timeline = tuple(incidents)
        n_sessions = max(
            (incident.session for incident in timeline), default=1
        )
        return cls(n_sessions=n_sessions, timeline=timeline)

    @property
    def counts(self) -> Dict[str, int]:
        """Incidents per kind, kind-sorted."""
        counts: Dict[str, int] = {}
        for incident in self.timeline:
            counts[incident.kind] = counts.get(incident.kind, 0) + 1
        return dict(sorted(counts.items()))


@dataclass(frozen=True)
class PricingSummary(Spec):
    """Batched cost-engine view of the trace's offered load.

    ``batch1_chip_seconds`` is the total batch-1 service time the trace
    demands of one chip; divided by the makespan it yields
    ``mean_chips_demanded`` — the average fleet size the offered load
    requires before batching gains, a sizing anchor for autoscaler bounds.
    """

    unique_shapes: int
    batch1_chip_seconds: float
    mean_chips_demanded: float


@dataclass(frozen=True)
class ScenarioReport(Spec):
    """The structured outcome of one scenario run."""

    derived = ("slo_met",)

    name: str
    description: str
    spec_hash: str
    n_requests: int
    n_completed: int
    component_counts: Dict[str, int]
    makespan_s: float
    requests_per_second: float
    tokens_per_second: float
    latency: PercentileStats
    ttft: PercentileStats
    queue_wait: PercentileStats
    slo: Tuple[SLOCheck, ...]
    pricing: PricingSummary
    autoscale: Optional[AutoscaleSummary] = when_set(None)
    #: Per-tenant attainment; present only when the spec declares tenants
    #: (conditional emission keeps tenant-free goldens byte-identical).
    tenants: Optional[Tuple[TenantSummary, ...]] = when_set(None)
    #: Fault timeline + recovery metrics; present only for fault specs.
    faults: Optional[FaultSummary] = when_set(None)
    #: Live-runtime recovery timeline; present only when a live run
    #: actually recorded incidents (conditional emission keeps every
    #: batch and undisturbed-run golden byte-identical).
    incidents: Optional[IncidentSummary] = when_set(None)

    @property
    def slo_met(self) -> bool:
        """True when every stated objective is met (vacuously if none)."""
        return all(check.met for check in self.slo)

    def without_incidents(self) -> "ScenarioReport":
        """The report with the ``incidents`` block stripped.

        Incident details depend on wall-clock race timing (which
        recovery path fired first), while everything else is a pure
        function of the spec — this is the comparison surface the chaos
        differential suite asserts byte-identity on.
        """
        return replace(self, incidents=None)


def attained_slo(report: ServingReport) -> Dict[str, float]:
    """The value ``report`` attains on every SLO objective, keyed by objective.

    The one mapping from :class:`~repro.scenarios.spec.SLOSpec`'s
    objective fields to report percentiles: scenario reports, plan
    entries and the planner's chip-loss probe all judge through it.
    """
    return {
        "ttft_p99_s": report.ttft.p99,
        "latency_p95_s": report.latency.p95,
        "queue_wait_p99_s": report.queue_wait.p99,
    }


def slo_checks(slo_targets: Mapping[str, float], report: ServingReport) -> Tuple[SLOCheck, ...]:
    """One verdict per objective of ``slo_targets`` against ``report``."""
    return slo_verdicts(slo_targets, attained_slo(report))


def slo_verdicts(
    slo_targets: Mapping[str, float], attained: Mapping[str, float]
) -> Tuple[SLOCheck, ...]:
    """One verdict per objective of ``slo_targets``, in metric order.

    ``attained`` holds the attained values keyed by objective, as
    :func:`attained_slo` returns them.
    """
    return tuple(
        SLOCheck(metric=metric, target_s=target, attained_s=attained[metric])
        for metric, target in sorted(slo_targets.items())
    )


def format_scenario_report(report: ScenarioReport) -> str:
    """Human-readable rendering of ``report`` for the CLI."""
    title = f"Scenario: {report.name}"
    lines = [title, "=" * len(title)]
    if report.description:
        lines.append(report.description)
    lines.append(f"spec hash          : {report.spec_hash[:16]}…")
    completed = (
        f"{report.n_completed}/{report.n_requests}"
        if report.n_completed != report.n_requests
        else f"{report.n_requests}"
    )
    lines.append(f"requests completed : {completed}")
    mix = ", ".join(
        f"{name} {count}" for name, count in report.component_counts.items()
    )
    lines.append(f"mix                : {mix}")
    lines.append(f"makespan           : {report.makespan_s:.3f} s")
    lines.append(f"throughput         : {report.requests_per_second:.2f} req/s, "
                 f"{report.tokens_per_second:.1f} tokens/s")
    for label, stats in (
        ("latency", report.latency),
        ("TTFT", report.ttft),
        ("queue wait", report.queue_wait),
    ):
        lines.append(
            f"{label:<11}: p50 {stats.p50 * 1e3:9.2f} ms   "
            f"p95 {stats.p95 * 1e3:9.2f} ms   p99 {stats.p99 * 1e3:9.2f} ms"
        )
    lines.append(
        f"offered load       : {report.pricing.mean_chips_demanded:.2f} "
        f"batch-1 chips ({report.pricing.unique_shapes} unique shapes)"
    )
    if report.autoscale is not None:
        a = report.autoscale
        lines.append(
            f"autoscaler         : peak {a.peak_chips} chips, final "
            f"{a.final_chips}, +{a.n_scale_ups}/-{a.n_scale_downs} scalings, "
            f"{a.n_rejected} rejected"
        )
    if report.faults is not None:
        f = report.faults
        lines.append(
            f"faults             : {len(f.events)} events "
            f"({f.drain_policy}), {f.n_redispatched} redispatched, "
            f"{f.n_aborted} aborted"
        )
        for impact in f.impacts:
            recover = (
                "not recovered"
                if impact.time_to_recover_s is None
                else f"recovered in {impact.time_to_recover_s:.2f} s"
            )
            lines.append(
                f"  {impact.event.kind} chip {impact.event.chip_id} @ "
                f"{impact.event.time_s:.2f} s: p99 TTFT dent "
                f"{impact.dent_depth_s * 1e3:.2f} ms, {recover}"
            )
    if report.incidents is not None:
        i = report.incidents
        counts = ", ".join(
            f"{kind} {count}" for kind, count in i.counts.items()
        )
        lines.append(
            f"incidents          : {len(i.timeline)} over "
            f"{i.n_sessions} supervisor session(s) ({counts})"
        )
    if report.tenants is not None:
        for tenant in report.tenants:
            verdict = "MET " if tenant.slo_met else "MISS"
            lines.append(
                f"tenant {verdict}        : {tenant.tenant} "
                f"(priority {tenant.priority:g}) "
                f"{tenant.n_completed}/{tenant.n_requests} served, "
                f"p99 TTFT {tenant.ttft.p99 * 1e3:.2f} ms"
            )
    if report.slo:
        for check in report.slo:
            verdict = "MET " if check.met else "MISS"
            lines.append(
                f"SLO {verdict}           : {check.metric} "
                f"{check.attained_s * 1e3:.2f} ms vs {check.target_s * 1e3:.2f} ms"
            )
    else:
        lines.append("SLO                : none stated")
    return "\n".join(lines)
