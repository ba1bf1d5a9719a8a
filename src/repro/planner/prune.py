"""Analytic SLO-infeasibility pruning of chip designs.

The planner's expensive step is exact fleet simulation; the cheap step is
the array-native bound pass of
:func:`repro.core.batch.batch_service_time_bounds`, which floors every
request's TTFT and end-to-end latency on every chip design in one
broadcasted evaluation.  Because the bounds hold for *any* fleet size,
dispatch policy, batch composition and admission decision, a design whose
bound percentile already misses an objective can be rejected — together
with every fleet option built on it — without simulating anything.

Soundness (a pruned design can never be one the exact simulator would
accept) follows from pointwise dominance: every served request's recorded
TTFT/latency is at least its analytic floor, and the linear-interpolated
percentile the SLO checks use is monotone under pointwise dominance.  The
planner's fleet candidates always admit with the front-door queue, so every
request of the trace is served and the percentile runs over the same
population the bounds cover.  The property suite re-proves this against
brute-force exact search on randomized small spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..codec import Spec
from ..core.batch import ServiceTimeBoundsPricer
from ..models.mllm import get_mllm
from ..scenarios.compile import CompiledScenario
from .space import ChipDesign

#: Designs priced per :meth:`ServiceTimeBoundsPricer.bounds` call when the
#: flat planner bounds a huge grid: the broadcast matrices are
#: ``(chunk, unique ops)`` — chunking caps their footprint (a 10^5-design
#: grid against a rich trace would otherwise materialize gigabytes) while
#: the hoisted shape tables keep the per-chunk fixed cost negligible.
BOUND_CHUNK_DESIGNS = 2048


@dataclass(frozen=True)
class DesignBounds(Spec):
    """One chip design's analytic bound percentiles and feasibility verdict.

    ``lb_ttft_p99_s`` / ``lb_latency_p95_s`` are the trace percentiles of
    the per-request lower bounds (``None`` when the bound pass was
    skipped); ``reasons`` names each objective the bound already misses —
    empty for designs that survive to exact simulation.
    """

    derived = ("feasible",)

    design: ChipDesign
    lb_ttft_p99_s: Optional[float]
    lb_latency_p95_s: Optional[float]
    reasons: Tuple[str, ...] = ()

    @property
    def feasible(self) -> bool:
        """True when no objective is provably missed by the bounds."""
        return not self.reasons


def trace_pricer(compiled: CompiledScenario) -> ServiceTimeBoundsPricer:
    """The service-time-bound pricer of a compiled scenario's trace.

    Compiles the trace's unique shapes once with the scenario's serving
    knobs; the result prices any batch of chip designs via
    :meth:`~repro.core.batch.ServiceTimeBoundsPricer.bounds`.  Both
    planner search modes derive every analytic bound through one such
    pricer per planning run.
    """
    spec = compiled.spec
    return ServiceTimeBoundsPricer(
        get_mllm(spec.fleet.model),
        list(compiled.unique_shapes),
        cc_bandwidth_fraction=spec.fleet.cc_bandwidth_fraction,
        context_bucket=spec.fleet.context_bucket,
    )


def bound_percentiles(
    pricer: ServiceTimeBoundsPricer,
    columns: np.ndarray,
    designs: Sequence[ChipDesign],
) -> Tuple[np.ndarray, np.ndarray]:
    """(p99 TTFT floors, p95 latency floors) of ``designs`` over a trace.

    ``columns`` maps every trace request to its pricer shape column (see
    :meth:`~repro.core.batch.ServiceTimeBoundsPricer.trace_columns`).
    np.percentile's default linear interpolation matches
    ``repro.serving.metrics.percentile``, so pointwise dominance of the
    per-request floors carries over to the SLO-check percentiles.
    """
    bounds = pricer.bounds([design.system() for design in designs])
    lb_ttft_p99 = np.percentile(bounds.min_ttft_s[:, columns], 99, axis=1)
    lb_latency_p95 = np.percentile(bounds.min_latency_s[:, columns], 95, axis=1)
    return lb_ttft_p99, lb_latency_p95


def design_verdict(
    design: ChipDesign,
    lb_ttft_p99: float,
    lb_latency_p95: float,
    targets: Mapping[str, float],
) -> DesignBounds:
    """Fold one ``design``'s bound percentiles into its feasibility verdict.

    ``lb_ttft_p99`` and ``lb_latency_p95`` are the design's floor
    percentiles over the trace, judged against the objectives in
    ``targets``.  Strict comparisons: a bound exactly on target never
    prunes.  Queue-wait objectives never prune — their analytic floor is
    zero.
    """
    reasons: List[str] = []
    ttft_target = targets.get("ttft_p99_s")
    latency_target = targets.get("latency_p95_s")
    if ttft_target is not None and lb_ttft_p99 > ttft_target:
        reasons.append(
            f"analytic p99 TTFT floor {lb_ttft_p99:.6g}s exceeds "
            f"target {ttft_target:.6g}s"
        )
    if latency_target is not None and lb_latency_p95 > latency_target:
        reasons.append(
            f"analytic p95 latency floor {lb_latency_p95:.6g}s "
            f"exceeds target {latency_target:.6g}s"
        )
    return DesignBounds(
        design=design,
        lb_ttft_p99_s=float(lb_ttft_p99),
        lb_latency_p95_s=float(lb_latency_p95),
        reasons=tuple(reasons),
    )


def prune_designs(
    compiled: CompiledScenario,
    designs: Sequence[ChipDesign],
    targets: Mapping[str, float],
    *,
    pricer: Optional[ServiceTimeBoundsPricer] = None,
) -> List[DesignBounds]:
    """Bound every design of ``designs`` against ``compiled``'s trace and ``targets``.

    Returns one :class:`DesignBounds` per design, in input order; see
    :func:`design_verdict` for the per-design feasibility rule.  Designs
    are priced in :data:`BOUND_CHUNK_DESIGNS`-sized batches so the broadcast
    matrices stay bounded on 10^5-design grids; ``pricer`` optionally
    reuses an already-compiled :func:`trace_pricer` (the planner shares
    one across the whole run).
    """
    if pricer is None:
        pricer = trace_pricer(compiled)
    columns = pricer.trace_columns(compiled.trace)
    verdicts: List[DesignBounds] = []
    for start in range(0, len(designs), BOUND_CHUNK_DESIGNS):
        chunk = designs[start : start + BOUND_CHUNK_DESIGNS]
        lb_ttft_p99, lb_latency_p95 = bound_percentiles(pricer, columns, chunk)
        verdicts.extend(
            design_verdict(design, lb_ttft_p99[row], lb_latency_p95[row], targets)
            for row, design in enumerate(chunk)
        )
    return verdicts
