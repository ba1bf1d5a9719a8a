"""Branch-and-bound design pruning over nested subgrids of the chip axes.

The flat planner (:func:`repro.planner.prune.prune_designs`) prices the
analytic service-time floor of *every* chip design in the candidate space
— linear in the grid size, and the dominant cost once the space reaches
10^5 candidates.  This module prunes whole *subgrids* instead, using the
monotonicity of the analytic bounds along each chip axis:

* more groups never slow a chip down (``n_groups`` ↑ ⇒ bounds ↓),
* a faster DRAM tier never slows a chip down (``dram_gbps`` ↑ ⇒ bounds ↓),
* keeping fewer FFN channels never slows a chip down
  (``keep_fraction`` ↓ ⇒ bounds ↓),

while the CC:MC cluster *mix* is deliberately non-monotone (the paper's
central trade-off) and is enumerated, never bounded.  A subgrid's
best-case design is therefore its **corner** — maximum groups, maximum
DRAM tier, minimum keep fraction — and the corner's bound percentile is a
lower bound on every member's: if the corner already misses an SLO
objective, the whole subgrid (and every fleet option built on any of its
designs, because the bounds hold for fleets of any size and policy) is
provably infeasible after pricing *one* design.

The search keeps a worklist of subgrids, prices all pending corners of one
tree level in a single vectorized
:meth:`~repro.core.batch.ServiceTimeBoundsPricer.bounds` pass ("wave"),
prunes boxes whose corner misses, and splits the survivors along their
longest axis.  Boxes that narrow to a single design are priced exactly as
the flat path would price them, so the surviving design set — and with it
the simulated candidates, the Pareto frontier and the best plan — is
*identical* to flat search (property-tested in
``tests/planner/test_bnb.py``).  Corner bounds are cached by axis value,
so a child whose corner coincides with its parent's re-uses the parent's
evaluation.

Fleet options sit innermost and never enter the tree: analytic bounds are
fleet-independent, so pruning a design retires all its fleet options at
once, and enumerating options is deferred until a design survives.

Soundness of the corner rule (corner bound ≤ every member's bound, per
request shape) is asserted by the hypothesis suite over randomized
subgrids; the monotonicity argument per axis is documented in
``docs/capacity_planning.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.batch import ServiceTimeBoundsPricer
from ..scenarios.compile import CompiledScenario
from .prune import (
    BOUND_CHUNK_DESIGNS,
    DesignBounds,
    bound_percentiles,
    design_verdict,
    trace_pricer,
)
from .space import BASE_DRAM_GBPS, ChipDesign

#: A corner's cache identity: (mix, n_groups, dram GB/s, keep fraction).
CornerKey = Tuple[Tuple[int, int], int, float, float]

#: A design's value along every candidate axis (mix, groups, DRAM GB/s,
#: keep fraction), built by :func:`axis_tuple` — a tuple, allocation-light,
#: since the search touches every design of a 10^5-point grid once while
#: boxing it.
AxisTuple = Tuple[Tuple[int, int], int, float, float]

#: Position of each splittable axis inside an :data:`AxisTuple`.
_AXIS_SLOT = {"n_groups": 1, "dram_gbps": 2, "keep_fraction": 3}


def axis_tuple(design: ChipDesign) -> AxisTuple:
    """``design``'s (mix, groups, dram, keep) values (defaults resolved).

    Unset optional axes resolve to their effective default (the base DRAM
    tier, keep fraction 1.0), so designs that state the default
    explicitly compare equal along the axis.
    """
    return (
        (design.cc_per_group, design.mc_per_group),
        design.n_groups,
        BASE_DRAM_GBPS if design.dram_gbps is None else design.dram_gbps,
        1.0 if design.keep_fraction is None else design.keep_fraction,
    )


@dataclass(frozen=True)
class Subgrid:
    """One box of the nested-grid search: axis value ranges plus members.

    ``groups`` / ``dram`` / ``keep`` are the sorted unique axis values the
    box spans; ``members`` indexes the planning run's design list.  The
    mix axis is fixed per box (enumerated at the root, never split).
    Boxes over ragged grids are supported: members are tracked explicitly,
    so a box may cover axis-value combinations no design occupies.
    """

    mix: Tuple[int, int]
    groups: Tuple[int, ...]
    dram: Tuple[float, ...]
    keep: Tuple[float, ...]
    members: Tuple[int, ...]

    @property
    def n_designs(self) -> int:
        """Number of candidate designs inside the box."""
        return len(self.members)

    @property
    def is_pointlike(self) -> bool:
        """True when every axis is a single value (no further splits)."""
        return len(self.groups) == 1 and len(self.dram) == 1 and len(self.keep) == 1

    def corner_key(self) -> CornerKey:
        """The best-case corner's axis values (cache identity)."""
        return (self.mix, max(self.groups), max(self.dram), min(self.keep))

    def corner_design(self) -> ChipDesign:
        """The best-case member of the box: fastest value on every axis.

        Synthesized from axis values, so it is a valid probe even when the
        grid is ragged and no member occupies the corner — monotonicity
        makes its bound a floor for the box either way.
        """
        return ChipDesign(
            n_groups=max(self.groups),
            cc_per_group=self.mix[0],
            mc_per_group=self.mix[1],
            dram_gbps=max(self.dram),
            keep_fraction=min(self.keep),
        )

    def split(self, axes_of: Sequence[AxisTuple]) -> List["Subgrid"]:
        """Halve the longest axis and partition the members.

        ``axes_of`` maps design index -> :data:`AxisTuple`.  Children
        without members are dropped, so ragged grids narrow quickly.
        Geometry splits first on ties — the outermost axis of the nesting.
        """
        sizes = {
            "n_groups": len(self.groups),
            "dram_gbps": len(self.dram),
            "keep_fraction": len(self.keep),
        }
        axis = max(sizes, key=lambda name: (sizes[name], name == "n_groups"))
        values = {
            "n_groups": self.groups,
            "dram_gbps": self.dram,
            "keep_fraction": self.keep,
        }[axis]
        if len(values) < 2:
            raise ValueError("cannot split a point-like subgrid")
        slot = _AXIS_SLOT[axis]
        mid = len(values) // 2
        halves = (values[:mid], values[mid:])
        children: List[Subgrid] = []
        for half in halves:
            allowed = set(half)
            members = tuple(
                index for index in self.members if axes_of[index][slot] in allowed
            )
            if not members:
                continue
            children.append(
                Subgrid(
                    mix=self.mix,
                    groups=half if axis == "n_groups" else self.groups,
                    dram=half if axis == "dram_gbps" else self.dram,
                    keep=half if axis == "keep_fraction" else self.keep,
                    members=members,
                )
            )
        return children


@dataclass(frozen=True)
class BnbResult:
    """Outcome of one branch-and-bound pruning pass.

    ``verdicts`` holds individually-priced designs only (boxes that
    narrowed to one point), in design-list order — unlike flat search,
    designs retired inside a pruned subgrid never receive per-design
    bounds, which is exactly where the speedup comes from.
    """

    verdicts: Tuple[DesignBounds, ...]
    survivors: Tuple[ChipDesign, ...]
    n_pruned_designs: int
    n_pruned_subgrids: int
    n_bound_evals: int


def initial_subgrids(
    designs: Sequence[ChipDesign],
    axes_of: Optional[Sequence[AxisTuple]] = None,
) -> List[Subgrid]:
    """One root box per CC:MC mix, spanning the mix's full axis ranges.

    ``designs`` is the planning run's design list; ``axes_of`` optionally
    supplies the precomputed :data:`AxisTuple` per design (derived from
    ``designs`` when omitted).
    """
    if axes_of is None:
        axes_of = [axis_tuple(design) for design in designs]
    by_mix: Dict[Tuple[int, int], List[int]] = {}
    for index, axes in enumerate(axes_of):
        by_mix.setdefault(axes[0], []).append(index)
    boxes: List[Subgrid] = []
    for mix in sorted(by_mix):
        members = by_mix[mix]
        boxes.append(
            Subgrid(
                mix=mix,
                groups=tuple(sorted({axes_of[i][1] for i in members})),
                dram=tuple(sorted({axes_of[i][2] for i in members})),
                keep=tuple(sorted({axes_of[i][3] for i in members})),
                members=tuple(members),
            )
        )
    return boxes


def _corner_misses(
    lb_ttft_p99: float, lb_latency_p95: float, targets: Mapping[str, float]
) -> bool:
    """True when the corner's bound percentiles already miss an objective."""
    ttft_target = targets.get("ttft_p99_s")
    if ttft_target is not None and lb_ttft_p99 > ttft_target:
        return True
    latency_target = targets.get("latency_p95_s")
    return latency_target is not None and lb_latency_p95 > latency_target


def bnb_prune_designs(
    compiled: CompiledScenario,
    designs: Sequence[ChipDesign],
    targets: Mapping[str, float],
    *,
    pricer: Optional[ServiceTimeBoundsPricer] = None,
) -> BnbResult:
    """Branch-and-bound the design grid down to the flat survivor set.

    ``compiled`` is the scenario the ``designs`` are judged on (its trace
    prices the bounds), ``targets`` the SLO objectives, and ``pricer`` an
    optional pre-built :class:`ServiceTimeBoundsPricer` to reuse across
    calls (built from ``compiled`` when omitted).

    Returns the same surviving designs (and, for each individually-priced
    design, the same :class:`DesignBounds` floats) that
    :func:`~repro.planner.prune.prune_designs` would return, pricing only
    subgrid corners plus point-like leaves.  With no prunable objective in
    ``targets`` the search degenerates to pricing every design — flat
    search with extra bookkeeping — so callers should prefer flat search
    for unconstrained plans.
    """
    if pricer is None:
        pricer = trace_pricer(compiled)
    columns = pricer.trace_columns(compiled.trace)
    axes_of = [axis_tuple(design) for design in designs]

    boxes = initial_subgrids(designs, axes_of)
    bound_cache: Dict[CornerKey, Tuple[float, float]] = {}
    verdicts: Dict[int, DesignBounds] = {}
    n_pruned_subgrids = 0
    n_bound_evals = 0

    while boxes:
        # One wave: price every uncached corner of the current level in a
        # single vectorized pass (chunked only to bound matrix memory).
        pending: Dict[CornerKey, ChipDesign] = {}
        for box in boxes:
            key = box.corner_key()
            if key not in bound_cache and key not in pending:
                # Point-like boxes price their actual member (identical
                # axis values, and the verdict must carry the member).
                if box.is_pointlike and box.members:
                    pending[key] = designs[box.members[0]]
                else:
                    pending[key] = box.corner_design()
        if pending:
            keys = list(pending)
            probes = [pending[key] for key in keys]
            for start in range(0, len(probes), BOUND_CHUNK_DESIGNS):
                chunk_keys = keys[start : start + BOUND_CHUNK_DESIGNS]
                chunk = probes[start : start + BOUND_CHUNK_DESIGNS]
                lb_ttft, lb_latency = bound_percentiles(pricer, columns, chunk)
                for row, key in enumerate(chunk_keys):
                    bound_cache[key] = (
                        float(lb_ttft[row]),
                        float(lb_latency[row]),
                    )
            n_bound_evals += len(probes)

        next_boxes: List[Subgrid] = []
        for box in boxes:
            lb_ttft_p99, lb_latency_p95 = bound_cache[box.corner_key()]
            if box.is_pointlike:
                # The corner IS the design: its bound is exact per-design
                # pricing, so the verdict matches flat search bit for bit.
                for index in box.members:
                    verdicts[index] = design_verdict(
                        designs[index], lb_ttft_p99, lb_latency_p95, targets
                    )
                continue
            if _corner_misses(lb_ttft_p99, lb_latency_p95, targets):
                # The whole subgrid is provably infeasible: every member's
                # floor dominates the corner's, which already misses.
                n_pruned_subgrids += 1
                continue
            next_boxes.extend(box.split(axes_of))
        boxes = next_boxes

    ordered = tuple(verdicts[index] for index in sorted(verdicts))
    survivors = tuple(
        verdict.design for verdict in ordered if verdict.feasible
    )
    return BnbResult(
        verdicts=ordered,
        survivors=survivors,
        n_pruned_designs=len(designs) - len(survivors),
        n_pruned_subgrids=n_pruned_subgrids,
        n_bound_evals=n_bound_evals,
    )
