"""The planning engine: prune analytically, simulate the survivors exactly.

:func:`plan_scenario` is the planner's one entry point.  Given a scenario
spec (traffic, serving knobs, SLOs) and a :class:`~repro.planner.space.
PlannerConfig` (chip designs × fleet options), it

1. compiles the scenario once — the trace is identical for every
   candidate, because candidates replace the *fleet*, never the traffic;
2. floors every chip design's achievable TTFT/latency percentiles with one
   array pass (:mod:`repro.planner.prune`) and drops designs that provably
   miss an objective, together with all their fleet options;
3. exactly simulates every surviving candidate through the event-driven
   serving engines: serially, on one performance simulator per chip
   design, or through the process pool
   (:func:`~repro.experiments.parallel.parallel_map`), one fresh
   simulator per candidate;
4. returns the Pareto frontier over (SLO attainment, chip count, fleet
   area, fleet power) plus the cheapest fully-SLO-meeting plan, wrapped in
   a deterministic, canonically-JSON :class:`~repro.planner.report.
   PlanReport`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..core.batch import ServiceTimeBoundsPricer
from ..core.simulator import PerformanceSimulator
from ..models.mllm import get_mllm
from ..scenarios.compile import compile_scenario
from ..scenarios.spec import ScenarioSpec, SLOSpec
from ..serving.queue import ChipCosts
from .bnb import bnb_prune_designs
from .evaluate import (
    CandidateOutcome,
    candidate_survives_chip_loss,
    evaluate_candidate,
    simulate_candidate,
)
from .pareto import pareto_frontier
from .prune import DesignBounds, prune_designs, trace_pricer
from .report import PlanEntry, PlanReport, plan_hash
from .space import ChipDesign, FleetOption, PlannerConfig
from .store import PlanStore, candidate_key

T = TypeVar("T")

#: Search modes :func:`plan_scenario` accepts: ``"flat"`` bounds every
#: design individually (the oracle), ``"bnb"`` branch-and-bounds subgrids.
SEARCH_MODES: Tuple[str, ...] = ("flat", "bnb")

#: Scenarios with committed golden plan reports under
#: ``tests/golden/planner/`` (kept small: planning simulates dozens of
#: fleets per scenario).  The CLI's ``write-golden``, the golden-plan
#: regression suite and the ``planner`` experiment all read this tuple.
GOLDEN_PLAN_SCENARIOS: Tuple[str, ...] = (
    "chat-poisson",
    "trace-spike",
    "video-stream",
)


def resolve_slo(
    spec: ScenarioSpec,
    *,
    ttft_p99_s: Optional[float] = None,
    latency_p95_s: Optional[float] = None,
    queue_wait_p99_s: Optional[float] = None,
) -> SLOSpec:
    """``spec``'s SLOs with per-metric overrides applied.

    Explicit ``ttft_p99_s`` / ``latency_p95_s`` / ``queue_wait_p99_s``
    values win over the spec's stated objectives; ``None`` keeps the
    spec's value.  Overrides change the *judging* targets only — the
    compiled trace stays the original scenario's.
    """
    base = spec.slo
    return SLOSpec(
        ttft_p99_s=ttft_p99_s if ttft_p99_s is not None else base.ttft_p99_s,
        latency_p95_s=(
            latency_p95_s if latency_p95_s is not None else base.latency_p95_s
        ),
        queue_wait_p99_s=(
            queue_wait_p99_s
            if queue_wait_p99_s is not None
            else base.queue_wait_p99_s
        ),
    )


def _best_entry(
    entries: Sequence[PlanEntry], *, require_chip_loss: bool = False
) -> Optional[PlanEntry]:
    """The cheapest plan meeting every objective (deterministic tiebreak).

    With ``require_chip_loss`` only entries whose chaos probe confirmed
    one-chip-loss survival qualify.
    """
    meeting = [entry for entry in entries if entry.slo_met]
    if require_chip_loss:
        meeting = [entry for entry in meeting if entry.survives_chip_loss]
    if not meeting:
        return None
    return min(
        meeting,
        key=lambda entry: (
            entry.chips_provisioned,
            entry.fleet_area_mm2,
            entry.fleet_power_w,
            entry.design.name,
            entry.fleet.label,
        ),
    )


def _by_design(
    spec: ScenarioSpec,
    candidates: Sequence[Tuple[ChipDesign, FleetOption]],
    pricer: Optional[ServiceTimeBoundsPricer],
    run: Callable[[ChipDesign, FleetOption, PerformanceSimulator], T],
) -> List[T]:
    """``run`` each candidate serially, on one performance simulator per design.

    Candidates sharing a chip design share one performance simulator and
    with it one serving-cost memo (the memoized values are design
    properties).  The bound pass's ``pricer`` seeds every design's memo
    from one ``seeds`` call; without one (brute force), each design's
    first fleet prices the trace's costs in its own precompute grid pass.
    A design's simulator is released after its last candidate, so memos
    do not pile up across the space.  Every memoized value is a
    deterministic function of the design, so shared runs are
    bit-identical to cold ones (regression-tested) — just faster.  The
    serial candidate simulations and the chip-loss probes both run here.
    """
    simulators: Dict[str, PerformanceSimulator] = {}
    if pricer is not None:
        designs = {design.name: design for design, _ in candidates}
        systems = [design.system() for design in designs.values()]
        model = get_mllm(spec.fleet.model)
        for name, system, seeds in zip(designs, systems, pricer.seeds(systems)):
            simulators[name] = PerformanceSimulator(system)
            ChipCosts.of(
                simulators[name],
                model,
                cc_bandwidth_fraction=spec.fleet.cc_bandwidth_fraction,
                context_bucket=spec.fleet.context_bucket,
            ).seed(*seeds)
    last = {design.name: at for at, (design, _) in enumerate(candidates)}
    results: List[T] = []
    for at, (design, option) in enumerate(candidates):
        if design.name not in simulators:
            simulators[design.name] = PerformanceSimulator(design.system())
        results.append(run(design, option, simulators[design.name]))
        if last[design.name] == at:
            # A memo and its simulator reference each other: emptying the
            # memo dict frees both now instead of at a later collection.
            simulators.pop(design.name).derived.clear()
    return results


def plan_scenario(
    spec: ScenarioSpec,
    config: Optional[PlannerConfig] = None,
    *,
    slo: Optional[SLOSpec] = None,
    prune: bool = True,
    processes: Optional[int] = None,
    search: str = "flat",
    store: Optional[PlanStore] = None,
    require_chip_loss: bool = False,
) -> PlanReport:
    """Search ``config``'s candidate space for the cheapest SLO-meeting fleet.

    ``spec`` is the scenario planned for; ``slo`` overrides its stated objectives (see
    :func:`resolve_slo`); ``prune=False`` skips the analytic bound pass and
    exactly simulates the whole space (the brute-force baseline the
    benchmark and the soundness suite compare against); ``processes`` (at
    least 1) fans candidate simulations out through
    :func:`~repro.experiments.parallel.parallel_map` — results are
    identical to the serial path because every worker derives the
    bit-identical trace from the spec hash.  Survivors replay on the
    wave engine (plans are engine-independent).

    ``search`` picks the pruning strategy: ``"flat"`` bounds every design
    individually, ``"bnb"`` branch-and-bounds nested subgrids and prices
    only corners plus surviving points (same survivors, frontier and best
    plan — orders of magnitude fewer bound evaluations on 10^5-candidate
    spaces).  ``store`` attaches a content-addressed
    :class:`~repro.planner.store.PlanStore`: candidates whose exact
    outcome is already stored skip simulation entirely (byte-identical by
    construction), and freshly simulated outcomes are written back.

    ``require_chip_loss`` additionally chaos-probes every SLO-meeting
    candidate (one chip permanently lost a quarter into the trace, see
    :func:`~repro.planner.evaluate.candidate_survives_chip_loss`) and
    restricts the best plan to candidates that survive; entries then
    carry their ``survives_chip_loss`` verdict.  The probes run in this
    process, on one simulator per design like the serial simulations.
    Default off — the fault-free search and its goldens are unchanged.
    """
    if search not in SEARCH_MODES:
        raise ValueError(f"unknown search mode {search!r}; expected {SEARCH_MODES}")
    if processes is not None and processes < 1:
        raise ValueError("processes must be >= 1")
    if search == "bnb" and not prune:
        raise ValueError(
            "bnb search *is* the pruning strategy; use search='flat' with "
            "prune=False for the brute-force baseline"
        )
    config = config or PlannerConfig()
    resolved = slo if slo is not None else spec.slo
    targets = resolved.targets()
    compiled = compile_scenario(spec)
    designs: Tuple[ChipDesign, ...] = config.chip_grid

    options = config.fleet_options(with_autoscaled="ttft_p99_s" in targets)
    n_candidates = len(designs) * len(options)

    n_pruned_subgrids: Optional[int] = None
    n_bound_evals: Optional[int] = None
    pricer = trace_pricer(compiled) if prune else None
    if not prune:
        bounds: Sequence[DesignBounds] = [
            DesignBounds(design, lb_ttft_p99_s=None, lb_latency_p95_s=None)
            for design in designs
        ]
        survivors = list(designs)
    elif search == "bnb":
        result = bnb_prune_designs(compiled, designs, targets, pricer=pricer)
        bounds = result.verdicts
        survivors = list(result.survivors)
        n_pruned_subgrids = result.n_pruned_subgrids
        n_bound_evals = result.n_bound_evals
    else:
        bounds = prune_designs(compiled, designs, targets, pricer=pricer)
        survivors = [verdict.design for verdict in bounds if verdict.feasible]
    candidates: List[Tuple[ChipDesign, FleetOption]] = [
        (design, option) for design in survivors for option in options
    ]

    # Consult the plan store first: a hit is the byte-identical outcome a
    # fresh simulation would produce (simulation is a pure function of the
    # keyed inputs), so hits drop out of the simulation set entirely.
    spec_hash = spec.spec_hash()
    stored: Dict[int, CandidateOutcome] = {}
    keys: Dict[int, str] = {}
    if store is not None:
        ttft_target = targets.get("ttft_p99_s")
        for index, (design, option) in enumerate(candidates):
            key = candidate_key(
                spec_hash, design, option, ttft_target_s=ttft_target
            )
            keys[index] = key
            hit = store.get(key)
            if hit is not None:
                stored[index] = hit
    to_simulate = [
        (index, candidate)
        for index, candidate in enumerate(candidates)
        if index not in stored
    ]

    fresh: List[CandidateOutcome]
    if processes is not None and processes > 1 and len(to_simulate) > 1:
        # Imported lazily: repro.experiments registers the planner suite and
        # would recurse into this package at import time.
        from ..experiments.parallel import parallel_map

        spec_json = spec.to_json()
        fresh = parallel_map(
            simulate_candidate,
            [
                {
                    "spec_json": spec_json,
                    "design": design.to_dict(),
                    "option": option.to_dict(),
                    "targets": targets,
                }
                for _, (design, option) in to_simulate
            ],
            processes=processes,
        )
    else:
        fresh = _by_design(
            spec,
            [candidate for _, candidate in to_simulate],
            pricer,
            lambda design, option, simulator: evaluate_candidate(
                spec,
                compiled.trace,
                design,
                option,
                targets,
                simulator=simulator,
            ),
        )

    by_index = dict(stored)
    for (index, _), outcome in zip(to_simulate, fresh):
        by_index[index] = outcome
        if store is not None:
            store.put(keys[index], spec_hash, outcome)
    outcomes = [by_index[index] for index in range(len(candidates))]

    entries = [PlanEntry.from_outcome(outcome, targets) for outcome in outcomes]
    if require_chip_loss:
        # Probe only SLO-meeting entries: the survival requirement can
        # only demote plans that would otherwise qualify as best.
        meeting = [at for at, entry in enumerate(entries) if entry.slo_met]
        verdicts = _by_design(
            spec,
            [candidates[at] for at in meeting],
            pricer,
            lambda design, option, simulator: candidate_survives_chip_loss(
                spec,
                compiled.trace,
                design,
                option,
                targets,
                simulator=simulator,
            ),
        )
        for at, survives in zip(meeting, verdicts):
            entries[at] = replace(entries[at], survives_chip_loss=survives)
    frontier = tuple(pareto_frontier(entries, PlanEntry.objectives))
    best = _best_entry(entries, require_chip_loss=require_chip_loss)
    return PlanReport(
        scenario=spec.name,
        description=spec.description,
        spec_hash=spec_hash,
        plan_hash=plan_hash(spec_hash, config, targets),
        planner=config,
        slo_targets=dict(sorted(targets.items())),
        n_requests=spec.n_requests,
        n_chip_designs=len(designs),
        n_candidates=n_candidates,
        n_pruned_designs=len(designs) - len(survivors),
        n_pruned_candidates=n_candidates - len(candidates),
        n_simulated=len(to_simulate),
        design_bounds=tuple(bounds),
        frontier=frontier,
        best=best,
        search=search,
        n_pruned_subgrids=n_pruned_subgrids,
        n_bound_evals=n_bound_evals,
        store_hits=None if store is None else len(stored),
        store_misses=None if store is None else len(to_simulate),
        require_chip_loss=require_chip_loss,
    )
