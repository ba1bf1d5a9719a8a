"""Benchmark the capacity planner against brute-force exact search.

The acceptance criterion of the planner subsystem: on a ~200-point
candidate space (chip designs × fleet sizes), analytic lower-bound pruning
plus exact simulation of the surviving frontier must beat exhaustively
simulating every candidate by >= 10x wall-clock, while returning the same
best plan.

The space crosses 35 chip designs (group counts × CC:MC mixes) with 6
static fleet sizes — 210 candidates.  The TTFT objective is placed between
the analytic floors of the design family's two fastest *tiers*, so the
bound pass retires every design outside the fastest tier without
simulating it; brute force (``prune=False``) must grind through all 210
exact fleet simulations.  On both paths every fleet of a design runs
on one shared simulator and reads its one serving-cost memo.  The pruned
side reuses its bound pass's prices for its survivors: one more call of
the same pricer seeds their memos, so no survivor is priced again.
Brute force runs no bound pass, so each design's first fleet prices its
own costs in its own grid pass.  The measured gap is
the pruning win plus that reuse of the bound pass's tables, not a
caching artefact.

The gate times each side as the median of :data:`N_TIMED_RUNS` runs,
alternating the two sides so both sample the same stretch of host speed:
the pruned plan takes only ~50 ms, so one host-speed swing in a single
read could otherwise decide the ratio.

Feeds ``BENCH_results.json`` (via ``benchmarks/run.py``) with both sides'
wall-clock under the ``planner_*`` scenarios.
"""

import statistics
import time

import numpy as np

from repro.core.batch import batch_service_time_bounds
from repro.models.mllm import get_mllm
from repro.planner import ChipDesign, PlannerConfig, plan_scenario
from repro.scenarios import ArrivalSpec, FleetSpec, ScenarioSpec, SLOSpec, WorkloadComponent
from repro.scenarios.compile import compile_scenario

N_TARGET_SPEEDUP = 10
#: Timed runs per side of the gate; each side reads as their median.
N_TIMED_RUNS = 3


def bench_config() -> PlannerConfig:
    """The ~200-candidate space: 35 chip designs × 6 static fleet sizes."""
    grid = tuple(
        ChipDesign(n_groups=n_groups, cc_per_group=cc, mc_per_group=mc)
        for n_groups in (1, 2, 3, 4, 6)
        for cc, mc in ((1, 1), (2, 2), (3, 1), (1, 3), (2, 1), (1, 2), (3, 2))
    )
    return PlannerConfig(
        chip_grid=grid, min_chips=1, max_chips=6, include_autoscaled=False
    )


def bench_scenario(ttft_target: float = 1.0) -> ScenarioSpec:
    """A small mixed-traffic scenario (the SLO target is parameterized).

    Arrivals replay a sparse trace (one request per 2 s), so a fleet that
    keeps up serves every request queue-free and its exact p99 TTFT sits on
    the analytic floor — which lets the benchmark place the SLO target
    *between* design tiers and know exactly which designs meet it.
    """
    return ScenarioSpec(
        name="planner-bench",
        description="planner benchmark space",
        n_requests=48,
        mix=(
            WorkloadComponent(
                name="chat",
                images=0,
                prompt_token_range=(16, 160),
                output_token_choices=(32, 64, 128),
                output_token_weights=(0.5, 0.3, 0.2),
            ),
            WorkloadComponent(
                name="image",
                images=1,
                prompt_token_range=(8, 64),
                output_token_choices=(32, 64),
                output_token_weights=(0.6, 0.4),
            ),
        ),
        arrival=ArrivalSpec(
            kind="trace", times=tuple(round(i * 2.0, 6) for i in range(48))
        ),
        fleet=FleetSpec(n_chips=1, max_batch_size=8),
        slo=SLOSpec(ttft_p99_s=ttft_target),
    )


def discriminating_ttft_target(config: PlannerConfig) -> float:
    """A TTFT objective only the fastest design tier can reach.

    Placed halfway between the smallest and second-smallest *distinct*
    per-design p99 TTFT floors: pruning provably retires every slower
    tier, and the fastest tier (queue-free on the sparse trace) meets the
    target exactly.
    """
    spec = bench_scenario()
    compiled = compile_scenario(spec)
    bounds = batch_service_time_bounds(
        get_mllm(spec.fleet.model),
        list(compiled.unique_shapes),
        [design.system() for design in config.chip_grid],
        cc_bandwidth_fraction=spec.fleet.cc_bandwidth_fraction,
        context_bucket=spec.fleet.context_bucket,
    )
    columns = [bounds.shape_index(r.request) for r in compiled.trace]
    tiers = np.unique(np.percentile(bounds.min_ttft_s[:, columns], 99, axis=1))
    return float((tiers[0] + tiers[1]) / 2)


def run_planner() -> dict:
    """Time the pruning planner on the benchmark space."""
    config = bench_config()
    spec = bench_scenario(discriminating_ttft_target(config))
    start = time.perf_counter()
    report = plan_scenario(spec, config)
    seconds = time.perf_counter() - start
    return {
        "candidates": report.n_candidates,
        "pruned": report.n_pruned_candidates,
        "simulated": report.n_simulated,
        "planner_seconds": seconds,
    }


def median_seconds(*plans):
    """Each of ``plans``' median wall-clock over :data:`N_TIMED_RUNS` alternating rounds.

    Returns one ``(seconds, last report)`` pair per plan, in order.
    """
    seconds = [[] for _ in plans]
    reports = [None] * len(plans)
    for _ in range(N_TIMED_RUNS):
        for index, plan in enumerate(plans):
            start = time.perf_counter()
            reports[index] = plan()
            seconds[index].append(time.perf_counter() - start)
    return [(statistics.median(times), report) for times, report in zip(seconds, reports)]


def test_bench_planner_10x_over_brute_force():
    config = bench_config()
    spec = bench_scenario(discriminating_ttft_target(config))

    # Untimed warm-up: pay the process-wide one-time costs (imports, numpy
    # dispatch, model catalogue) outside the timed region so neither side
    # inherits them — the comparison is pruning vs no pruning, nothing else.
    plan_scenario(spec, config)

    (planner_seconds, planned), (brute_seconds, brute) = median_seconds(
        lambda: plan_scenario(spec, config),
        lambda: plan_scenario(spec, config, prune=False),
    )

    assert planned.n_candidates >= 200
    assert brute.n_simulated == brute.n_candidates
    assert planned.n_simulated < planned.n_candidates / 4
    # Same verdict: pruning must not move the chosen plan.
    assert planned.best == brute.best
    assert planned.best is not None

    speedup = brute_seconds / planner_seconds
    print(
        f"\nplanner: {planner_seconds:.2f} s ({planned.n_simulated} simulated of "
        f"{planned.n_candidates}) | brute force: {brute_seconds:.2f} s | "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= N_TARGET_SPEEDUP, (
        f"planner speedup {speedup:.1f}x below the {N_TARGET_SPEEDUP}x target"
    )


SCENARIOS = {
    "planner_pruned_search_210": run_planner,
}
