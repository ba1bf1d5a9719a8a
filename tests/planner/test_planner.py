"""End-to-end planner behaviour: soundness, optimality, determinism.

The load-bearing property is *pruning soundness*: the analytic bound pass
may only reject chip designs that exact simulation would also reject, for
every fleet option.  It is proven here by brute force on randomized small
candidate spaces — every candidate of every example is exactly simulated
and each SLO-meeting one is checked to use an un-pruned design — along
with the corollary that the planner's best plan equals brute-force search's.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.batch import SEED_CHUNK_DESIGNS
from repro.core.simulator import PerformanceSimulator
from repro.models.mllm import get_mllm
from repro.planner import (
    ChipDesign,
    PlanEntry,
    PlannerConfig,
    evaluate_candidate,
    pareto_frontier,
    plan_scenario,
    prune_designs,
    resolve_slo,
)
from repro.planner.prune import trace_pricer
from repro.scenarios import (
    ArrivalSpec,
    FleetSpec,
    ScenarioSpec,
    SLOSpec,
    WorkloadComponent,
    get_scenario,
)
from repro.scenarios.compile import compile_scenario
from repro.serving import BatchDecodeCostModel, FleetSimulator

DESIGN_POOL = (
    ChipDesign(1, 1, 1),
    ChipDesign(1, 2, 2),
    ChipDesign(2, 1, 1),
    ChipDesign(1, 1, 3),
    ChipDesign(1, 3, 1),
)

small_spaces = st.fixed_dictionaries(
    {
        "designs": st.sets(
            st.sampled_from(DESIGN_POOL), min_size=2, max_size=3
        ),
        "rate_rps": st.sampled_from((2.0, 8.0)),
        "ttft_target": st.sampled_from((0.05, 0.2, 0.8, 3.0)),
        "latency_target": st.sampled_from((None, 0.3, 2.0)),
        "seed_salt": st.integers(min_value=0, max_value=3),
    }
)


def _small_scenario(rate_rps, ttft_target, latency_target, seed_salt):
    return ScenarioSpec(
        name="planner-prop",
        n_requests=10,
        mix=(
            WorkloadComponent(
                name="chat",
                images=0,
                prompt_token_range=(8, 48),
                output_token_choices=(4, 8),
                output_token_weights=(0.5, 0.5),
            ),
            WorkloadComponent(
                name="image",
                images=1,
                prompt_token_range=(8, 16),
                output_token_choices=(4,),
                output_token_weights=(1.0,),
            ),
        ),
        arrival=ArrivalSpec(kind="poisson", rate_rps=rate_rps),
        fleet=FleetSpec(n_chips=1, max_batch_size=4, context_bucket=32),
        slo=SLOSpec(ttft_p99_s=ttft_target, latency_p95_s=latency_target),
        seed_salt=seed_salt,
    )


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(small_spaces)
def test_pruning_is_sound_and_best_matches_brute_force(space):
    spec = _small_scenario(
        space["rate_rps"],
        space["ttft_target"],
        space["latency_target"],
        space["seed_salt"],
    )
    config = PlannerConfig(
        chip_grid=tuple(sorted(space["designs"], key=lambda d: d.name)),
        min_chips=1,
        max_chips=2,
    )
    targets = spec.slo.targets()
    compiled = compile_scenario(spec)
    options = config.fleet_options(with_autoscaled="ttft_p99_s" in targets)

    # Brute force: exactly simulate EVERY candidate of the space.
    simulators = {
        design.name: PerformanceSimulator(design.system())
        for design in config.chip_grid
    }
    brute_entries = [
        PlanEntry.from_outcome(
            evaluate_candidate(
                spec,
                compiled.trace,
                design,
                option,
                targets,
                simulator=simulators[design.name],
            ),
            targets,
        )
        for design in config.chip_grid
        for option in options
    ]
    accepted_designs = {
        entry.design.name for entry in brute_entries if entry.slo_met
    }

    verdicts = prune_designs(compiled, config.chip_grid, targets)
    pruned_designs = {v.design.name for v in verdicts if not v.feasible}

    # Soundness: no design hosting an SLO-meeting candidate is ever pruned.
    assert not (accepted_designs & pruned_designs)

    # Optimality corollary: the planner finds exactly brute force's best.
    report = plan_scenario(spec, config)
    brute_met = [entry for entry in brute_entries if entry.slo_met]
    if not brute_met:
        assert report.best is None
    else:
        brute_best = min(
            brute_met,
            key=lambda entry: (
                entry.chips_provisioned,
                entry.fleet_area_mm2,
                entry.fleet_power_w,
                entry.design.name,
                entry.fleet.label,
            ),
        )
        assert report.best == brute_best


@pytest.fixture(scope="module")
def small_plan():
    spec = _small_scenario(4.0, 0.8, None, 0)
    config = PlannerConfig(chip_grid=DESIGN_POOL[:3], min_chips=1, max_chips=2)
    return plan_scenario(spec, config)


def test_no_frontier_entry_is_dominated(small_plan):
    frontier = list(small_plan.frontier)
    assert frontier == pareto_frontier(frontier, PlanEntry.objectives)


def test_best_plan_is_on_the_frontier_and_meets_every_slo(small_plan):
    if small_plan.best is None:
        pytest.skip("space infeasible for this configuration")
    assert small_plan.best in small_plan.frontier
    assert small_plan.best.slo_met
    assert small_plan.best.n_completed == small_plan.n_requests


def test_best_plan_verdict_reproduces_under_fresh_exact_simulation(small_plan):
    """Re-simulate the chosen plan from scratch: it must still meet the SLO."""
    spec = _small_scenario(4.0, 0.8, None, 0)
    targets = dict(small_plan.slo_targets)
    compiled = compile_scenario(spec)
    fresh = PlanEntry.from_outcome(
        evaluate_candidate(
            spec, compiled.trace, small_plan.best.design,
            small_plan.best.fleet, targets,
        ),
        targets,
    )
    assert fresh == small_plan.best


def test_planning_is_deterministic(small_plan):
    spec = _small_scenario(4.0, 0.8, None, 0)
    config = PlannerConfig(chip_grid=DESIGN_POOL[:3], min_chips=1, max_chips=2)
    assert plan_scenario(spec, config).to_json() == small_plan.to_json()


def test_parallel_path_is_identical_to_serial(small_plan):
    spec = _small_scenario(4.0, 0.8, None, 0)
    config = PlannerConfig(chip_grid=DESIGN_POOL[:3], min_chips=1, max_chips=2)
    parallel = plan_scenario(spec, config, processes=2)
    assert parallel.to_json() == small_plan.to_json()


def test_process_count_below_one_is_rejected():
    # Checked up front: a serial run never reaches the pool's own check.
    with pytest.raises(ValueError, match="processes must be >= 1"):
        plan_scenario(get_scenario("chat-poisson"), processes=0)


def test_slo_overrides_change_targets_but_not_the_trace():
    spec = get_scenario("chat-poisson")
    relaxed = resolve_slo(spec, ttft_p99_s=60.0)
    assert relaxed.ttft_p99_s == 60.0
    assert relaxed.latency_p95_s == spec.slo.latency_p95_s
    assert compile_scenario(spec).trace  # original spec still compiles

    config = PlannerConfig(chip_grid=DESIGN_POOL[:2], min_chips=1, max_chips=1)
    strict = plan_scenario(spec, config, slo=resolve_slo(spec, ttft_p99_s=1e-6))
    assert strict.best is None
    assert strict.n_pruned_designs == strict.n_chip_designs
    assert strict.n_simulated == 0


def test_queue_wait_objectives_never_prune():
    spec = _small_scenario(4.0, 0.8, None, 0)
    compiled = compile_scenario(spec)
    verdicts = prune_designs(
        compiled, DESIGN_POOL[:2], {"queue_wait_p99_s": 1e-9}
    )
    assert all(verdict.feasible for verdict in verdicts)


def test_planner_prices_no_decode_bucket_through_the_scalar_path(monkeypatch):
    """Pruned plans seed every survivor from the bound pass's pricer.

    With the scalar bucket pricer patched to raise, both search modes
    still complete: every fleet starts with every reachable decode bucket
    seeded.  The pricer's seeds are exactly what a cold, lazily-priced
    fleet of the same design harvests.
    """
    spec = replace(
        _small_scenario(4.0, 30.0, None, 0),
        mix=(
            WorkloadComponent(
                name="long",
                images=1,
                prompt_token_range=(8, 48),
                output_token_choices=(24, 72),
                output_token_weights=(0.5, 0.5),
            ),
        ),
    )
    config = PlannerConfig.from_axes(
        groups=(1,),
        mixes=((1, 1),),
        dram_gbps=(51.2, 204.8),
        keep_fractions=(0.4, 0.7, 1.0),
        min_chips=1,
        max_chips=2,
    )

    def refuse(self, bucket):
        raise AssertionError(f"bucket {bucket} priced through the scalar path")

    with monkeypatch.context() as patch:
        patch.setattr(BatchDecodeCostModel, "_cost", refuse)
        reports = [plan_scenario(spec, config, search=s) for s in ("bnb", "flat")]
    assert all(report.n_simulated == report.n_candidates for report in reports)
    assert reports[0].frontier == reports[1].frontier

    compiled = compile_scenario(spec)
    design = config.chip_grid[0]
    assert design.keep_fraction == 0.4
    fleet = FleetSimulator(
        get_mllm(spec.fleet.model),
        n_chips=2,
        simulator=PerformanceSimulator(design.system()),
    )
    with monkeypatch.context() as patch:
        # The lazy reference: every cost priced by the scalar path.
        patch.setattr(FleetSimulator, "precompute_service_times", lambda *args: None)
        fleet.run(list(compiled.trace))
    cc_latencies, bucket_costs = {}, {}
    for chip in fleet.chips:
        cc_latencies.update(chip.costs.cc_latencies())
        bucket_costs.update(chip.cost_model.bucket_costs())
    pricer = trace_pricer(compiled)
    assert pricer.seeds([design.system()]) == [(cc_latencies, bucket_costs)]
    # Past one seeding pass, every design still gets its own memos.
    designs = list(config.chip_grid) * 3
    assert len(designs) > SEED_CHUNK_DESIGNS
    assert pricer.seeds([d.system() for d in designs]) == [
        pricer.seeds([d.system()])[0] for d in designs
    ]
