"""Branch-and-bound search equivalence and subgrid-bound soundness.

Two contracts, property-tested on randomized small spaces:

* **bnb == flat == brute force** — branch-and-bound planning returns the
  byte-identical :class:`PlanReport` as flat search modulo the search/
  store accounting fields (bnb reports per-design bounds only for
  individually-priced designs), and both agree with exhaustive exact
  simulation on the best plan and on every frontier entry;
* **corner-bound soundness** — a subgrid corner's per-request analytic
  floors are pointwise lower bounds on every member design's floors, the
  monotonicity fact the whole-subtree prune rests on.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.simulator import PerformanceSimulator
from repro.planner import (
    ChipDesign,
    PlanEntry,
    PlannerConfig,
    bnb_prune_designs,
    evaluate_candidate,
    initial_subgrids,
    plan_scenario,
    prune_designs,
)
from repro.planner.bnb import Subgrid, axis_tuple
from repro.planner.prune import trace_pricer
from repro.scenarios import (
    ArrivalSpec,
    FleetSpec,
    ScenarioSpec,
    SLOSpec,
    WorkloadComponent,
)
from repro.scenarios.compile import compile_scenario

#: PlanReport fields that legitimately differ between search modes or with
#: a store attached; equality of everything else is the bnb == flat
#: contract.
SEARCH_ACCOUNTING_FIELDS = frozenset(
    {
        "design_bounds",
        "search",
        "n_pruned_subgrids",
        "n_bound_evals",
        "store_hits",
        "store_misses",
    }
)


def report_core(report) -> dict:
    """A report's JSON data with the search/store accounting stripped."""
    data = json.loads(report.to_json())
    return {k: v for k, v in data.items() if k not in SEARCH_ACCOUNTING_FIELDS}


def small_scenario(rate_rps, ttft_target, latency_target, seed_salt):
    return ScenarioSpec(
        name="bnb-prop",
        n_requests=10,
        mix=(
            WorkloadComponent(
                name="chat",
                images=0,
                prompt_token_range=(8, 48),
                output_token_choices=(4, 8),
                output_token_weights=(0.5, 0.5),
            ),
        ),
        arrival=ArrivalSpec(kind="poisson", rate_rps=rate_rps),
        fleet=FleetSpec(n_chips=1, max_batch_size=4, context_bucket=32),
        slo=SLOSpec(ttft_p99_s=ttft_target, latency_p95_s=latency_target),
        seed_salt=seed_salt,
    )


axis_spaces = st.fixed_dictionaries(
    {
        "groups": st.sampled_from(((1,), (1, 2), (2, 3))),
        "mixes": st.sampled_from((((1, 1),), ((1, 1), (1, 2)))),
        "dram": st.sampled_from(((None,), (51.2, 102.4), (76.8, 102.4, 204.8))),
        "keep": st.sampled_from(((None,), (0.5, 1.0), (0.6, 0.8, 1.0))),
        "rate_rps": st.sampled_from((2.0, 8.0)),
        "ttft_target": st.sampled_from((0.05, 0.2, 0.8)),
        "latency_target": st.sampled_from((None, 0.3, 2.0)),
        "seed_salt": st.integers(min_value=0, max_value=3),
    }
)


def space_config(space) -> PlannerConfig:
    return PlannerConfig.from_axes(
        groups=space["groups"],
        mixes=space["mixes"],
        dram_gbps=space["dram"],
        keep_fractions=space["keep"],
        min_chips=1,
        max_chips=1,
        include_autoscaled=False,
    )


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(axis_spaces)
def test_bnb_equals_flat_equals_brute_force(space):
    spec = small_scenario(
        space["rate_rps"],
        space["ttft_target"],
        space["latency_target"],
        space["seed_salt"],
    )
    config = space_config(space)
    targets = spec.slo.targets()
    compiled = compile_scenario(spec)
    options = config.fleet_options(with_autoscaled="ttft_p99_s" in targets)

    flat = plan_scenario(spec, config, search="flat")
    bnb = plan_scenario(spec, config, search="bnb")

    # Byte-identical reports modulo the search accounting fields.
    assert report_core(bnb) == report_core(flat)
    assert bnb.frontier == flat.frontier
    assert bnb.best == flat.best
    assert bnb.n_pruned_designs == flat.n_pruned_designs
    assert bnb.search == "bnb" and flat.search == "flat"

    # Individually-priced designs carry the identical bound floats.  (The
    # set may be empty: a root box whose corner misses prunes the whole
    # space without pricing any single design.)
    flat_verdicts = {v.design.name: v for v in flat.design_bounds}
    priced = {v.design.name for v in bnb.design_bounds}
    for verdict in bnb.design_bounds:
        assert verdict == flat_verdicts[verdict.design.name]
    # Every surviving (feasible) design was individually priced.
    for verdict in flat.design_bounds:
        if verdict.feasible:
            assert verdict.design.name in priced

    # Brute force agrees on the best plan.
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
    # Each bnb frontier entry (simulated on pricer-seeded per-design
    # simulators) equals the brute-force entry of its candidate (priced
    # by each design's first fleet).
    brute_by_candidate = {
        (entry.design.name, entry.fleet.label): entry for entry in brute_entries
    }
    for entry in bnb.frontier:
        assert entry == brute_by_candidate[(entry.design.name, entry.fleet.label)]
    brute_met = [entry for entry in brute_entries if entry.slo_met]
    if not brute_met:
        assert bnb.best is None
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
        assert bnb.best == brute_best


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(axis_spaces)
def test_subgrid_corner_bound_is_sound(space):
    """The corner's per-request floors lower-bound every member's floors."""
    spec = small_scenario(
        space["rate_rps"],
        space["ttft_target"],
        space["latency_target"],
        space["seed_salt"],
    )
    compiled = compile_scenario(spec)
    pricer = trace_pricer(compiled)
    designs = space_config(space).chip_grid
    for box in initial_subgrids(designs):
        members = [designs[i] for i in box.members]
        bounds = pricer.bounds(
            [box.corner_design().system()]
            + [member.system() for member in members]
        )
        for row in range(1, len(members) + 1):
            assert np.all(bounds.min_ttft_s[0] <= bounds.min_ttft_s[row])
            assert np.all(bounds.min_latency_s[0] <= bounds.min_latency_s[row])


def test_bnb_without_prunable_targets_prices_every_design():
    spec = small_scenario(4.0, 100.0, None, 0)
    compiled = compile_scenario(spec)
    designs = PlannerConfig.from_axes(
        groups=(1, 2), mixes=((1, 1),), keep_fractions=(0.5, 1.0)
    ).chip_grid
    result = bnb_prune_designs(compiled, designs, {"ttft_p99_s": 100.0})
    assert len(result.verdicts) == len(designs)
    assert result.survivors == tuple(designs)
    assert result.n_pruned_designs == 0
    assert result.n_pruned_subgrids == 0


def test_bnb_rejects_prune_false():
    spec = small_scenario(4.0, 0.5, None, 0)
    with pytest.raises(ValueError, match="bnb search"):
        plan_scenario(spec, PlannerConfig(), search="bnb", prune=False)
    with pytest.raises(ValueError, match="unknown search mode"):
        plan_scenario(spec, PlannerConfig(), search="greedy")


def test_subgrid_split_partitions_members():
    designs = PlannerConfig.from_axes(
        groups=(1, 2, 3),
        mixes=((1, 1),),
        dram_gbps=(51.2, 102.4),
        keep_fractions=(0.5, 1.0),
    ).chip_grid
    axes_of = [axis_tuple(design) for design in designs]
    (box,) = initial_subgrids(designs, axes_of)
    assert box.n_designs == 12 and not box.is_pointlike
    children = box.split(axes_of)
    assert len(children) == 2
    child_members = sorted(i for child in children for i in child.members)
    assert child_members == list(box.members)
    # Longest axis (groups, 3 values) splits first.
    assert {len(child.groups) for child in children} == {1, 2}


def test_subgrid_split_drops_empty_children_on_ragged_grids():
    # A ragged grid: the (2-group, 1.0-keep) combination has no design.
    designs = (
        ChipDesign(1, 1, 1, keep_fraction=0.5),
        ChipDesign(1, 1, 1, keep_fraction=1.0),
        ChipDesign(2, 1, 1, keep_fraction=0.5),
    )
    axes_of = [axis_tuple(design) for design in designs]
    (box,) = initial_subgrids(designs, axes_of)
    assert box.groups == (1, 2) and box.keep == (0.5, 1.0)
    for child in box.split(axes_of):
        assert child.members  # no empty child survives a split
    point = Subgrid(mix=(1, 1), groups=(1,), dram=(102.4,), keep=(0.5,), members=(0,))
    assert point.is_pointlike
    with pytest.raises(ValueError, match="point-like"):
        point.split(axes_of)


def test_corner_key_is_shared_between_parent_and_best_child():
    designs = PlannerConfig.from_axes(
        groups=(1, 2), mixes=((1, 1),), keep_fractions=(0.5, 1.0)
    ).chip_grid
    axes_of = [axis_tuple(design) for design in designs]
    (box,) = initial_subgrids(designs, axes_of)
    children = box.split(axes_of)
    assert box.corner_key() in {child.corner_key() for child in children}
