"""The per-design serving-cost memo and the two plain-float kernels.

* **DRAM kernel** — ``PerformanceSimulator.memory_cycles`` in Python
  floats is ``==`` the NumPy kernel ``repro.costs.memory_cycles`` over the
  planner grid's designs, both pools and any bandwidth share;
* **percentiles** — ``PercentileStats.from_array`` sorts once and is
  ``==`` ``np.percentile`` per quantile and ``from_values``;
* **shared memo** — a second fleet on a simulator that already served a
  fleet prices no CC stage, no decode bucket and builds no bulk pricer;
  a repeat of the first fleet meets no new DRAM traffic sum; every
  fleet's records ``==`` a cold fleet's;
* **degraded eras** hold a memo of their own;
* **planning** builds one bulk pricer per plan;
* **one memo** — a chip holds its design's memo once, as ``cost_model``,
  and ``clear_cache`` clears it in place, so chips built before a system
  change price against the new system.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving
from repro import costs
from repro.core.batch import ServiceTimeBoundsPricer
from repro.core.simulator import PerformanceSimulator
from repro.models.mllm import InferenceRequest, get_mllm
from repro.planner import PlannerConfig, plan_scenario
from repro.scenarios import (
    ArrivalSpec,
    FleetSpec,
    ScenarioSpec,
    SLOSpec,
    WorkloadComponent,
)
from repro.serving import (
    AutoscalerConfig,
    ContinuousBatchingSimulator,
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    build_trace,
)
from repro.serving.faults import FaultEvent, FaultSchedule
from repro.serving.metrics import PercentileStats
from repro.serving.queue import ChipCosts

MODEL = get_mllm("sphinx-tiny")

#: The end-to-end benchmark's planner grid: 108 chip designs.
PLANNER_GRID = PlannerConfig.from_axes(
    groups=(1, 2, 4, 8),
    mixes=((1, 3), (2, 2), (3, 1)),
    dram_gbps=(51.2, 102.4, 204.8),
    keep_fractions=(0.4, 0.7, 1.0),
).chip_grid
_SIMULATORS: dict = {}


def _simulator(design) -> PerformanceSimulator:
    simulator = _SIMULATORS.get(design.name)
    if simulator is None:
        simulator = _SIMULATORS[design.name] = PerformanceSimulator(design.system())
    return simulator


def _kernel(simulator, traffic, pool, fraction) -> float:
    # A subnormal share streams at infinite cycles: inf on both sides.
    with np.errstate(over="ignore"):
        cycles = costs.memory_cycles(
            traffic,
            buffer_bytes=simulator._pool_params[pool].buffer_bytes,
            dram_bytes_per_cycle=simulator._dram_bytes_per_cycle,
            bandwidth_fraction=fraction,
            request_overhead_cycles=simulator._request_overhead_cycles,
            request_latency_cycles=simulator._request_latency_cycles,
        )
    return float(cycles)


@st.composite
def dram_draws(draw):
    simulator = _simulator(draw(st.sampled_from(PLANNER_GRID)))
    pool = draw(st.sampled_from(("cc", "mc")))
    fraction = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    buffer = simulator._pool_params[pool].buffer_bytes
    traffic = draw(
        st.integers(1, 2**53)
        | st.integers(1, 10**7)
        | st.integers(1, 2**53 // buffer).map(lambda k: k * buffer)
    )
    return simulator, pool, fraction, traffic


class TestDramKernel:
    @given(draw=dram_draws())
    @settings(max_examples=400, deadline=None)
    def test_plain_floats_equal_the_numpy_kernel(self, draw):
        simulator, pool, fraction, traffic = draw
        assert simulator.memory_cycles(traffic, pool, fraction) == _kernel(
            simulator, traffic, pool, fraction
        )

    def test_zero_traffic_costs_zero_cycles(self):
        simulator = _simulator(PLANNER_GRID[0])
        assert simulator.memory_cycles(0, "mc", 0.5) == 0.0
        assert _kernel(simulator, 0, "mc", 0.5) == 0.0


@st.composite
def tied_values(draw):
    """1 to 2,000 floats drawn from a small pool, so ties are common."""
    pool = draw(
        st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=40)
    )
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.asarray(pool)[rng.integers(0, len(pool), n)]


class TestPercentiles:
    @given(values=tied_values())
    @settings(max_examples=150, deadline=None)
    def test_sorted_once_equals_numpy_and_the_scalar_fold(self, values):
        stats = PercentileStats.from_array(values)
        for quantile, attained in ((50, stats.p50), (95, stats.p95), (99, stats.p99)):
            assert attained == float(np.percentile(values, quantile))
        assert stats == PercentileStats.from_values(values.tolist())


# ----------------------------------------------------------------------
# The shared memo
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trace():
    return build_trace(
        PoissonArrivals(8.0, seed=3).generate(40),
        RequestSampler(
            seed=3, output_token_choices=(8, 24), output_token_weights=(0.5, 0.5)
        ).sample(40),
    )


def _fleet(kind, size, simulator=None):
    if kind == "least_loaded":
        return FleetSimulator(
            MODEL, n_chips=size, policy="least_loaded", simulator=simulator
        )
    autoscaler = AutoscalerConfig(
        target_p99_ttft_s=0.05, min_chips=1, max_chips=size, min_observations=4
    )
    return FleetSimulator(MODEL, autoscaler=autoscaler, simulator=simulator)


@pytest.mark.parametrize("kind", ["least_loaded", "autoscaled"])
def test_every_chip_of_a_fleet_shares_its_simulator_and_memo(kind):
    for simulator in (None, PerformanceSimulator()):
        fleet = _fleet(kind, 3, simulator)
        if simulator is not None:
            assert fleet.simulator is simulator
        assert len(fleet.chips) == 3
        assert all(chip.simulator is fleet.simulator for chip in fleet.chips)
        assert len({id(chip.cost_model) for chip in fleet.chips}) == 1
        assert list(fleet.simulator.derived.values()) == [fleet.chips[0].cost_model]


def test_a_chip_holds_its_design_memo_once_as_cost_model():
    fleet = FleetSimulator(
        MODEL, n_chips=3, cc_bandwidth_fraction=0.25, context_bucket=16
    )
    memo = ChipCosts.of(
        fleet.simulator, MODEL, cc_bandwidth_fraction=0.25, context_bucket=16
    )
    assert all(chip.cost_model is memo for chip in fleet.chips)
    assert not any(hasattr(chip, "costs") for chip in fleet.chips)
    for gone in (
        "decode",
        "on",
        "seed_cc_latencies",
        "cc_latencies",
        "seed_bucket_costs",
        "bucket_costs",
        "has_bucket_cost",
    ):
        assert not hasattr(memo, gone), gone
    assert not hasattr(repro.serving, "BatchDecodeCostModel")
    assert repro.serving.ChipCosts is ChipCosts


def test_clear_cache_reprices_the_chips_built_before_it():
    simulator = PerformanceSimulator()
    trace = build_trace(
        [0.0, 0.1], [InferenceRequest(), InferenceRequest(output_tokens=10)]
    )
    old = ContinuousBatchingSimulator(simulator, MODEL)
    before = old.run(trace).records
    system = simulator.system
    dram = replace(
        system.chip.dram,
        peak_bandwidth_bytes_per_s=system.chip.dram.peak_bandwidth_bytes_per_s / 4,
    )
    simulator.system = replace(system, chip=replace(system.chip, dram=dram))
    simulator.clear_cache()
    fresh = ContinuousBatchingSimulator(simulator, MODEL).run(trace).records
    assert old.run(trace).records == fresh
    assert fresh != before
    assert list(simulator.derived.values()) == [old.cost_model]


def _refuse(*args, **kwargs):
    raise AssertionError("a cost the shared memo holds was priced again")


@pytest.mark.parametrize("kind", ["least_loaded", "autoscaled"])
def test_later_fleets_on_one_simulator_price_nothing(kind, trace, monkeypatch):
    simulator = PerformanceSimulator()
    first = _fleet(kind, 2, simulator).run(trace)
    [memo] = simulator.derived.values()
    assert memo.dispatch and memo.shapes

    memory_calls = []
    memory_cycles = PerformanceSimulator.memory_cycles

    def counted(self, *args):
        memory_calls.append(args)
        return memory_cycles(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr("repro.serving.queue.cc_stage_latency", _refuse)
        patch.setattr(ChipCosts, "_cost", _refuse)
        patch.setattr(ServiceTimeBoundsPricer, "__init__", _refuse)
        patch.setattr(PerformanceSimulator, "memory_cycles", counted)
        repeat = _fleet(kind, 2, simulator).run(trace)
        assert memory_calls == []
        # Another size may meet new traffic sums, but no other new cost.
        other = _fleet(kind, 3, simulator).run(trace)

    assert list(simulator.derived.values()) == [memo]
    assert first.records == repeat.records == _fleet(kind, 2).run(trace).records
    assert other.records == _fleet(kind, 3).run(trace).records


def test_a_degraded_era_holds_its_own_memo(trace):
    span = max(request.arrival_s for request in trace)
    schedule = FaultSchedule(
        events=(
            FaultEvent(time_s=0.3 * span, kind="dram_degrade", chip_id=0, factor=0.5),
        )
    )
    simulator = PerformanceSimulator()
    shared = _fleet("least_loaded", 2, simulator)
    shared.run(trace)  # warm the shared memo first
    controller = shared._dispatched(trace, faults=schedule)
    controller.finish_events()
    state = controller.states[0]
    assert state.sim is not state.base
    assert state.sim.cost_model is not state.base.cost_model
    assert list(state.sim.simulator.derived.values()) == [state.sim.cost_model]
    # Arrivals after the degrade were estimated against the era's memo.
    assert state.sim.cost_model.dispatch
    assert state.base.cost_model is shared.chips[1].cost_model

    warm = shared.run(trace, faults=schedule)
    cold = _fleet("least_loaded", 2).run(trace, faults=schedule)
    assert warm.records == cold.records


def test_a_bnb_plan_builds_one_bulk_pricer(monkeypatch):
    spec = ScenarioSpec(
        name="one-pricer",
        n_requests=12,
        mix=(
            WorkloadComponent(
                name="chat",
                images=0,
                prompt_token_range=(8, 48),
                output_token_choices=(4, 8),
                output_token_weights=(0.5, 0.5),
            ),
        ),
        arrival=ArrivalSpec(kind="poisson", rate_rps=4.0),
        fleet=FleetSpec(n_chips=1, max_batch_size=4, context_bucket=32),
        slo=SLOSpec(ttft_p99_s=0.8, latency_p95_s=3.0),
    )
    config = PlannerConfig.from_axes(
        groups=(1, 2), mixes=((1, 1),), keep_fractions=(0.5, 1.0), max_chips=2
    )
    built = []
    init = ServiceTimeBoundsPricer.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ServiceTimeBoundsPricer, "__init__", counted)
    report = plan_scenario(spec, config, search="bnb")
    assert report.n_simulated > len(config.chip_grid)  # several fleets per design
    assert len(built) == 1
