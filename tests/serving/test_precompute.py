"""Serving fast paths: batched precomputation, step cost, heap dispatch.

Every optimisation here carries the same contract as the batch engine:
identical trace output, bit for bit, to the unoptimised path.
"""

import pytest

from repro.core.batch import ServiceTimeBoundsPricer, context_bucket_for
from repro.core.config import default_system, homo_mc_system
from repro.core.simulator import PerformanceSimulator
from repro.models.mllm import available_mllms, get_mllm
from repro.planner.space import ChipDesign
from repro.serving import (
    ChipCosts,
    ContinuousBatchingSimulator,
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    build_trace,
)
from repro.serving import queue

N_REQUESTS = 40
#: Output lengths whose decode crosses several 32-token context buckets.
LONG_OUTPUTS = (40, 90, 160)
#: The default chip, an MC-only chip (its CC stage falls back to the MC
#: pool) and a pruned, compute-bound design (non-integer compute cycles).
SYSTEMS = {
    "default": default_system(),
    "homo_mc": homo_mc_system(),
    "pruned_compute_bound": ChipDesign(
        n_groups=1, cc_per_group=1, mc_per_group=1, dram_gbps=204.8, keep_fraction=0.4
    ).system(),
}


def make_trace(seed=5, n=N_REQUESTS, outputs=(4, 8, 16)):
    return build_trace(
        PoissonArrivals(5.0, seed=seed).generate(n),
        RequestSampler(
            seed=seed, output_token_choices=outputs, output_token_weights=(0.4, 0.4, 0.2)
        ).sample(n),
    )


def decode_buckets(model, request, width=32):
    """Every bucket of ``request``'s decode contexts, one context at a time."""
    prompt = model.prompt_tokens(request)
    return {
        context_bucket_for(context, width)
        for context in range(prompt, prompt + request.output_tokens)
    }


class TestFleetPrecompute:
    def test_precomputed_traces_identical_both_policies(self, monkeypatch):
        model = get_mllm("sphinx-tiny")
        trace = make_trace()
        for policy in ("round_robin", "least_loaded"):
            warm = FleetSimulator(model, n_chips=3, policy=policy)
            cold = FleetSimulator(model, n_chips=3, policy=policy)
            warm_result = warm.run(trace)
            with monkeypatch.context() as patch:
                # The lazy reference: every cost priced by the scalar path.
                patch.setattr(
                    FleetSimulator, "precompute_service_times", lambda *args: None
                )
                cold_result = cold.run(trace)
            assert warm_result.assignments == cold_result.assignments
            assert warm_result.records == cold_result.records

    @pytest.mark.parametrize("system", SYSTEMS.values(), ids=SYSTEMS.keys())
    def test_precompute_seeds_every_chip(self, system):
        model = get_mllm("sphinx-tiny")
        trace = make_trace(outputs=LONG_OUTPUTS)
        fleet = FleetSimulator(
            model,
            n_chips=3,
            policy="round_robin",
            simulator=PerformanceSimulator(system),
        )
        fleet.precompute_service_times(trace)
        for chip in fleet.chips:
            memo = chip.cost_model
            for r in trace:
                assert (r.request.images, r.request.prompt_text_tokens) in memo.shapes
                for bucket in decode_buckets(model, r.request):
                    assert bucket in memo._stream_cost, bucket

    @pytest.mark.parametrize(
        "name, system",
        [pytest.param(name, "default", id=name) for name in available_mllms()]
        + [
            pytest.param("sphinx-tiny", key, id=f"sphinx-tiny-{key}")
            for key in SYSTEMS
            if key != "default"
        ],
    )
    def test_seeded_values_bit_identical_to_lazy_ones(self, name, system):
        model = get_mllm(name)
        system = SYSTEMS[system]
        trace = make_trace(outputs=LONG_OUTPUTS)
        fleet = FleetSimulator(
            model,
            n_chips=2,
            policy="least_loaded",
            simulator=PerformanceSimulator(system),
        )
        fleet.precompute_service_times(trace)
        seeded = fleet.chips[0].cost_model
        lazy = ContinuousBatchingSimulator(
            PerformanceSimulator(system),
            model=model,
            max_batch_size=fleet.chips[0].max_batch_size,
            cc_bandwidth_fraction=fleet.chips[0].cc_bandwidth_fraction,
        ).cost_model
        for request in trace:
            shape = (request.request.images, request.request.prompt_text_tokens)
            # Read the seeded entries directly: a missing one raises.
            assert seeded.shapes[shape] == lazy.shape(*shape)
            for bucket in decode_buckets(model, request.request):
                assert seeded._stream_cost[bucket] == lazy.stream_cost(bucket), bucket
            context = model.prompt_tokens(request.request)
            assert seeded.step_latency_s([context]) == lazy.step_latency_s([context])
        assert seeded._weight_bytes == lazy._weight_bytes

    @pytest.mark.parametrize("policy", ["round_robin", "least_loaded"])
    def test_a_run_prices_nothing_through_the_scalar_path(
        self, policy, monkeypatch
    ):
        # Every run precomputes before its first dispatch: neither the
        # least-loaded estimates nor the engine derive a CC-stage latency
        # or a decode bucket lazily.
        def scalar(*args, **kwargs):
            raise AssertionError("priced through the scalar path")

        monkeypatch.setattr(queue, "cc_stage_latency", scalar)
        monkeypatch.setattr(ChipCosts, "_cost", scalar)
        fleet = FleetSimulator(get_mllm("sphinx-tiny"), n_chips=2, policy=policy)
        result = fleet.run(make_trace(outputs=LONG_OUTPUTS))
        assert len(result.records) == N_REQUESTS

    @pytest.mark.parametrize("n_chips", [1, 3, 8])
    def test_a_fresh_fleet_walks_the_trace_once_and_builds_one_pricer(
        self, n_chips, monkeypatch
    ):
        # Every chip reads the fleet's one memo: one lacks walk, one pricer.
        lacks_calls, pricers = [], []
        lacks = ChipCosts.lacks
        init = ServiceTimeBoundsPricer.__init__

        def counted_lacks(self, trace):
            lacks_calls.append(self)
            return lacks(self, trace)

        def counted_init(self, *args, **kwargs):
            pricers.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ChipCosts, "lacks", counted_lacks)
        monkeypatch.setattr(ServiceTimeBoundsPricer, "__init__", counted_init)
        fleet = FleetSimulator(
            get_mllm("sphinx-tiny"), n_chips=n_chips, policy="least_loaded"
        )
        fleet.precompute_service_times(make_trace())
        assert len(lacks_calls) == 1
        assert len(pricers) == 1

    def test_empty_trace_precompute_is_a_noop(self):
        model = get_mllm("sphinx-tiny")
        fleet = FleetSimulator(model, n_chips=2)
        fleet.precompute_service_times([])  # must not raise


class TestHeapDispatch:
    def test_heap_matches_linear_min_scan(self):
        model = get_mllm("sphinx-tiny")
        trace = make_trace(seed=11, n=60)
        fleet = FleetSimulator(model, n_chips=4, policy="least_loaded")
        assignments = list(fleet.run(trace).assignments)

        # Reference: the original O(chips) scan per request.
        reference_fleet = FleetSimulator(model, n_chips=4, policy="least_loaded")
        order = sorted(
            range(len(trace)), key=lambda i: (trace[i].arrival_s, trace[i].request_id)
        )
        horizon = [0.0] * reference_fleet.n_chips
        expected = [0] * len(trace)
        for index in order:
            request = trace[index]
            chip_id = min(range(reference_fleet.n_chips), key=lambda i: horizon[i])
            cost = reference_fleet.chips[chip_id].cost_model.dispatch_terms(
                request.request
            )[0]
            horizon[chip_id] = max(horizon[chip_id], request.arrival_s) + cost
            expected[index] = chip_id
        assert assignments == expected


def _memo(model):
    return ChipCosts(
        PerformanceSimulator(), model, cc_bandwidth_fraction=0.5, context_bucket=32
    )


class TestStepLatency:
    def test_fresh_model_returns_identical_float(self):
        model = get_mllm("sphinx-tiny")
        cost = _memo(model)
        contexts = [64, 100, 500, 64]
        first = cost.step_latency_s(contexts)
        assert cost.step_latency_s(contexts) == first
        assert _memo(model).step_latency_s(contexts) == first

    def test_contexts_in_the_same_buckets_share_a_latency(self):
        cost = _memo(get_mllm("sphinx-tiny"))
        # 65, 66, 70 and 95 all quantize to the 96-token bucket.
        assert cost.step_latency_s([65, 70]) == cost.step_latency_s([66, 95])
