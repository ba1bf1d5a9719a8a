"""Serving fast paths: batched precomputation, step cost, heap dispatch.

Every optimisation here carries the same contract as the batch engine:
identical trace output, bit for bit, to the unoptimised path.
"""

import pytest

from repro.core.simulator import PerformanceSimulator
from repro.models.mllm import available_mllms, get_mllm
from repro.serving import (
    BatchDecodeCostModel,
    ContinuousBatchingSimulator,
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    build_trace,
)

N_REQUESTS = 40


def make_trace(seed=5, n=N_REQUESTS):
    return build_trace(
        PoissonArrivals(5.0, seed=seed).generate(n),
        RequestSampler(
            seed=seed, output_token_choices=(4, 8, 16), output_token_weights=(0.4, 0.4, 0.2)
        ).sample(n),
    )


class TestFleetPrecompute:
    def test_precomputed_traces_identical_both_policies(self):
        model = get_mllm("sphinx-tiny")
        trace = make_trace()
        for policy in ("round_robin", "least_loaded"):
            warm = FleetSimulator(model, n_chips=3, policy=policy, precompute=True)
            cold = FleetSimulator(model, n_chips=3, policy=policy, precompute=False)
            warm_result = warm.run(trace)
            cold_result = cold.run(trace)
            assert warm_result.assignments == cold_result.assignments
            assert warm_result.records == cold_result.records

    def test_precompute_seeds_every_chip(self):
        model = get_mllm("sphinx-tiny")
        trace = make_trace()
        fleet = FleetSimulator(model, n_chips=3, policy="round_robin")
        fleet.precompute_service_times(trace)
        shapes = {(r.request.images, r.request.prompt_text_tokens) for r in trace}
        for chip in fleet.chips:
            for shape in shapes:
                assert chip.has_cc_latency(shape)
            bucket = chip.cost_model.bucket_for(model.prompt_tokens(trace[0].request))
            assert chip.cost_model.has_bucket_cost(bucket)

    @pytest.mark.parametrize("name", available_mllms())
    def test_seeded_values_bit_identical_to_lazy_ones(self, name):
        model = get_mllm(name)
        trace = make_trace()
        fleet = FleetSimulator(model, n_chips=2, policy="least_loaded")
        fleet.precompute_service_times(trace)
        seeded = fleet.chips[0]
        lazy = ContinuousBatchingSimulator(
            model=model,
            max_batch_size=seeded.max_batch_size,
            cc_bandwidth_fraction=seeded.cc_bandwidth_fraction,
        )
        for request in trace:
            shape_latency = seeded.cc_latency_s(request.request)
            assert shape_latency == lazy.cc_latency_s(request.request)
            context = model.prompt_tokens(request.request)
            assert seeded.cost_model.step_latency_s([context]) == (
                lazy.cost_model.step_latency_s([context])
            )

    def test_assign_alone_still_precomputes_for_least_loaded(self):
        model = get_mllm("sphinx-tiny")
        trace = make_trace()
        fleet = FleetSimulator(model, n_chips=2, policy="least_loaded")
        fleet.assign(trace)
        assert any(
            fleet.chips[0].has_cc_latency(
                (r.request.images, r.request.prompt_text_tokens)
            )
            for r in trace
        )

    def test_empty_trace_precompute_is_a_noop(self):
        model = get_mllm("sphinx-tiny")
        fleet = FleetSimulator(model, n_chips=2)
        fleet.precompute_service_times([])  # must not raise


class TestHeapDispatch:
    def test_heap_matches_linear_min_scan(self):
        model = get_mllm("sphinx-tiny")
        trace = make_trace(seed=11, n=60)
        fleet = FleetSimulator(model, n_chips=4, policy="least_loaded")
        assignments = fleet.assign(trace)

        # Reference: the original O(chips) scan per request.
        reference_fleet = FleetSimulator(
            model, n_chips=4, policy="least_loaded", precompute=False
        )
        order = sorted(
            range(len(trace)), key=lambda i: (trace[i].arrival_s, trace[i].request_id)
        )
        horizon = [0.0] * reference_fleet.n_chips
        expected = [0] * len(trace)
        for index in order:
            request = trace[index]
            chip_id = min(range(reference_fleet.n_chips), key=lambda i: horizon[i])
            cost = reference_fleet._estimate_cost_s(
                reference_fleet.chips[chip_id], request.request
            )
            horizon[chip_id] = max(horizon[chip_id], request.arrival_s) + cost
            expected[index] = chip_id
        assert assignments == expected


class TestStepLatency:
    def test_fresh_model_returns_identical_float(self):
        model = get_mllm("sphinx-tiny")
        cost = BatchDecodeCostModel(PerformanceSimulator(), model)
        contexts = [64, 100, 500, 64]
        first = cost.step_latency_s(contexts)
        assert cost.step_latency_s(contexts) == first
        fresh = BatchDecodeCostModel(PerformanceSimulator(), model)
        assert fresh.step_latency_s(contexts) == first

    def test_contexts_in_the_same_buckets_share_a_latency(self):
        model = get_mllm("sphinx-tiny")
        cost = BatchDecodeCostModel(
            PerformanceSimulator(), model, context_bucket=32
        )
        # 65, 66, 70 and 95 all quantize to the 96-token bucket.
        assert cost.step_latency_s([65, 70]) == cost.step_latency_s([66, 95])
