"""Continuous-batching queue tests: invariants of the serving engine."""

import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulator import PerformanceSimulator
from repro.models.mllm import InferenceRequest, get_mllm
from repro.planner.space import ChipDesign
from repro.serving import (
    ChipCosts,
    ContinuousBatchingSimulator,
    PoissonArrivals,
    RequestSampler,
    ServingRequest,
    build_trace,
)
from repro.serving.queue import COMPUTE_SCALE_BITS, CCLatencyError, StepCostError

N_REQUESTS = 60


@pytest.fixture(scope="module")
def model():
    return get_mllm("sphinx-tiny")


@pytest.fixture(scope="module")
def trace(model):
    return build_trace(
        PoissonArrivals(4.0, seed=21).generate(N_REQUESTS),
        RequestSampler(
            seed=21, output_token_choices=(8, 16, 32), output_token_weights=(0.5, 0.3, 0.2)
        ).sample(N_REQUESTS),
    )


@pytest.fixture(scope="module")
def result(model, trace):
    return ContinuousBatchingSimulator(model=model, max_batch_size=8).run(trace)


class TestQueueInvariants:
    def test_every_request_completes_exactly_once(self, result, trace):
        assert len(result.records) == len(trace)
        assert sorted(r.request_id for r in result.records) == sorted(
            r.request_id for r in trace
        )

    def test_tokens_are_conserved(self, result, trace):
        generated = sum(record.output_tokens for record in result.records)
        requested = sum(request.request.output_tokens for request in trace)
        assert generated == requested

    def test_batch_size_never_exceeds_limit(self, result):
        assert 1 <= result.peak_batch_size <= 8

    def test_timestamp_trail_is_monotonic(self, result):
        # RequestRecord validates monotonicity on construction; spot-check
        # the derived quantities are non-negative too.
        for record in result.records:
            assert record.queue_wait_s >= 0
            assert record.ttft_s > 0
            assert record.latency_s >= record.ttft_s

    def test_cc_stage_is_fifo(self, result):
        ordered = sorted(result.records, key=lambda r: (r.arrival_s, r.request_id))
        starts = [record.prefill_start_s for record in ordered]
        assert starts == sorted(starts)

    def test_deterministic_across_runs(self, model, trace, result):
        again = ContinuousBatchingSimulator(model=model, max_batch_size=8).run(trace)
        assert again.records == result.records
        assert again.decode_steps == result.decode_steps

    def test_batching_improves_makespan(self, model, trace, result):
        serial = ContinuousBatchingSimulator(model=model, max_batch_size=1).run(trace)
        assert serial.peak_batch_size == 1
        batched_makespan = result.report.makespan_s
        assert batched_makespan <= serial.report.makespan_s

    def test_decode_steps_bounded_below_by_token_count(self, result, trace):
        total_tokens = sum(request.request.output_tokens for request in trace)
        assert result.decode_steps >= total_tokens / 8


def decode_costs(model, simulator=None):
    """A memo at the default serving knobs, on a simulator of its own."""
    return ChipCosts(
        simulator or PerformanceSimulator(),
        model,
        cc_bandwidth_fraction=0.5,
        context_bucket=32,
    )


class TestDecodeCosts:
    def test_batch_step_cheaper_than_independent_streams(self, model):
        cost = decode_costs(model)
        single = cost.step_latency_s([512])
        batch = cost.step_latency_s([512] * 8)
        # Weight re-use: an 8-stream step is far cheaper than 8 single steps.
        assert batch < 8 * single
        assert batch >= single

    def test_longer_context_is_slower(self, model):
        cost = decode_costs(model)
        assert cost.step_latency_s([2048]) > cost.step_latency_s([64])

    def test_bucket_quantization_reuses_entries(self, model):
        cost = decode_costs(model)
        cost.step_latency_s([65, 70, 95])
        # 65, 70 and 95 all quantize to the 96-token bucket.
        assert cost._stream_cost.keys() == {96}

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"cc_bandwidth_fraction": 0.0}, "cc_bandwidth_fraction"),
            ({"cc_bandwidth_fraction": 1.0}, "cc_bandwidth_fraction"),
            ({"context_bucket": 0}, "context_bucket"),
        ],
    )
    def test_refuses_bad_knobs(self, model, knobs, message):
        kwargs = {"cc_bandwidth_fraction": 0.5, "context_bucket": 32, **knobs}
        with pytest.raises(ValueError, match=message):
            ChipCosts(PerformanceSimulator(), model, **kwargs)


#: A pruned, compute-bound design: every bucket's compute cycles carry a
#: fraction, so a float left fold over a batch depends on stream order.
PRUNED_SYSTEM = ChipDesign(
    n_groups=1,
    cc_per_group=1,
    mc_per_group=1,
    dram_gbps=204.8,
    keep_fraction=0.4,
).system()


class TestOrderFreeStepCost:
    @given(
        buckets=st.lists(
            st.sampled_from(range(32, 1249, 32)), min_size=8, max_size=8
        )
    )
    @settings(max_examples=8, deadline=None)
    def test_every_permutation_returns_the_exact_sum(self, model, buckets):
        simulator = PerformanceSimulator(PRUNED_SYSTEM)
        cost = decode_costs(model, simulator)
        triples = [cost._cost(bucket) for bucket in buckets]
        memory = simulator.memory_cycles(
            triples[0][0] + sum(triple[1] for triple in triples),
            cost.pool,
            1.0 - cost.cc_bandwidth_fraction,
        )
        compute = math.fsum(triple[2] for triple in triples)
        assert compute > memory  # the design is compute-bound here
        reference = simulator.chip.cycles_to_seconds(max(memory, compute))
        for order in set(permutations(buckets)):
            assert cost.step_latency_s(list(order)) == reference


class TestStepCostError:
    @pytest.mark.parametrize(
        "compute", [math.nan, math.inf, -1.0, 2.0 ** -(COMPUTE_SCALE_BITS + 1)]
    )
    def test_unrepresentable_compute_raises(self, model, compute):
        with pytest.raises(StepCostError, match="bucket 64: compute_cycles"):
            decode_costs(model).seed({}, {64: (1000, 10, compute)})

    def test_compute_at_the_scale_resolution_is_accepted(self, model):
        cost = decode_costs(model)
        cost.seed({}, {64: (1000, 10, 2.0 ** -COMPUTE_SCALE_BITS)})
        assert (cost._weight_bytes, cost.stream_cost(64)) == (1000, (10, 1))

    def test_unequal_weight_bytes_raise(self, model):
        cost = decode_costs(model)
        cost.seed({}, {32: (1000, 10, 5.0)})
        with pytest.raises(StepCostError, match="bucket 64: weight_bytes"):
            cost.seed({}, {64: (1001, 20, 5.0)})


class TestCCLatencyError:
    """CC-stage latencies must be strictly positive and finite on entry."""

    REFUSED = [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("latency", REFUSED)
    def test_seeding_refuses(self, model, latency):
        chip = ContinuousBatchingSimulator(model=model)
        with pytest.raises(CCLatencyError, match=r"shape \(1, 32\)"):
            chip.cost_model.seed({(1, 32): latency}, {})
        assert (1, 32) not in chip.cost_model.shapes

    @pytest.mark.parametrize("latency", REFUSED)
    def test_lazy_pricing_refuses(self, model, latency, monkeypatch):
        monkeypatch.setattr(
            "repro.serving.queue.cc_stage_latency", lambda *args, **kwargs: latency
        )
        chip = ContinuousBatchingSimulator(model=model)
        with pytest.raises(CCLatencyError, match=repr(latency)):
            chip.cc_latency_s(InferenceRequest(images=1, prompt_text_tokens=32))

    def test_smallest_positive_latency_is_accepted(self, model):
        chip = ContinuousBatchingSimulator(model=model)
        chip.cost_model.seed({(1, 32): 5e-324}, {})
        request = InferenceRequest(images=1, prompt_text_tokens=32)
        assert chip.cc_latency_s(request) == 5e-324


class TestValidation:
    def test_rejects_empty_trace(self, model):
        with pytest.raises(ValueError):
            ContinuousBatchingSimulator(model=model).run([])

    def test_rejects_bad_parameters(self, model):
        with pytest.raises(ValueError):
            ContinuousBatchingSimulator(model=model, max_batch_size=0)
        with pytest.raises(ValueError):
            ContinuousBatchingSimulator(model=model, cc_bandwidth_fraction=1.0)
        with pytest.raises(ValueError):
            ContinuousBatchingSimulator(model=None)
        with pytest.raises(ValueError):
            ServingRequest(
                request_id=0,
                arrival_s=-1.0,
                request=InferenceRequest(output_tokens=4),
            )

    @pytest.mark.parametrize(
        "arrival", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    def test_rejects_non_finite_arrivals(self, arrival):
        shape = InferenceRequest(output_tokens=4)
        with pytest.raises(ValueError, match="arrival_s must be finite"):
            ServingRequest(request_id=0, arrival_s=arrival, request=shape)
        with pytest.raises(ValueError, match="arrival_s must be finite"):
            build_trace([0.0, arrival], [shape, shape])
