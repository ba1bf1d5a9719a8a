"""The analytic service-time bounds: exact pieces, sound floors.

``batch_service_time_bounds`` claims two things: its prefill and
single-stream step components are *exactly* the serving cost model's
values, and its TTFT/latency floors are *sound* — no exact simulation, on
any fleet of the bounded chip, serves a request faster.  Both claims are
asserted here against the scalar serving engine.
"""

from __future__ import annotations

import pytest

from repro.core.batch import batch_service_time_bounds
from repro.core.config import (
    default_system,
    homo_cc_system,
    homo_mc_system,
    scaled_system,
)
from repro.core.simulator import PerformanceSimulator
from repro.models.mllm import InferenceRequest, available_mllms, get_mllm
from repro.serving.fleet import FleetSimulator
from repro.serving.queue import ContinuousBatchingSimulator, build_trace

SHAPES = (
    InferenceRequest(images=1, prompt_text_tokens=40, output_tokens=16),
    InferenceRequest(images=0, prompt_text_tokens=300, output_tokens=70),
    InferenceRequest(images=4, prompt_text_tokens=16, output_tokens=33),
)
SYSTEMS = (
    default_system(),
    scaled_system(2, 1, 3),
    homo_cc_system(),
    homo_mc_system(),
)


@pytest.fixture(scope="module")
def bounds():
    return batch_service_time_bounds(
        get_mllm("sphinx-tiny"),
        SHAPES,
        SYSTEMS,
        cc_bandwidth_fraction=0.5,
        context_bucket=32,
    )


@pytest.fixture(scope="module", params=available_mllms())
def model_bounds(request):
    model = get_mllm(request.param)
    return model, batch_service_time_bounds(
        model, SHAPES, SYSTEMS, cc_bandwidth_fraction=0.5, context_bucket=32
    )


@pytest.mark.parametrize("point", range(len(SYSTEMS)))
def test_prefill_and_first_step_match_the_scalar_serving_model(model_bounds, point):
    model, bounds = model_bounds
    chip = ContinuousBatchingSimulator(
        PerformanceSimulator(SYSTEMS[point]),
        model,
        cc_bandwidth_fraction=0.5,
        context_bucket=32,
    )
    for column, shape in enumerate(bounds.shapes):
        assert bounds.prefill_s[point, column] == chip.cc_latency_s(shape)
        assert bounds.first_step_s[point, column] == chip.cost_model.step_latency_s(
            [model.prompt_tokens(shape)]
        )


@pytest.mark.parametrize("point", range(len(SYSTEMS)))
def test_min_latency_is_the_sum_of_single_stream_steps(bounds, point):
    model = get_mllm("sphinx-tiny")
    chip = ContinuousBatchingSimulator(
        PerformanceSimulator(SYSTEMS[point]),
        model,
        cc_bandwidth_fraction=0.5,
        context_bucket=32,
    )
    for column, shape in enumerate(bounds.shapes):
        prompt = model.prompt_tokens(shape)
        expected = chip.cc_latency_s(shape) + sum(
            chip.cost_model.step_latency_s([prompt + step])
            for step in range(shape.output_tokens)
        )
        assert bounds.min_latency_s[point, column] == pytest.approx(
            expected, rel=1e-12
        )


@pytest.mark.parametrize("n_chips", [1, 2])
def test_bounds_floor_every_exactly_simulated_record(n_chips):
    """No record of a congested exact simulation beats its analytic floor."""
    model = get_mllm("sphinx-tiny")
    system = scaled_system(2, 1, 1)
    bounds = batch_service_time_bounds(
        model, SHAPES, [system], cc_bandwidth_fraction=0.5, context_bucket=32
    )
    # A deliberately bursty trace: everything arrives at once, so queueing
    # and batched decode push every record well above its floor.
    requests = [SHAPES[index % len(SHAPES)] for index in range(24)]
    trace = build_trace([0.0] * len(requests), requests)
    fleet = FleetSimulator(
        model,
        n_chips=n_chips,
        policy="least_loaded",
        simulator=PerformanceSimulator(system),
        cc_bandwidth_fraction=0.5,
        context_bucket=32,
    )
    for record in fleet.run(trace).records:
        column = bounds.shape_index(record.request)
        assert record.ttft_s >= bounds.min_ttft_s[0, column] - 1e-12
        assert record.latency_s >= bounds.min_latency_s[0, column] - 1e-12


def test_shapes_deduplicate_and_unknown_shape_raises(bounds):
    duplicated = batch_service_time_bounds(
        get_mllm("sphinx-tiny"), SHAPES + SHAPES, SYSTEMS[:1]
    )
    assert duplicated.shapes == bounds.shapes
    with pytest.raises(KeyError):
        bounds.shape_index(InferenceRequest(images=9, prompt_text_tokens=1))


def test_validation_rejects_bad_inputs():
    model = get_mllm("sphinx-tiny")
    with pytest.raises(ValueError):
        batch_service_time_bounds(model, [], SYSTEMS[:1])
    with pytest.raises(ValueError):
        batch_service_time_bounds(model, SHAPES, [])
    with pytest.raises(ValueError):
        batch_service_time_bounds(
            model, SHAPES, SYSTEMS[:1], cc_bandwidth_fraction=1.0
        )
    with pytest.raises(ValueError):
        batch_service_time_bounds(model, SHAPES, SYSTEMS[:1], context_bucket=0)
