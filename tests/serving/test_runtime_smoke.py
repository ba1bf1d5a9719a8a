"""Slow smoke: live ingestion holds up at 100k-request scale.

Marked ``slow`` (excluded from the default run by ``pytest.ini``); the
CI ``runtime`` job invokes it explicitly with ``pytest -m slow``.  The
equivalence story lives in ``test_runtime_differential.py`` — this
smoke proves the actor machinery's overhead stays bounded: a 100k
request live run over the wave engine must produce the batch result
``==``-identically while staying within 2x of the batch wall-clock
(service-time memos are warmed up front so both planes price the same
cached costs and the comparison isolates the control-plane overhead).
"""

import time

import pytest

from repro.models.mllm import get_mllm
from repro.serving import (
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    build_trace,
)
from repro.serving.runtime import run_live

N_REQUESTS = 100_000


def _trace():
    return build_trace(
        PoissonArrivals(200.0, seed=1234).generate(N_REQUESTS),
        RequestSampler(
            seed=1234,
            prompt_token_range=(16, 48),
            output_token_choices=(8, 16),
            output_token_weights=(0.6, 0.4),
        ).sample(N_REQUESTS),
    )


@pytest.mark.slow
def test_live_ingestion_100k_within_2x_of_batch_wave():
    model = get_mllm("sphinx-tiny")
    fleet = FleetSimulator(model, n_chips=4, engine="wave")
    trace = _trace()
    # Warm the shared service-time memos outside both measurements.
    fleet.precompute_service_times(trace)

    start = time.perf_counter()
    batch = fleet.run(trace)
    batch_s = time.perf_counter() - start

    start = time.perf_counter()
    live = run_live(fleet, trace)
    live_s = time.perf_counter() - start

    assert live.result == batch
    assert len(live.result.records) == N_REQUESTS
    # The 2x budget, with a 5s floor so a very fast batch run does not
    # turn scheduler noise into flakes.
    budget = max(2.0 * batch_s, batch_s + 5.0)
    assert live_s <= budget, (
        f"live took {live_s:.1f}s vs batch {batch_s:.1f}s "
        f"(budget {budget:.1f}s)"
    )
