"""Slow chaos smoke: a chip failure inside a 100k-request bursty trace.

Marked ``slow`` (excluded from the default run by ``pytest.ini``); CI's
chaos step invokes it explicitly with ``pytest -m slow``.  The
correctness story lives in the differential and property suites — this
smoke proves the fault path holds up at benchmark scale: the autoscaled
fleet absorbs a mid-trace chip outage, loses no requests, measures a
finite time-to-recover, and has re-converged to the SLO by the end of
the trace.
"""

import pytest

from repro.models.mllm import get_mllm
from repro.serving import (
    AutoscalerSpec,
    BurstyArrivals,
    FleetSimulator,
    RequestSampler,
    build_trace,
)
from repro.serving.faults import FaultEvent, FaultSchedule, fault_recovery
from repro.serving.metrics import percentile

N_REQUESTS = 100_000
TARGET_P99_TTFT_S = 5.0


@pytest.mark.slow
def test_autoscaler_reconverges_after_mid_trace_chip_failure():
    sampler = RequestSampler(
        seed=21, output_token_choices=(8, 16, 32), output_token_weights=(0.5, 0.3, 0.2)
    )
    trace = build_trace(
        BurstyArrivals(8.0, burst_multiplier=4.0, seed=21).generate(N_REQUESTS),
        sampler.sample(N_REQUESTS),
    )
    span = trace[-1].arrival_s
    down = FaultEvent(time_s=round(0.4 * span, 6), kind="chip_down", chip_id=0)
    up = FaultEvent(time_s=round(0.5 * span, 6), kind="chip_up", chip_id=0)
    schedule = FaultSchedule(events=(down, up))
    fleet = FleetSimulator(
        get_mllm("sphinx-tiny"),
        autoscaler=AutoscalerSpec(
            target_p99_ttft_s=TARGET_P99_TTFT_S,
            min_chips=1,
            max_chips=6,
            window=64,
            min_observations=16,
            cooldown_s=2.0,
            max_queue_depth=256,
        ),
        max_batch_size=16,
    )
    result = fleet.run(trace, faults=schedule)

    # Conservation at scale: every admitted request served exactly once.
    assert result.n_rejected == 0
    assert len(result.records) == N_REQUESTS
    assert sorted(r.request_id for r in result.records) == list(range(N_REQUESTS))

    # The outage was measured and recovered from within the trace.
    (impact,) = fault_recovery(result.records, schedule.events)
    assert impact.dent_depth_s >= 0.0
    assert impact.time_to_recover_s is not None
    assert impact.time_to_recover_s < span - down.time_s

    # Re-convergence: the final stretch of the trace meets the SLO again.
    ordered = sorted(result.records, key=lambda r: (r.arrival_s, r.request_id))
    tail = [r.ttft_s for r in ordered[-2000:]]
    assert percentile(tail, 99) <= TARGET_P99_TTFT_S
