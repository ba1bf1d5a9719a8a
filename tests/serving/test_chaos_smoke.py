"""Slow smoke: supervised recovery holds up at 100k-request scale.

Marked ``slow`` (excluded from the default run by ``pytest.ini``); the
CI ``runtime`` job invokes it explicitly with ``pytest -m slow``.  One
run takes a chip crash, a chip hang, dropped arrival and heartbeat
messages, a delayed result and a mid-stream supervisor crash — all in
the same 100k-request wave-engine run — and must still produce the
batch result ``==``-identically with bounded wall-clock overhead (the
crash re-runs one shard, the supervisor crash rebuilds from the
auto-checkpoint ring; neither may snowball).
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
from repro.serving.runtime.chaos import (
    ChaosSchedule,
    crash_actor,
    delay_message,
    drop_message,
    hang_actor,
)
from repro.serving.runtime.service import run_live
from repro.serving.runtime.supervision import SupervisionConfig

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


#: Crash + hang + drops + delay + supervisor crash, one schedule.  The
#: first stream hands the supervisor 98 messages (97 of its 98 arrival
#: batches, batch 5 dropped, then StreamEnded; ordinals 0-97).  After
#: the stall restart, the re-sent batch 5 (ordinal 98) releases every
#: parked batch and closes the stream, so the closing jobs still owe at
#: least eight messages (four ShardDones with the retry, the chip
#: crash report among the first three, three heartbeats): every run
#: reaches ordinal 104, after the crash report and with the ring full.
SCHEDULE = ChaosSchedule(
    events=(
        crash_actor("chip", 1),
        hang_actor("chip", 2, 10),
        drop_message("ArrivalBatch", 5),
        drop_message("Heartbeat", 0),
        delay_message("ShardDone", 1, 0.05),
        crash_actor("supervisor", 104),
    )
)

#: Deadlines sized for real multi-second shard jobs; a fast stall
#: watchdog so the dropped arrival batch recovers in ~1s.
CONFIG = SupervisionConfig(
    job_deadline_s=300.0,
    stall_deadline_s=1.0,
    tick_s=0.05,
    backoff_base_s=0.01,
    backoff_cap_s=0.1,
    checkpoint_every=8192,
    seed=7,
)


@pytest.mark.slow
def test_chaos_100k_recovers_to_batch_result_wave():
    model = get_mllm("sphinx-tiny")
    fleet = FleetSimulator(model, n_chips=4, engine="wave")
    trace = _trace()
    # Warm the shared service-time memos outside both measurements.
    fleet.precompute_service_times(trace)

    start = time.perf_counter()
    batch = fleet.run(trace)
    batch_s = time.perf_counter() - start

    start = time.perf_counter()
    run = run_live(
        fleet,
        trace,
        chaos=SCHEDULE,
        supervision=CONFIG,
        hang_unit_s=0.02,
    )
    supervised_s = time.perf_counter() - start

    assert run.result == batch
    assert len(run.result.records) == N_REQUESTS
    kinds = {incident.kind for incident in run.incidents}
    assert "crash" in kinds  # the chip died and was restarted
    assert "stall" in kinds  # the dropped batch tripped the watchdog
    assert "supervisor_restart" in kinds  # ring restore happened
    assert run.n_sessions >= 2

    # Recovery redoes at most a couple of shards: 3x batch plus a flat
    # 15s floor (watchdog waits, backoff, session rebuild) bounds it.
    budget = max(3.0 * batch_s, batch_s + 15.0)
    assert supervised_s <= budget, (
        f"supervised took {supervised_s:.1f}s vs batch {batch_s:.1f}s "
        f"(budget {budget:.1f}s)"
    )
