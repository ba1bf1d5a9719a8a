"""Benchmark the wave engine on a million-request diurnal mixed trace.

The acceptance criterion of the wave engine (`repro.serving.engine`): a
1,000,000-request diurnal mixed trace — the diurnal-week workload mix
(text chat, multi-image, long context) over a full day-long sine cycle —
must finish in under 10 seconds single-process, with warm cost caches,
while producing ``==``-identical ``RequestRecord``s to the per-step
oracle on a 20,000-request equivalence sample of the same trace (small
enough for the oracle's one-iteration-per-step loop to finish in a few
seconds).

The trace is compiled by ``compile_scenario``, the path every scenario
run takes: one ``ServingRequest`` per request, sharing one
``InferenceRequest`` per shape.  The compile is timed on its own and
reported as ``compile_seconds``; the equivalence sample is the trace's
first requests.

An untimed warm-up run fills the engine-independent serving-cost memo
first, and every later chip runs on the warm-up chip's simulator, so it
reads that memo itself: caches only move work, so the timed number
measures the decode loop, not cost-model evaluation.

Feeds ``BENCH_results.json`` (via ``benchmarks/run.py``) with the
``serving_wave_1M`` scenario, which records the wall-clock seconds of
the timed wave run and the sample-identity verdict.
"""

import time
from dataclasses import replace

from repro.models.mllm import get_mllm
from repro.scenarios import compile_scenario, get_scenario
from repro.serving import ContinuousBatchingSimulator

N_REQUESTS = 1_000_000
TIME_BUDGET_S = 10.0
SAMPLE_REQUESTS = 20_000
RATE_RPS = 400.0
PERIOD_S = 86_400.0
MAX_BATCH_SIZE = 64
CONTEXT_BUCKET = 4096


def bench_spec():
    """The diurnal-week mix scaled to one million requests over a day."""
    base = get_scenario("diurnal-week")
    return replace(
        base,
        n_requests=N_REQUESTS,
        arrival=replace(base.arrival, rate_rps=RATE_RPS, period_s=PERIOD_S),
    )


def bench_trace():
    """The 1M-request ``ServingRequest`` trace of :func:`bench_spec`."""
    return compile_scenario(bench_spec()).trace


def _chip(engine, donor=None):
    """A bench chip; on ``donor``'s simulator, it reads the donor's memo."""
    return ContinuousBatchingSimulator(
        None if donor is None else donor.simulator,
        model=get_mllm("sphinx-tiny"),
        max_batch_size=MAX_BATCH_SIZE,
        context_bucket=CONTEXT_BUCKET,
        engine=engine,
    )


def _measure():
    """(wave result, wave s, sample identity, sample s, compile s)."""
    start = time.perf_counter()
    trace = bench_trace()
    compile_seconds = time.perf_counter() - start

    # Untimed warm-up fills the shared serving-cost memo once; the timed
    # run then measures the decode loop alone.
    warm = _chip("wave")
    warm.run(trace)

    timed = _chip("wave", donor=warm)
    start = time.perf_counter()
    wave = timed.run(trace)
    wave_seconds = time.perf_counter() - start

    # Equivalence sample: the step oracle vs wave on the first requests,
    # from the same memo.
    sample = trace[:SAMPLE_REQUESTS]
    wave_sample = _chip("wave", donor=warm).run(sample)
    step_chip = _chip("step", donor=warm)
    start = time.perf_counter()
    step_sample = step_chip.run(sample)
    sample_seconds = time.perf_counter() - start
    identical = (
        step_sample.records == wave_sample.records
        and step_sample.peak_batch_size == wave_sample.peak_batch_size
        and step_sample.decode_steps == wave_sample.decode_steps
    )
    return wave, wave_seconds, identical, sample_seconds, compile_seconds


def run_wave_1m() -> dict:
    """Time the 1M-request wave run and report the identity verdict."""
    wave, wave_seconds, identical, sample_seconds, compile_seconds = _measure()
    return {
        "requests": N_REQUESTS,
        "decode_steps": wave.decode_steps,
        "peak_batch_size": wave.peak_batch_size,
        "wave_seconds": wave_seconds,
        "time_budget_s": TIME_BUDGET_S,
        "identical_records": identical,
        "sample_requests": SAMPLE_REQUESTS,
        "step_sample_seconds": sample_seconds,
        "compile_seconds": compile_seconds,
    }


def test_bench_wave_engine_1m_under_10s():
    wave, wave_seconds, identical, _, _ = _measure()

    # Identity first: the speed is worthless if a single record moved.
    assert identical
    assert len(wave.records) == N_REQUESTS

    print(
        f"\nwave engine: {wave_seconds:.2f} s for {N_REQUESTS} requests "
        f"({wave.decode_steps} decode steps, peak batch "
        f"{wave.peak_batch_size})"
    )
    assert wave_seconds < TIME_BUDGET_S, (
        f"wave engine took {wave_seconds:.2f} s on the 1M-request trace; "
        f"the budget is {TIME_BUDGET_S:.0f} s"
    )


SCENARIOS = {
    "serving_wave_1M": run_wave_1m,
}
