"""Slow smoke: the wave engine digests a million-request scenario trace.

Marked ``slow`` (excluded from the default run by ``pytest.ini``); CI
invokes it explicitly with ``pytest -m slow``.  The equivalence story
lives in ``test_wave_engine.py`` — this smoke only proves the engine
holds up at the full benchmark scale from a cold cache: every request
gets exactly one record, in request-id order, with sane timestamps.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_PATH = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "test_bench_wave_engine.py"
)


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench_wave", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_wave_engine_million_request_smoke():
    bench = _bench_module()
    trace = bench.bench_trace()
    result = bench._chip("wave").run(trace)

    assert len(result.records) == bench.N_REQUESTS
    assert [r.request_id for r in result.records] == list(
        range(bench.N_REQUESTS)
    )
    assert result.decode_steps > 0
    assert 0 < result.peak_batch_size <= bench.MAX_BATCH_SIZE
    for record in result.records[:: bench.N_REQUESTS // 1000]:
        assert (
            record.arrival_s
            <= record.prefill_start_s
            <= record.prefill_end_s
            <= record.first_token_s
            <= record.finish_s
        )
