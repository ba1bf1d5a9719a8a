"""Serving-metric tests: percentile math and report aggregation."""

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.mllm import InferenceRequest
from repro.serving import (
    PercentileStats,
    RequestRecord,
    percentile,
    summarize,
)
from repro.serving.metrics import summarize_scalar


def make_record(request_id, arrival, prefill_start, prefill_end, first, finish,
                output_tokens=4):
    return RequestRecord(
        request_id=request_id,
        request=InferenceRequest(
            images=1, prompt_text_tokens=16, output_tokens=output_tokens
        ),
        arrival_s=arrival,
        prefill_start_s=prefill_start,
        prefill_end_s=prefill_end,
        first_token_s=first,
        finish_s=finish,
    )


class TestPercentile:
    def test_linear_interpolation_hand_computed(self):
        # rank = (n - 1) * q / 100 with linear interpolation between ranks.
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert percentile(values, 25) == 20.0
        assert percentile(values, 50) == 30.0
        assert percentile(values, 90) == pytest.approx(46.0)
        assert percentile([1.0, 2.0, 3.0, 4.0], 95) == pytest.approx(3.85)

    def test_accepts_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_small_inputs(self):
        assert percentile([5.0], 99) == 5.0
        assert percentile([1.0, 3.0], 50) == 2.0

    def test_endpoints(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0

    def test_accepts_numpy_arrays(self):
        values = np.array([1.0, 2.0, 3.0])
        assert percentile(values, 50) == 2.0
        stats = PercentileStats.from_values(values)
        assert stats.mean == 2.0

    @given(
        values=st.lists(
            st.one_of(
                st.floats(min_value=1e-12, max_value=1e6),
                # A small pool of repeats makes ties common.
                st.sampled_from((1e-12, 0.1, 0.5, 3.0, 1e6)),
            ),
            min_size=1,
            max_size=80,
        ),
        q=st.one_of(
            st.sampled_from((0, 95, 99, 100)),
            st.floats(min_value=0.0, max_value=100.0),
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_equals_numpy_percentile(self, values, q):
        # The rolling window the autoscaling controller reads is a deque.
        expected = float(np.percentile(np.asarray(values, dtype=float), q))
        assert percentile(deque(values), q) == expected

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile(np.array([]), 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestPercentileStats:
    def test_from_values(self):
        stats = PercentileStats.from_values([1.0, 2.0, 3.0, 4.0])
        assert stats.p50 == 2.5
        assert stats.mean == 2.5
        assert stats.max == 4.0


class TestRequestRecord:
    def test_derived_quantities(self):
        record = make_record(0, 1.0, 2.0, 3.0, 3.5, 6.0)
        assert record.queue_wait_s == 1.0
        assert record.ttft_s == 2.5
        assert record.latency_s == 5.0
        assert record.decode_s == 3.0

    def test_rejects_non_monotonic_timestamps(self):
        with pytest.raises(ValueError):
            make_record(0, 2.0, 1.0, 3.0, 3.5, 6.0)
        with pytest.raises(ValueError):
            make_record(0, 1.0, 2.0, 3.0, 6.5, 6.0)


class TestSummarize:
    def test_aggregates_throughput_and_latency(self):
        records = [
            make_record(0, 0.0, 0.0, 1.0, 1.5, 2.0, output_tokens=10),
            make_record(1, 1.0, 1.0, 2.0, 2.5, 4.0, output_tokens=30),
        ]
        report = summarize(records)
        assert report.n_requests == 2
        assert report.makespan_s == 4.0
        assert report.total_output_tokens == 40
        assert report.requests_per_second == pytest.approx(0.5)
        assert report.tokens_per_second == pytest.approx(10.0)
        assert report.latency.p50 == pytest.approx(2.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize_scalar([])


def random_records(seed, n):
    rng = random.Random(seed)
    records = []
    for request_id in range(n):
        arrival = rng.uniform(0.0, 50.0)
        start = arrival + rng.choice([0.0, rng.uniform(0.0, 2.0)])
        end = start + rng.uniform(1e-6, 3.0)
        first = end + rng.uniform(1e-6, 1.0)
        finish = first + rng.uniform(0.0, 20.0)
        records.append(
            make_record(
                request_id, arrival, start, end, first, finish,
                output_tokens=rng.randint(1, 512),
            )
        )
    return records


class TestVectorizedIdentity:
    """The numpy ``summarize`` is value-identical to the scalar fold."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=120),
    )
    @settings(max_examples=40, deadline=None)
    def test_summarize_equals_scalar_fold(self, seed, n):
        records = random_records(seed, n)
        assert summarize(records) == summarize_scalar(records)

    def test_from_array_equals_from_values(self):
        rng = random.Random(13)
        values = [rng.uniform(0.0, 100.0) for _ in range(257)]
        assert PercentileStats.from_array(
            np.asarray(values, dtype=float)
        ) == PercentileStats.from_values(values)

    def test_from_array_on_zero_and_single_values(self):
        assert PercentileStats.from_array(
            np.array([0.0])
        ) == PercentileStats.from_values([0.0])
        with pytest.raises(ValueError):
            PercentileStats.from_array(np.array([]))


class TestReportEdges:
    """The report helpers behave at the empty and zero boundaries."""

    def test_from_values_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            PercentileStats.from_values([])

    def test_empty_report_rates_are_zero(self):
        from repro.serving import empty_report

        report = empty_report()
        assert report.requests_per_second == 0.0
        assert report.tokens_per_second == 0.0

    def test_format_report_renders_every_quantity(self):
        from repro.serving import format_report

        records = [
            make_record(0, 0.0, 0.0, 0.1, 0.2, 1.0),
            make_record(1, 0.5, 0.6, 0.7, 0.8, 2.0),
        ]
        text = format_report(summarize(records), title="Edge check")
        assert text.splitlines()[0] == "Edge check"
        assert "requests completed : 2" in text
        for label in ("latency", "TTFT", "queue wait", "throughput"):
            assert label in text
