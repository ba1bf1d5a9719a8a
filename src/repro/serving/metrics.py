"""Serving-level metrics: per-request records and traffic-wide statistics.

The serving simulator produces one :class:`RequestRecord` per request with
the full timestamp trail (arrival -> prefill start -> first token ->
completion).  :func:`summarize` folds a batch of records into the
:class:`ServingReport` a deployment study reads: latency and TTFT
percentiles, queueing delay and aggregate throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..codec import Spec
from ..models.mllm import InferenceRequest


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values``, linearly interpolated.

    NumPy's default ``linear`` method in pure Python, operation for
    operation over ``sorted(values)``, so it returns ``np.percentile``'s
    float (property-tested ``==``) without an array round trip on the
    small windows the autoscaling controller reads per arrival.
    """
    if len(values) == 0:
        raise ValueError("values must not be empty")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    return _sorted_percentile(sorted(values), q)


def _sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of the already sorted, non-empty ``ordered``."""
    position = (len(ordered) - 1) * (q / 100)
    index = math.floor(position)
    # Past the last order statistic NumPy interpolates it with itself.
    low = ordered[index]
    high = ordered[min(index + 1, len(ordered) - 1)]
    gamma = position - index
    if gamma < 0.5:
        return float(low + (high - low) * gamma)
    return float(high - (high - low) * (1 - gamma))


@dataclass(frozen=True)
class RequestRecord:
    """Timestamp trail of one served request (all times in seconds)."""

    request_id: int
    request: InferenceRequest
    arrival_s: float
    prefill_start_s: float
    prefill_end_s: float
    first_token_s: float
    finish_s: float
    chip_id: int = 0

    def __post_init__(self) -> None:
        # Chained comparisons instead of a generator scan: this runs once
        # per simulated request, a measurable slice of a 100k-request run.
        if not (
            self.arrival_s
            <= self.prefill_start_s
            <= self.prefill_end_s
            <= self.first_token_s
            <= self.finish_s
        ):
            trail = (
                self.arrival_s,
                self.prefill_start_s,
                self.prefill_end_s,
                self.first_token_s,
                self.finish_s,
            )
            raise ValueError(
                f"request {self.request_id}: timestamps must be monotonic, got {trail}"
            )

    @property
    def queue_wait_s(self) -> float:
        """Time spent waiting before the CC-stage started the request."""
        return self.prefill_start_s - self.arrival_s

    @property
    def ttft_s(self) -> float:
        """Time to first token, measured from arrival."""
        return self.first_token_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """End-to-end request latency (arrival to last token)."""
        return self.finish_s - self.arrival_s

    @property
    def decode_s(self) -> float:
        """Time spent in the decode stage (first admission to last token)."""
        return self.finish_s - self.prefill_end_s

    @property
    def output_tokens(self) -> int:
        """Tokens the request generated (its requested output length)."""
        return self.request.output_tokens


@dataclass(frozen=True)
class PercentileStats(Spec):
    """p50/p95/p99 plus mean and max of one latency-like quantity."""

    p50: float
    p95: float
    p99: float
    mean: float
    max: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "PercentileStats":
        """Fold a non-empty sequence of ``values`` into the statistics."""
        if len(values) == 0:
            raise ValueError("values must not be empty")
        return cls(
            p50=percentile(values, 50),
            p95=percentile(values, 95),
            p99=percentile(values, 99),
            mean=sum(values) / len(values),
            max=max(values),
        )

    @classmethod
    def from_array(cls, values: np.ndarray) -> "PercentileStats":
        """Fold a non-empty float array into the statistics.

        Value-identical to :meth:`from_values` on the same numbers: the
        array is sorted once and the three percentiles read through
        :func:`percentile`'s formula (``==`` ``numpy.percentile``), the
        max picks an existing float, and the mean's summation is
        ``np.add.accumulate`` — a strict left fold, the same order as the
        scalar ``sum`` (whose ``0.0`` start adds exactly).  Regression-
        tested against the scalar path and ``numpy.percentile``.
        """
        if values.size == 0:
            raise ValueError("values must not be empty")
        ordered = sorted(values.tolist())
        return cls(
            p50=_sorted_percentile(ordered, 50),
            p95=_sorted_percentile(ordered, 95),
            p99=_sorted_percentile(ordered, 99),
            mean=float(np.add.accumulate(values)[-1]) / values.size,
            max=ordered[-1],
        )


@dataclass(frozen=True)
class ServingReport:
    """Aggregate statistics over one serving-simulation run."""

    n_requests: int
    makespan_s: float
    total_output_tokens: int
    latency: PercentileStats
    ttft: PercentileStats
    queue_wait: PercentileStats

    @property
    def requests_per_second(self) -> float:
        """Completed requests per second of simulated time."""
        if self.makespan_s == 0:
            return 0.0
        return self.n_requests / self.makespan_s

    @property
    def tokens_per_second(self) -> float:
        """Generated tokens per second of simulated time."""
        if self.makespan_s == 0:
            return 0.0
        return self.total_output_tokens / self.makespan_s


def empty_report() -> ServingReport:
    """The all-zero report of a server that completed no requests."""
    zeros = PercentileStats(p50=0.0, p95=0.0, p99=0.0, mean=0.0, max=0.0)
    return ServingReport(
        n_requests=0,
        makespan_s=0.0,
        total_output_tokens=0,
        latency=zeros,
        ttft=zeros,
        queue_wait=zeros,
    )


def summarize(records: Sequence[RequestRecord]) -> ServingReport:
    """Fold per-request records into a :class:`ServingReport`.

    One Python pass extracts the timestamp trail into columnar arrays;
    every statistic — makespan, token totals and all three percentile
    groups — then computes vectorised over them.  Values are identical to
    the scalar per-record fold (:func:`summarize_scalar`), which the
    regression suite asserts field for field; the golden scenario reports
    pin the identity byte for byte.
    """
    if not records:
        raise ValueError("records must not be empty")
    n = len(records)
    arrival = np.empty(n)
    prefill_start = np.empty(n)
    first_token = np.empty(n)
    finish = np.empty(n)
    tokens = np.empty(n, dtype=np.int64)
    for index, record in enumerate(records):
        arrival[index] = record.arrival_s
        prefill_start[index] = record.prefill_start_s
        first_token[index] = record.first_token_s
        finish[index] = record.finish_s
        tokens[index] = record.request.output_tokens
    return ServingReport(
        n_requests=n,
        makespan_s=float(finish.max() - arrival.min()),
        total_output_tokens=int(tokens.sum()),
        latency=PercentileStats.from_array(finish - arrival),
        ttft=PercentileStats.from_array(first_token - arrival),
        queue_wait=PercentileStats.from_array(prefill_start - arrival),
    )


def summarize_scalar(records: Sequence[RequestRecord]) -> ServingReport:
    """Per-record scalar fold of ``records`` into a :class:`ServingReport`.

    The reference implementation :func:`summarize` is asserted
    value-identical against — kept runnable (not just in test code) so the
    identity claim stays checkable anywhere a report is produced.
    """
    if not records:
        raise ValueError("records must not be empty")
    makespan = max(record.finish_s for record in records) - min(
        record.arrival_s for record in records
    )
    return ServingReport(
        n_requests=len(records),
        makespan_s=makespan,
        total_output_tokens=sum(record.output_tokens for record in records),
        latency=PercentileStats.from_values([r.latency_s for r in records]),
        ttft=PercentileStats.from_values([r.ttft_s for r in records]),
        queue_wait=PercentileStats.from_values([r.queue_wait_s for r in records]),
    )


def format_report(report: ServingReport, *, title: str = "Serving report") -> str:
    """Human-readable rendering of ``report``, headed by ``title``."""
    lines: List[str] = [title, "-" * len(title)]
    lines.append(f"requests completed : {report.n_requests}")
    lines.append(f"makespan           : {report.makespan_s:.3f} s")
    lines.append(f"throughput         : {report.requests_per_second:.2f} req/s")
    lines.append(f"token throughput   : {report.tokens_per_second:.1f} tokens/s")
    quantities: Dict[str, PercentileStats] = {
        "latency": report.latency,
        "TTFT": report.ttft,
        "queue wait": report.queue_wait,
    }
    for label, stats in quantities.items():
        lines.append(
            f"{label:<11}: p50 {stats.p50 * 1e3:9.2f} ms   "
            f"p95 {stats.p95 * 1e3:9.2f} ms   p99 {stats.p99 * 1e3:9.2f} ms   "
            f"mean {stats.mean * 1e3:9.2f} ms"
        )
    return "\n".join(lines)
