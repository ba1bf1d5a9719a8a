"""Continuous-batching serving engine for one EdgeMM chip.

The engine plays an open-loop request trace against the two-stage EdgeMM
pipeline the paper describes (Fig. 9): the CC-clusters run vision encode +
projection + prefill one request at a time, while the MC-clusters decode a
*dynamic* batch — streams join the decode batch the moment their prefill
finishes (at the next token boundary) and leave the moment their last token
is generated, exactly the continuous-batching discipline of modern LLM
servers.  Decoding a batch re-uses every weight read across the batch, the
same traffic model as :class:`~repro.scheduling.batching.BatchPlanner`.

The simulation is event-driven over three event sources (request arrival,
CC-stage completion, decode-step completion) and entirely deterministic.
Its cost model leans on the memoized
:class:`~repro.core.simulator.PerformanceSimulator`: per-op cycles are
cached by shape and decode contexts are quantized to ``context_bucket``
tokens, so simulating thousands of requests costs thousands of dictionary
lookups, not thousands of full workload simulations.  Every serving cost
lives in one :class:`ChipCosts` memo per simulator and serving knobs, so
every chip, fleet, era and dispatcher built on one simulator prices each
cost once.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core.batch import (
    ServiceTimeBoundsPricer,
    context_bucket_for,
    reachable_buckets,
)
from ..core.pipeline import cc_stage_latency
from ..core.simulator import PerformanceSimulator
from ..models.mllm import InferenceRequest, MLLMConfig
from .metrics import RequestRecord, ServingReport, empty_report, summarize


@dataclass(frozen=True)
class ServingRequest:
    """One request of a serving trace: an arrival time plus a shape."""

    request_id: int
    arrival_s: float
    request: InferenceRequest

    def __post_init__(self) -> None:
        # One chained comparison also rejects NaN.
        if not 0.0 <= self.arrival_s < math.inf:
            raise ValueError(
                f"arrival_s must be finite and >= 0, got {self.arrival_s!r}"
            )


def build_trace(
    arrival_times: Sequence[float], requests: Sequence[InferenceRequest]
) -> List[ServingRequest]:
    """Zip ``arrival_times`` with request shapes (``requests``) into a trace."""
    if len(arrival_times) != len(requests):
        raise ValueError("arrival_times and requests must have equal length")
    return [
        ServingRequest(request_id=index, arrival_s=arrival, request=request)
        for index, (arrival, request) in enumerate(zip(arrival_times, requests))
    ]


#: Decode compute cycles are summed in integer units of 2**-COMPUTE_SCALE_BITS.
COMPUTE_SCALE_BITS = 64


class StepCostError(ValueError):
    """A bucket cost triple the order-free step cost cannot sum exactly."""


class CCLatencyError(ValueError):
    """A CC-stage latency that is not strictly positive and finite."""


def _checked_cc_latency(shape: Tuple[int, int], latency: float) -> float:
    # engine.prefill_windows needs every latency > 0 and finite; NaN fails too.
    if not 0.0 < latency < math.inf:
        raise CCLatencyError(
            f"CC-stage latency of shape {shape} (images, prompt_text_tokens) "
            f"must be positive and finite, got {latency!r}"
        )
    return latency


class ChipCosts:
    """One chip design's serving-cost memo, shared by every chip built on it.

    Every serving cost of a request is a pure function of the chip's
    :class:`~repro.core.simulator.PerformanceSimulator` and three serving
    knobs — the model, the CC bandwidth split and the context bucket — so
    :meth:`of` keeps one memo per knob set in the simulator's ``derived``
    dict.  Chips, fleets, fault eras and dispatchers built on one
    simulator read and fill that memo by reference: a capacity planner
    that hands one simulator to all of a design's fleets prices each cost
    once per design, not once per fleet.  The memo holds

    * each CC shape's stage latency and prompt tokens (:meth:`shape`);
    * each decode bucket's stream pair (:meth:`stream_cost`) and the
      DRAM cycles of each decode step's traffic;
    * each request shape's batch-1 dispatch estimate and its two TTFT
      terms (:meth:`dispatch_terms`).

    The CC stage gets ``cc_bandwidth_fraction`` of the DRAM bandwidth and
    decode the remaining ``1 - cc_bandwidth_fraction``.  A decode step
    shares its weight traffic (and nothing else) across the batch;
    per-stream activation and KV-cache traffic and per-stream compute
    scale with the batch size.  Contexts are quantized to
    ``context_bucket`` tokens, so the per-context cost triple ``(weight
    bytes, per-stream bytes, compute cycles)`` is priced once per bucket
    and reused for every stream and every step that lands in it.

    The step latency is order-free: for the shared weight bytes ``W`` it
    is ``cycles_to_seconds(max(memory_cycles(W + Σ bytes), Σ compute))``,
    where ``Σ compute`` is the exact sum of the streams' compute cycles
    rounded once (``==`` ``math.fsum``), kept by callers as sums of
    per-stream integer pairs (:meth:`stream_cost`).

    It memoizes terms, not new sums, so every caller adds exactly what it
    added on its own.  :meth:`cover` fills it for a trace in one grid
    pass; seeded values (:meth:`seed`) must be the floats the lazy path
    computes, as the bulk pricer's are: entries derived from them are not
    revisited.
    """

    def __init__(
        self,
        simulator: PerformanceSimulator,
        model: MLLMConfig,
        *,
        cc_bandwidth_fraction: float,
        context_bucket: int,
    ) -> None:
        # Keeps the decode share, 1 - cc_bandwidth_fraction, in (0, 1].
        if not 0.0 < cc_bandwidth_fraction < 1.0:
            raise ValueError("cc_bandwidth_fraction must be in (0, 1)")
        if context_bucket < 1:
            raise ValueError("context_bucket must be >= 1")
        self.simulator = simulator
        self.model = model
        self.cc_bandwidth_fraction = cc_bandwidth_fraction
        self.context_bucket = context_bucket
        self.clear()

    def clear(self) -> None:
        """Forget every cost and re-derive both pools from the simulator.

        :meth:`~repro.core.simulator.PerformanceSimulator.clear_cache`
        calls it on every memo it holds, so chips built before a system
        change price against the new system.
        """
        self.cc_pool = "cc" if self.simulator.has_cc else "mc"
        self.pool = "mc" if self.simulator.has_mc else "cc"
        #: (images, prompt text tokens) -> (CC-stage seconds, prompt tokens).
        self.shapes: Dict[Tuple[int, int], Tuple[float, int]] = {}
        #: (images, prompt text tokens, output tokens) -> (batch-1 estimate,
        #: prefill seconds, first decode step seconds).
        self.dispatch: Dict[Tuple[int, int, int], Tuple[float, float, float]] = {}
        #: CC shape -> longest output whose costs :meth:`lacks` found
        #: present (entries are dropped only by :meth:`clear`).
        self._covered: Dict[Tuple[int, int], int] = {}
        #: Decode bucket -> one stream's (bytes, compute) integer pair.
        self._stream_cost: Dict[int, Tuple[int, int]] = {}
        self._weight_bytes: Optional[int] = None
        #: Decode-step traffic bytes -> (memory cycles, their seconds).
        self._memory: Dict[int, Tuple[float, float]] = {}

    @classmethod
    def of(
        cls,
        simulator: PerformanceSimulator,
        model: MLLMConfig,
        *,
        cc_bandwidth_fraction: float,
        context_bucket: int,
    ) -> "ChipCosts":
        """The simulator's memo for these serving knobs, made on first use."""
        key = (cls, model, cc_bandwidth_fraction, context_bucket)
        costs = simulator.derived.get(key)
        if costs is None:
            costs = cls(
                simulator,
                model,
                cc_bandwidth_fraction=cc_bandwidth_fraction,
                context_bucket=context_bucket,
            )
            simulator.derived[key] = costs
        return costs

    def step_cache(self) -> Dict[Tuple[int, ...], float]:
        """Always ``{}``: no step memo exists (e2ebench still reads its size)."""
        return {}

    # ------------------------------------------------------------------
    # The CC stage
    # ------------------------------------------------------------------
    def shape(self, images: int, prompt_text_tokens: int) -> Tuple[float, int]:
        """``(CC-stage seconds, prompt tokens)`` of one CC shape.

        The latency is :func:`~repro.core.pipeline.cc_stage_latency`'s
        (the output length does not enter the CC stage).
        """
        key = (images, prompt_text_tokens)
        entry = self.shapes.get(key)
        if entry is None:
            probe = InferenceRequest(
                images=images, prompt_text_tokens=prompt_text_tokens, output_tokens=1
            )
            latency = cc_stage_latency(
                self.simulator,
                self.model,
                probe,
                pool=self.cc_pool,
                bandwidth_fraction=self.cc_bandwidth_fraction,
            )
            entry = (_checked_cc_latency(key, latency), self.model.prompt_tokens(probe))
            self.shapes[key] = entry
        return entry

    # ------------------------------------------------------------------
    # Decode steps
    # ------------------------------------------------------------------
    def _bucket(self, context: int) -> int:
        # Shared with the analytic service-time bounds: both sides MUST
        # quantize identically or the planner's pruning floors go unsound.
        return context_bucket_for(context, self.context_bucket)

    def _cost(self, bucket: int) -> Tuple[int, int, float]:
        """(shared weight bytes, per-stream bytes, per-stream compute cycles)."""
        phase = self.model.decode_step(bucket)
        keep = self.simulator.effective_keep_fraction()
        weight_bytes = 0
        total_bytes = 0
        compute_cycles = 0.0
        for op in phase.ops:
            execution = self.simulator.execute_op(
                op, pool=self.pool, bandwidth_fraction=1.0
            )
            weight_bytes += op.pruned_weight_bytes(keep)
            total_bytes += execution.dram_bytes
            compute_cycles += execution.compute_cycles
        return weight_bytes, total_bytes - weight_bytes, compute_cycles

    def _stream_pair(
        self, bucket: int, cost: Tuple[int, int, float]
    ) -> Tuple[int, int]:
        """Check one bucket's triple and convert it to its stream pair."""
        weight_bytes, stream_bytes, compute = cost
        shared = self._weight_bytes
        if shared is not None and weight_bytes != shared:
            raise StepCostError(
                f"bucket {bucket}: weight_bytes {weight_bytes} differs from "
                f"the {shared} of the other buckets"
            )
        # ldexp is exact here; NaN and infinities scale to non-integers.
        scaled = math.ldexp(compute, COMPUTE_SCALE_BITS)
        if not (compute >= 0 and scaled.is_integer()):
            raise StepCostError(
                f"bucket {bucket}: compute_cycles must be finite, >= 0 and a "
                f"multiple of 2**-{COMPUTE_SCALE_BITS}, got {compute!r}"
            )
        self._weight_bytes = weight_bytes
        return stream_bytes, int(scaled)

    def stream_cost(self, bucket: int) -> Tuple[int, int]:
        """One stream's opaque ``(bytes, compute)`` integer pair in ``bucket``."""
        pair = self._stream_cost.get(bucket)
        if pair is None:
            pair = self._stream_pair(bucket, self._cost(bucket))
            self._stream_cost[bucket] = pair
        return pair

    def step_latency_s(self, context_lengths: Sequence[int]) -> float:
        """Seconds to generate one token for every stream in the batch."""
        if not context_lengths:
            raise ValueError("context_lengths must not be empty")
        stream_bytes = compute = 0
        for context in context_lengths:
            pair = self.stream_cost(self._bucket(context))
            stream_bytes += pair[0]
            compute += pair[1]
        return self.step_latency_for_sums(stream_bytes, compute)

    def step_latency_for_sums(self, stream_bytes: int, compute: int) -> float:
        """Step latency of a batch from the sums of its streams' pairs."""
        traffic = self._weight_bytes + stream_bytes
        memory = self._memory.get(traffic)
        if memory is None:
            cycles = self.simulator.memory_cycles(
                traffic, self.pool, 1.0 - self.cc_bandwidth_fraction
            )
            memory = (cycles, self.simulator.chip.cycles_to_seconds(cycles))
            self._memory[traffic] = memory
        compute_cycles = math.ldexp(compute, -COMPUTE_SCALE_BITS)
        if memory[0] >= compute_cycles:
            return memory[1]
        return self.simulator.chip.cycles_to_seconds(compute_cycles)

    # ------------------------------------------------------------------
    # Dispatch estimates
    # ------------------------------------------------------------------
    def dispatch_terms(self, request: InferenceRequest) -> Tuple[float, float, float]:
        """``(estimate, prefill, first_step)`` seconds of a batch-1 request.

        ``prefill`` is the CC-stage latency, ``first_step`` one decode step
        at the prompt's context, and the dispatcher's service-time
        estimate is ``prefill + first_step * output_tokens``.
        """
        key = (request.images, request.prompt_text_tokens, request.output_tokens)
        terms = self.dispatch.get(key)
        if terms is None:
            prefill, context = self.shape(request.images, request.prompt_text_tokens)
            first_step = self.step_latency_s([context])
            terms = (
                prefill + first_step * request.output_tokens,
                prefill,
                first_step,
            )
            self.dispatch[key] = terms
        return terms

    # ------------------------------------------------------------------
    # Filling the memo in bulk
    # ------------------------------------------------------------------
    def lacks(self, trace: Sequence[ServingRequest]) -> bool:
        """Whether some request of ``trace`` needs a cost the memo lacks.

        A CC shape without a latency or a reachable decode bucket
        (:func:`~repro.core.batch.reachable_buckets`) without a stream
        pair: the keys a :class:`~repro.core.batch.ServiceTimeBoundsPricer`
        over the trace seeds.  A CC shape's buckets run contiguously from
        its prompt's, so its longest output reaches all of them, and a
        shape checked once for an output length is not checked again.
        """
        longest: Dict[Tuple[int, int], int] = {}
        for item in trace:
            request = item.request
            shape = (request.images, request.prompt_text_tokens)
            if longest.get(shape, 0) < request.output_tokens:
                longest[shape] = request.output_tokens
        has_pair = self._stream_cost.__contains__
        width = self.context_bucket
        covered = self._covered
        for shape, output_tokens in longest.items():
            if covered.get(shape, 0) >= output_tokens:
                continue
            entry = self.shapes.get(shape)
            if entry is None or not all(
                map(has_pair, reachable_buckets(entry[1], output_tokens, width))
            ):
                return True
            covered[shape] = output_tokens
        return False

    def seed(
        self,
        cc_latencies: Dict[Tuple[int, int], float],
        bucket_costs: Dict[int, Tuple[int, int, float]],
    ) -> None:
        """Install one :meth:`~repro.core.batch.ServiceTimeBoundsPricer.seeds` pair."""
        for (images, prompt_text_tokens), latency in cc_latencies.items():
            self.shapes[images, prompt_text_tokens] = (
                _checked_cc_latency((images, prompt_text_tokens), latency),
                # MLLMConfig.prompt_tokens, without a request object.
                self.model.vision_tokens(images) + prompt_text_tokens,
            )
        for bucket, cost in bucket_costs.items():
            self._stream_cost[bucket] = self._stream_pair(bucket, cost)

    def cover(self, trace: Sequence[ServingRequest]) -> None:
        """Price every cost of ``trace`` the memo lacks in one grid pass.

        When :meth:`lacks` finds a gap, one
        :meth:`~repro.core.batch.ServiceTimeBoundsPricer.seeds` call on
        the memo's own system prices the trace's CC shapes and reachable
        decode buckets and :meth:`seed` installs them, so no run of the
        trace prices a cost through the scalar simulator; a memo that
        holds every cost builds no pricer.
        """
        if not self.lacks(trace):
            return
        pricer = ServiceTimeBoundsPricer(
            self.model,
            [item.request for item in trace],
            cc_bandwidth_fraction=self.cc_bandwidth_fraction,
            context_bucket=self.context_bucket,
        )
        [seeds] = pricer.seeds([self.simulator.system])
        self.seed(*seeds)


@dataclass
class _DecodeStream:
    """Book-keeping of one request while it decodes."""

    source: ServingRequest
    prefill_start_s: float
    prefill_end_s: float
    context: int
    generated: int = 0
    first_token_s: Optional[float] = None

    @property
    def target_tokens(self) -> int:
        return self.source.request.output_tokens


@dataclass(frozen=True)
class ServingResult:
    """Outcome of one single-chip serving simulation."""

    records: Tuple[RequestRecord, ...]
    peak_batch_size: int
    decode_steps: int

    @property
    def report(self) -> ServingReport:
        """Aggregate report; all-zero for a chip that served no requests."""
        if not self.records:
            return empty_report()
        return summarize(self.records)


#: Decode-loop implementations of :class:`ContinuousBatchingSimulator`:
#: ``"wave"`` (the default) advances whole constant-composition runs of
#: decode steps in one shot, each folded with its admission cutoff in
#: closed form by :func:`~repro.serving.engine.fold_run`;
#: ``"step"`` executes the original one-iteration-per-step event loop.
#: Both produce bit-identical results; ``"step"`` is retained as the
#: exact oracle the wave engine is tested against.  The engine is chosen
#: on a chip, on a :class:`~repro.serving.fleet.FleetSimulator` and in
#: :func:`~repro.scenarios.runner.build_fleet`, and nowhere above them.
ENGINES: Tuple[str, ...] = ("step", "wave")


class ContinuousBatchingSimulator:
    """Serves an open-loop request trace on one EdgeMM chip.

    The engine models the heterogeneous two-stage pipeline: the CC-stage
    and the decode batch own separate cluster pools and only contend for
    DRAM bandwidth.  On homogeneous chips both stages fall back to the
    single available pool and still run concurrently in simulated time, so
    compute capacity is double-booked there — an optimistic bound, not a
    faithful model of homogeneous serving.

    ``engine`` selects the decode-loop implementation (see :data:`ENGINES`);
    the default ``"wave"`` compresses constant-composition runs of decode
    steps and is typically an order of magnitude faster on large traces,
    with records bit-identical to the per-step loop.
    """

    def __init__(
        self,
        simulator: Optional[PerformanceSimulator] = None,
        model: Optional[MLLMConfig] = None,
        *,
        max_batch_size: int = 8,
        cc_bandwidth_fraction: float = 0.5,
        context_bucket: int = 32,
        chip_id: int = 0,
        engine: str = "wave",
    ) -> None:
        if model is None:
            raise ValueError("a serving simulator needs an MLLM model")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        self.simulator = simulator or PerformanceSimulator()
        self.model = model
        self.max_batch_size = max_batch_size
        self.cc_bandwidth_fraction = cc_bandwidth_fraction
        self.chip_id = chip_id
        self.engine = engine
        # ChipCosts checks the CC split and the bucket width.
        self.cost_model = ChipCosts.of(
            self.simulator,
            model,
            cc_bandwidth_fraction=cc_bandwidth_fraction,
            context_bucket=context_bucket,
        )

    # ------------------------------------------------------------------
    # Stage cost models
    # ------------------------------------------------------------------
    def cc_latency_s(self, request: InferenceRequest) -> float:
        """Encode + projector + prefill latency of one request.

        Shares :func:`~repro.core.pipeline.cc_stage_latency` with the
        pipeline model; results are memoized by the request's CC-stage
        shape in the chip's :class:`ChipCosts` (the output length does not
        affect this stage).
        """
        return self.cost_model.shape(request.images, request.prompt_text_tokens)[0]

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def run(self, trace: Sequence[ServingRequest]) -> ServingResult:
        """Simulate the trace to completion and return per-request records.

        Dispatches to the configured :data:`ENGINES` member: the default
        wave engine (:func:`repro.serving.engine.run_wave`) or the
        per-step oracle loop (:meth:`run_step`).  Both return the same
        :class:`ServingResult` bit for bit.
        """
        if self.engine == "wave":
            from .engine import run_wave

            return run_wave(self, trace)
        return self.run_step(trace)

    def run_step(self, trace: Sequence[ServingRequest]) -> ServingResult:
        """Simulate the trace with the per-step event loop (the oracle).

        One Python iteration per decode step over three event sources
        (arrival, CC-stage completion, decode-step completion).  The
        wave engine is regression-tested for ``==`` record identity
        against this loop; keep their semantics in lockstep.
        """
        if not trace:
            raise ValueError("trace must not be empty")
        pending = sorted(trace, key=lambda r: (r.arrival_s, r.request_id))
        infinity = float("inf")
        records: List[RequestRecord] = []
        cc_queue: Deque[ServingRequest] = deque()
        cc_job: Optional[Tuple[ServingRequest, float, float]] = None
        ready: Deque[_DecodeStream] = deque()
        active: List[_DecodeStream] = []
        step_end: Optional[float] = None
        now = 0.0
        arrival_index = 0
        peak_batch = 0
        decode_steps = 0

        while (
            arrival_index < len(pending)
            or cc_queue
            or cc_job is not None
            or ready
            or active
        ):
            # Start work that can start without advancing time.
            if cc_job is None and cc_queue:
                request = cc_queue.popleft()
                cc_job = (request, now, now + self.cc_latency_s(request.request))
            if step_end is None and (active or ready):
                while ready and len(active) < self.max_batch_size:
                    active.append(ready.popleft())
                peak_batch = max(peak_batch, len(active))
                step_end = now + self.cost_model.step_latency_s(
                    [stream.context for stream in active]
                )
                decode_steps += 1

            next_arrival = (
                pending[arrival_index].arrival_s
                if arrival_index < len(pending)
                else infinity
            )
            next_cc = cc_job[2] if cc_job is not None else infinity
            next_step = step_end if step_end is not None else infinity
            now = min(next_arrival, next_cc, next_step)
            if now == infinity:  # pragma: no cover - loop guard keeps this dead
                raise RuntimeError("serving simulation stalled with work pending")

            while (
                arrival_index < len(pending)
                and pending[arrival_index].arrival_s <= now
            ):
                cc_queue.append(pending[arrival_index])
                arrival_index += 1
            if cc_job is not None and cc_job[2] <= now:
                request, started, finished = cc_job
                ready.append(
                    _DecodeStream(
                        source=request,
                        prefill_start_s=started,
                        prefill_end_s=finished,
                        context=self.model.prompt_tokens(request.request),
                    )
                )
                cc_job = None
            if step_end is not None and step_end <= now:
                still_active: List[_DecodeStream] = []
                for stream in active:
                    stream.generated += 1
                    stream.context += 1
                    if stream.first_token_s is None:
                        stream.first_token_s = now
                    if stream.generated >= stream.target_tokens:
                        records.append(
                            RequestRecord(
                                request_id=stream.source.request_id,
                                request=stream.source.request,
                                arrival_s=stream.source.arrival_s,
                                prefill_start_s=stream.prefill_start_s,
                                prefill_end_s=stream.prefill_end_s,
                                first_token_s=stream.first_token_s,
                                finish_s=now,
                                chip_id=self.chip_id,
                            )
                        )
                    else:
                        still_active.append(stream)
                active = still_active
                step_end = None

        records.sort(key=lambda record: record.request_id)
        return ServingResult(
            records=tuple(records),
            peak_batch_size=peak_batch,
            decode_steps=decode_steps,
        )
