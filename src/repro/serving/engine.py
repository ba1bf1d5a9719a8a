"""Wave decode engine: compress composition runs, fold each in closed form.

The per-step event loop of :meth:`~repro.serving.queue.
ContinuousBatchingSimulator.run_step` pays one Python iteration — a batch
scan, a per-stream cost sum, a per-stream update loop — for *every* decode
step.  :func:`run_wave` removes that scalar hot path by exploiting two
structural invariants of the continuous-batching discipline:

1. **The CC-stage is an independent serial pipeline.**  Vision encode +
   projection + prefill serve requests one at a time, FIFO, and decode
   never back-pressures it, so :func:`prefill_windows` computes every
   request's prefill window up front, before a single decode step runs.

2. **Between external events the batch's bucket composition is constant.**
   The decode-step latency is a pure function of the batch's
   context-bucket composition, which only changes when a stream joins,
   leaves, or crosses a context-bucket boundary.  Between two such
   events every step has the *same* latency ``dt``, so ``k`` consecutive
   steps collapse into one run.

Bit-identity with the per-step loop is a hard guarantee, not an
approximation.  The loop builds boundary timestamps by the left fold
``t_i = t_{i-1} + dt``; :func:`fold_run` returns exactly that fold's
first and stopping boundaries in O(1), from the rounding grid of
``now``'s binade, and walks the fold wherever its closed form does not
apply.  Every ``dt`` is the oracle's float, since the step cost is
order-free and the engine keeps its integer sums exact.  The one
modelling assumption beyond the per-step loop: CC-stage latencies are
strictly positive, so two prefills never complete at the same instant.
``tests/serving/test_wave_engine.py`` asserts ``==`` equality of every
record field and counter across randomized traces, and of
:func:`fold_run` against the walk.

Per-stream bookkeeping is kept in *absolute step counts*, so a run costs
O(changed streams), not O(batch).  With a free slot and a prefill in
flight, a run stops at the first boundary at or past that prefill's
completion, which :func:`fold_run` finds in the same O(1) pass.  A trace
is a ``ServingRequest`` sequence; :func:`_wave_columns` turns it into
dispatch-ordered columns once, and every record reuses its request's own
:class:`~repro.models.mllm.InferenceRequest`.  ``docs/performance.md``
(layer 4) has the full derivation.
"""

from __future__ import annotations

from math import ceil, fmod, ulp
from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .metrics import RequestRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .queue import ContinuousBatchingSimulator, ServingRequest, ServingResult


def prefill_windows(
    arrivals: Sequence[float], latencies: Sequence[float]
) -> Tuple[List[float], List[float]]:
    """Prefill (start, end) lists of the serial CC pipeline, in order.

    ``arrivals`` and ``latencies`` are per-request columns in dispatch
    order (sorted by arrival time, ties by request id); ``latencies``
    holds each request's CC-stage seconds.  Because the CC-stage is a
    serial FIFO pipeline that decode never back-pressures, each window is
    ``start = max(previous end, arrival)``, ``end = start + latency`` —
    the exact floats the per-step event loop produces, since ``max``
    selects an existing float and the addition is the single rounding the
    loop performs.  The wave engine's first stage and the fault path's
    era split (:mod:`repro.serving.controllers`) share this one recurrence.
    """
    starts: List[float] = []
    ends: List[float] = []
    cc_end = 0.0
    for arrival, latency in zip(arrivals, latencies):
        start = arrival if arrival > cc_end else cc_end
        cc_end = start + latency
        starts.append(start)
        ends.append(cc_end)
    return starts, ends


def fold_run(
    now: float, dt: float, k: int, limit: float
) -> Tuple[float, float, int]:
    """First boundary, stopping boundary and length of one run, in O(1).

    The run's exact result is the left fold ``t = now; t += dt`` that
    stops after ``k`` steps (``k >= 1``) or at the first boundary
    ``>= limit``, whichever comes first; pass ``limit = inf`` for a run
    nothing cuts short.  Returns ``(t_1, t_steps, steps)`` — the floats
    and count that fold gives.

    When ``now > 0``, every float in ``[now, top)``, with
    ``u = ulp(now)`` and ``top = 2**53 * u`` (the next power of two above
    a normal ``now``), is a multiple of ``u``.  So while ``t + dt`` stays
    below ``top`` it rounds to ``t + δ``, where ``r = fmod(dt, u)`` and
    ``δ = dt - r``, plus ``u`` when ``r > u/2`` — unless ``r == u/2``,
    whose tie rounds to even and so depends on ``t``.  Without a tie,
    and while ``now + (k-1)·δ + dt < top``, every boundary is the exact
    ``t_i = now + i·δ``, and the cutoff is ``ceil((limit - now) / δ)``,
    checked by exact ``t_i`` comparisons.  A tie, a run that reaches
    ``top`` and ``now <= 0`` walk the fold.
    """
    if now > 0.0:
        u = ulp(now)
        r = fmod(dt, u)
        if r + r != u:
            delta = dt - r + u if r + r > u else dt - r
            if now + (k - 1) * delta + dt < u * 2.0**53:
                first = now + delta
                if k == 1 or first >= limit:
                    return first, first, 1
                if now + (k - 1) * delta < limit:
                    return first, now + k * delta, k
                # t_1 < limit <= t_{k-1}, so delta > 0 and 1 < steps < k.
                # The quotient of two multiples of u below 2**53 * u is
                # already the exact ceiling; the exact t_i comparisons
                # make the cutoff independent of that argument.
                steps = ceil((limit - now) / delta)
                while now + (steps - 1) * delta >= limit:
                    steps -= 1
                while now + steps * delta < limit:
                    steps += 1
                return first, now + steps * delta, steps
    first = boundary = now + dt
    steps = 1
    while steps < k and boundary < limit:
        boundary += dt
        steps += 1
    return first, boundary, steps


def _wave_columns(
    chip: "ContinuousBatchingSimulator", trace: Sequence["ServingRequest"]
) -> tuple:
    """Dispatch-ordered trace columns for :func:`run_wave`.

    Sorts the ``ServingRequest`` trace by ``(arrival_s, request_id)`` —
    the exact dispatch order the per-step oracle uses — into plain
    Python column lists, plus per-request CC-stage latencies and initial
    contexts gathered through the chip's
    :class:`~repro.serving.queue.ChipCosts` memo.
    Returns ``(ids, arrivals, outputs, latencies, contexts, requests)``,
    where ``requests`` holds each request's ``InferenceRequest``.
    """
    pending = sorted(trace, key=lambda r: (r.arrival_s, r.request_id))
    ids = [item.request_id for item in pending]
    arrivals = [item.arrival_s for item in pending]
    requests = [item.request for item in pending]
    outputs = [request.output_tokens for request in requests]

    # CC latencies and prompt-token counts are pure functions of the
    # (images, prompt tokens) shape, memoized in the chip's ChipCosts
    # across runs: read each request's entry, pricing only unseen shapes.
    shapes_get = chip.costs.shapes.get
    shape = chip.costs.shape
    latencies: List[float] = []
    contexts: List[int] = []
    for request in requests:
        key = (request.images, request.prompt_text_tokens)
        entry = shapes_get(key)
        if entry is None:
            entry = shape(*key)
        latencies.append(entry[0])
        contexts.append(entry[1])
    return ids, arrivals, outputs, latencies, contexts, requests


def run_wave(
    chip: "ContinuousBatchingSimulator", trace: Sequence["ServingRequest"]
) -> "ServingResult":
    """Simulate the ``ServingRequest`` ``trace`` on ``chip`` with the wave engine.

    Returns the same :class:`~repro.serving.queue.ServingResult` —
    records, peak batch size and decode-step count — as the per-step
    oracle :meth:`~repro.serving.queue.ContinuousBatchingSimulator.run_step`,
    bit for bit, in one run per constant composition instead of one
    Python iteration per decode step (see the module docstring).
    """
    from .queue import ServingResult

    if len(trace) == 0:
        raise ValueError("trace must not be empty")
    ids, arrivals, outputs, latencies, contexts0, requests = _wave_columns(
        chip, trace
    )
    n = len(ids)
    cost_model = chip.cost_model
    step_latency_for_sums = cost_model.step_latency_for_sums
    # Bucket -> stream-pair memo probed inline: a method call at every
    # admit, finish and crossing costs measurably more.  Misses fall
    # through to the cost model, which builds, checks and memoizes the
    # pair, so an active stream's current bucket is always a hit.
    stream_cost = cost_model.stream_cost
    stream_cost_get = cost_model._stream_cost.get
    # Inlined context_bucket_for: quantization runs once per request, and
    # the three-deep call chain through the cost model costs more than
    # the arithmetic.  ``test_wave_engine`` pins the inlined form against
    # the canonical helper so the definitions cannot drift.
    width = cost_model.context_bucket
    max_batch = chip.max_batch_size
    chip_id = chip.chip_id

    # Stage 1: the whole CC pipeline, before any decode step.
    prefill_start, prefill_end = prefill_windows(arrivals, latencies)

    # Stage 2: run-compressed decode over the columns.  Streams enter the
    # ready queue in CC completion order == dispatch order, so a single
    # cursor replaces the queue.  Active-stream state lives in parallel
    # lists, in admission order.  A stream's context at a crossing is
    # always its bucket + 1, so a crossing raises the bucket by ``width``
    # and the next one lands ``width`` steps later.
    act: List[int] = []  # index into the dispatch-ordered columns
    buckets: List[int] = []  # current context bucket
    cross_at: List[int] = []  # absolute step count of the next bucket change
    finish_at: List[int] = []  # absolute step count of the last token
    first_token: List[Optional[float]] = []
    act_append = act.append
    buckets_append = buckets.append
    cross_at_append = cross_at.append
    finish_at_append = finish_at.append
    first_token_append = first_token.append

    records: List[RequestRecord] = []
    records_append = records.append
    steps = 0  # global decode-step count (the absolute clock)
    peak = 0
    now = 0.0
    cursor = 0  # next stream not yet admitted
    # min(cross_at) / min(finish_at), maintained incrementally: appends
    # can only lower them, and they only need a rescan when the minimum
    # itself is deleted or crossed — rare events relative to chain
    # iterations, so the loop never pays an O(batch) min() per step run.
    inf = float("inf")
    next_cross = inf
    min_finish = inf
    # Sums of the active streams' pairs, the step latency's only inputs.
    stream_bytes = compute = 0

    while act or cursor < n:
        if not act:
            # Decode is idle; it restarts at the next prefill completion.
            restart = prefill_end[cursor]
            if restart > now:
                now = restart
        # Admission at the boundary ``now``: FIFO while a slot is free.
        fresh = 0
        while (
            cursor < n
            and len(act) < max_batch
            and prefill_end[cursor] <= now
        ):
            context = contexts0[cursor]
            bucket = ((max(context, 1) + width - 1) // width) * width
            cross = steps + bucket - context + 1
            finish = steps + outputs[cursor]
            pair = stream_cost_get(bucket) or stream_cost(bucket)
            stream_bytes += pair[0]
            compute += pair[1]
            act_append(cursor)
            buckets_append(bucket)
            cross_at_append(cross)
            finish_at_append(finish)
            first_token_append(None)
            if cross < next_cross:
                next_cross = cross
            if finish < min_finish:
                min_finish = finish
            cursor += 1
            fresh += 1
        batch = len(act)
        if fresh and batch > peak:
            peak = batch
        # With a free slot and a prefill in flight, a run stops at the
        # first boundary at or past that prefill's completion.  Hoisted
        # out of the chain below: neither the batch nor the deadline can
        # change across a crossing-only boundary.
        limit = prefill_end[cursor] if batch < max_batch and cursor < n else inf

        # A *chain* of composition runs: bucket crossings change the step
        # latency but provably admit nobody (the cutoff stops the chain at
        # any boundary that could), so the chain only ends at a finish or
        # at an admission boundary.
        while True:
            dt = step_latency_for_sums(stream_bytes, compute)
            # Longest run with this composition: up to the earliest finish
            # or bucket crossing (both strictly ahead of the count).
            first_boundary, now, run = fold_run(
                now,
                dt,
                (next_cross if next_cross < min_finish else min_finish) - steps,
                limit,
            )
            steps += run

            # Streams admitted at the chain's start see their first token
            # at the end of its first step.  They sit at the tail of
            # ``act`` (everyone admitted earlier decoded a step already).
            if fresh:
                for position in range(batch - fresh, batch):
                    first_token[position] = first_boundary
                fresh = 0

            # Containment probes and ``index`` run at C speed, so the
            # common events — one stream finishing, one stream crossing —
            # cost two list scans, not a Python pass over the batch.
            finished = min_finish == steps
            if finished:
                # At least one stream emitted its last token here.
                while steps in finish_at:
                    position = finish_at.index(steps)
                    index = act[position]
                    records_append(
                        RequestRecord(
                            ids[index],
                            requests[index],
                            arrivals[index],
                            prefill_start[index],
                            prefill_end[index],
                            first_token[position],
                            now,
                            chip_id,
                        )
                    )
                    pair = stream_cost_get(buckets.pop(position))
                    stream_bytes -= pair[0]
                    compute -= pair[1]
                    del act[position]
                    removed = cross_at[position]
                    del cross_at[position]
                    del finish_at[position]
                    del first_token[position]
                    if removed == next_cross:
                        next_cross = min(cross_at) if act else inf
                min_finish = min(finish_at) if act else inf
            if next_cross == steps:
                # A crosser may also have been a finisher, removed above.
                while steps in cross_at:
                    position = cross_at.index(steps)
                    bucket = buckets[position]
                    old = stream_cost_get(bucket)
                    bucket += width
                    pair = stream_cost_get(bucket) or stream_cost(bucket)
                    stream_bytes += pair[0] - old[0]
                    compute += pair[1] - old[1]
                    buckets[position] = bucket
                    cross_at[position] = steps + width
                next_cross = min(cross_at)
            if finished or now >= limit:
                # A slot may have opened, or the waiting prefill is
                # admissible at ``now``: re-run admission.
                break

    records.sort(key=attrgetter("request_id"))
    return ServingResult(
        records=tuple(records),
        peak_batch_size=peak,
        decode_steps=steps,
    )
