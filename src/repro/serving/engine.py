"""Wave decode engine: compress composition runs, vectorise the cutoff.

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
approximation.  Boundary timestamps are rebuilt by the loop's own left
fold (``t_{i} = t_{i-1} + dt``) — in Python, ``itertools.accumulate`` or
``np.add.accumulate``, which is defined element by element, unlike
``np.sum``'s pairwise reduction — and every ``dt`` is the oracle's float,
since the step cost is order-free and the engine keeps its integer sums
exact.  The one modelling assumption beyond the per-step loop: CC-stage
latencies are strictly positive, so two prefills never complete at the
same instant.
``tests/serving/test_wave_engine.py`` asserts ``==`` equality of every
record field and counter across randomized traces.

Per-stream bookkeeping is kept in *absolute step counts*, so a run costs
O(changed streams), not O(batch).  With a free slot and a prefill in
flight, a run stops at the first boundary at or past that prefill's
completion; long searches for this admission cutoff take one
``np.add.accumulate`` + ``np.searchsorted`` array pass per prefill wave
instead of a step-by-step walk.  A trace is a ``ServingRequest``
sequence; :func:`_wave_columns` turns it into dispatch-ordered columns
once, and every record reuses its request's own
:class:`~repro.models.mllm.InferenceRequest`.  ``docs/performance.md``
(layer 4) has the full derivation.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .metrics import RequestRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .queue import ContinuousBatchingSimulator, ServingRequest, ServingResult

#: Runs at least this long reconstruct their boundary timestamps through
#: ``np.add.accumulate`` instead of a Python fold; below it the array-call
#: overhead exceeds the fold itself.  Either path is the same left fold.
NUMPY_FOLD_MIN = 48

#: Runs at least this long (but below :data:`NUMPY_FOLD_MIN`) fold through
#: ``itertools.accumulate`` — the same element-by-element left fold, run
#: in C; shorter runs stay in a plain Python loop, whose per-call setup
#: is cheaper.  All three paths produce identical floats.
ACCUMULATE_FOLD_MIN = 12


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
    era split (:mod:`repro.serving.faults`) share this one recurrence.
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


#: Admission walks at least this long run through the vectorised
#: fold-and-search cutoff (:func:`run_wave`); shorter walks stay in the
#: scalar loop, whose per-step cost undercuts the array-call overhead.
#: Both paths stop at the identical boundary.
SEARCH_CUTOFF_MIN = 32

#: Relative margin of :func:`run_wave`'s admission screen: a run of ``k``
#: steps of ``dt`` from ``now`` skips the cutoff search only when
#: ``(now + dt * k) * (1 + ADMISSION_SCREEN_MARGIN)`` is still short of
#: the waiting prefill's completion.
ADMISSION_SCREEN_MARGIN = 1e-8

#: Longest output, in tokens, :func:`run_wave` accepts.  No run outlasts
#: the longest output, and a left fold of ``k`` positive terms errs by at
#: most ``γ_k = k·u / (1 − k·u)`` relative (``u = 2**-53``); the screen's
#: own three roundings and its rounded ``1 + margin`` cost four more
#: ``(1 − u)`` factors.  So the screen never skips a needed cutoff search
#: while ``1 + γ_k <= (1 + ADMISSION_SCREEN_MARGIN) · (1 − u)**4`` for
#: ``k = MAX_RUN_STEPS``, which holds up to ``k`` ≈ 9×10^7.
MAX_RUN_STEPS = 2**26


class RunLengthError(ValueError):
    """A trace whose longest output exceeds :data:`MAX_RUN_STEPS`."""


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
    longest = max(outputs)
    if longest > MAX_RUN_STEPS:
        raise RunLengthError(
            f"output_tokens {longest} exceeds the wave engine's "
            f"MAX_RUN_STEPS ({MAX_RUN_STEPS}), the longest run its "
            "admission screen is sound for"
        )
    screen = 1.0 + ADMISSION_SCREEN_MARGIN
    n = len(ids)
    cost_model = chip.cost_model
    step_latency_for_sums = cost_model.step_latency_for_sums
    # Bucket -> stream-pair memo probed inline: a method call at every
    # admit, finish and crossing costs measurably more.  Misses fall
    # through to the cost model, which builds and checks the pair.
    stream_cost = cost_model.stream_cost
    stream_cost_get = cost_model._stream_cost.get
    # Inlined context_bucket_for: quantization runs a few times per
    # request, and the three-deep call chain through the cost model costs
    # more than the arithmetic.  ``test_wave_engine`` pins the inlined
    # form against the canonical helper so the definitions cannot drift.
    width = cost_model.context_bucket
    max_batch = chip.max_batch_size
    chip_id = chip.chip_id

    # Stage 1: the whole CC pipeline, before any decode step.
    prefill_start, prefill_end = prefill_windows(arrivals, latencies)

    # Stage 2: run-compressed decode over the columns.  Streams enter the
    # ready queue in CC completion order == dispatch order, so a single
    # cursor replaces the queue.  Active-stream state lives in parallel
    # lists, in admission order.
    act: List[int] = []  # index into the dispatch-ordered columns
    ctx_offset: List[int] = []  # context - global step count, constant per run
    pairs: List[Tuple[int, int]] = []  # current bucket's stream pair
    cross_at: List[int] = []  # absolute step count of the next bucket change
    finish_at: List[int] = []  # absolute step count of the last token
    first_token: List[Optional[float]] = []
    act_append = act.append
    ctx_offset_append = ctx_offset.append
    pairs_append = pairs.append
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
            ctx_offset_append(context - steps)
            pairs_append(pair)
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
        # Hoisted out of the chain below: neither the batch nor the
        # admission deadline can change across a crossing-only boundary.
        capacity = batch < max_batch and cursor < n
        admit_t = prefill_end[cursor] if capacity else 0.0

        # A *chain* of composition runs: bucket crossings change the step
        # latency but provably admit nobody (the cutoff below stops the
        # chain at any boundary that could), so the chain only ends at a
        # finish or at an admission boundary.
        while True:
            dt = step_latency_for_sums(stream_bytes, compute)
            # Longest run with this composition: up to the earliest finish
            # or bucket crossing (both strictly ahead of the count) ...
            k = (next_cross if next_cross < min_finish else min_finish) - steps
            if capacity and (now + dt * k) * screen >= admit_t:
                # ... but with a free slot and a prefill in flight, the
                # run must stop at the first boundary of the left-fold
                # sequence at or past the next prefill completion.  The
                # screen brackets the folded endpoint within relative
                # ADMISSION_SCREEN_MARGIN, above the fold's worst-case
                # error for any k <= MAX_RUN_STEPS (checked on entry), so
                # it can only ever *keep* a cutoff search, never skip a
                # needed one (the search stays exact).
                if k < SEARCH_CUTOFF_MIN:
                    first_boundary = now + dt
                    boundary = first_boundary
                    run = 1
                    while run < k and boundary < admit_t:
                        boundary += dt
                        run += 1
                    k = run
                else:
                    # One array pass per prefill wave: rebuild the exact
                    # fold, then binary-search the cutoff.  searchsorted
                    # returns how many boundaries fall short of admit_t,
                    # so the walk's stopping index is one past that,
                    # clamped to the run length — the identical boundary
                    # the scalar walk stops at, k array ops sooner.
                    fold = np.empty(k + 1)
                    fold.fill(dt)
                    fold[0] = now
                    folded = np.add.accumulate(fold)
                    run = int(
                        folded[1:].searchsorted(admit_t, "left")
                    ) + 1
                    if run > k:
                        run = k
                    first_boundary = float(folded[1])
                    boundary = float(folded[run])
                    k = run
            elif k >= NUMPY_FOLD_MIN:
                # Long uninterrupted run: the same left fold, vectorised.
                fold = np.empty(k + 1)
                fold.fill(dt)
                fold[0] = now
                folded = np.add.accumulate(fold)
                first_boundary = float(folded[1])
                boundary = float(folded[k])
            elif k >= ACCUMULATE_FOLD_MIN:
                # Medium run: the left fold consumed in C, keeping the
                # last element only (a maxlen-1 deque drains it in C).
                first_boundary = now + dt
                boundary = deque(
                    accumulate(repeat(dt, k - 1), initial=first_boundary),
                    maxlen=1,
                )[0]
            else:
                first_boundary = now + dt
                boundary = first_boundary
                for _ in range(k - 1):
                    boundary += dt
            steps += k
            now = boundary

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
                            request_id=ids[index],
                            request=requests[index],
                            arrival_s=arrivals[index],
                            prefill_start_s=prefill_start[index],
                            prefill_end_s=prefill_end[index],
                            first_token_s=first_token[position],
                            finish_s=boundary,
                            chip_id=chip_id,
                        )
                    )
                    pair = pairs.pop(position)
                    stream_bytes -= pair[0]
                    compute -= pair[1]
                    del act[position]
                    del ctx_offset[position]
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
                    context = ctx_offset[position] + steps
                    bucket = ((max(context, 1) + width - 1) // width) * width
                    old = pairs[position]
                    pair = stream_cost_get(bucket) or stream_cost(bucket)
                    stream_bytes += pair[0] - old[0]
                    compute += pair[1] - old[1]
                    pairs[position] = pair
                    cross_at[position] = steps + bucket - context + 1
                next_cross = min(cross_at)
            if finished:
                break  # a slot may have opened: re-run admission
            if capacity and boundary >= admit_t:
                break  # the waiting prefill is admissible at ``boundary``

    records.sort(key=attrgetter("request_id"))
    return ServingResult(
        records=tuple(records),
        peak_batch_size=peak,
        decode_steps=steps,
    )
