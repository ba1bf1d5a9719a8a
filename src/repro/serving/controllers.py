"""The era controllers that drive every fleet run, one arrival at a time.

Every fleet run — static round-robin or least-loaded dispatch, the
SLO-aware autoscaler, with or without a fault schedule — is *sequential
in arrival order*: each decision depends only on the decisions made for
earlier arrivals.  :func:`controller_for` builds the one controller a
:class:`~repro.serving.fleet.FleetSimulator` runs:
:class:`StaticController` for a static fleet,
:class:`AutoscaleController` for one given an
:class:`~repro.serving.autoscale.AutoscalerConfig`.  A run without
faults plays the empty :class:`~repro.serving.faults.FaultSchedule`, a
timeline with no events.  Both controllers derive from one base, which
holds the dispatch and era bookkeeping, and share one stepwise protocol:

* ``on_arrival`` — feed one arrival (in ``(arrival_s, request_id)``
  order, see :func:`sorted_order`) and take its dispatch, admission and
  scaling decision;
* ``finish_events`` — apply the fault events still due once the stream
  ends;
* ``final_jobs`` — the per-chip engine runs still owed, as
  :class:`ShardJob` values the caller executes (inline for the batch
  path, per-chip actors for the live runtime);
* ``collect`` — fold the executed jobs into the run's
  :class:`~repro.serving.fleet.FleetResult`, the one result of both
  fleet kinds (a static fleet's has no rejections or scaling events).

:meth:`repro.serving.fleet.FleetSimulator.run` drives the controller in a
plain loop over the sorted trace, and the live actor runtime drives the
*same* controller one message at a time, so both planes are equivalent by
construction.  A controller's state after ``k`` arrivals is a function of
those arrivals, so it has no serialized form: a
:class:`repro.serving.runtime.Checkpoint` stores the cursor ``k``, and a
resume feeds a fresh controller the first ``k`` arrivals again.

The simulation is *era-based*: each chip's service history is a sequence
of eras, and every era is one ordinary
:class:`~repro.serving.queue.ContinuousBatchingSimulator` run.  A fault
event closes the target chip's current era at the event time ``T`` by
splitting its dispatched requests at the CC-pipeline boundary:

* :func:`~repro.serving.engine.prefill_windows` prices the era's serial
  CC pipeline exactly; prefill starts are monotone non-decreasing in
  dispatch order, so the requests with ``start >= T`` form a *suffix*
  whose removal cannot perturb anything the prefix did before ``T``
  (suffix prefills end after ``T``, so they never joined decode earlier);
* the prefix replays through the chip's engine — under the ``"drain"``
  policy every in-flight request finishes (the era's drain end is its
  last finish), under ``"abort"`` records finishing after ``T`` are
  discarded and their requests re-dispatch from scratch;
* the unstarted suffix re-dispatches fleet-wide at ``T`` (``chip_down``)
  or moves into the chip's next era (``dram_degrade``), highest
  priority first.

Chips simulate their eras under *synthetic* request ids: a first
dispatch runs under its canonical arrival rank (its position in the
``(arrival_s, request_id)`` order), a re-dispatch under a fresh id past
the trace length.  Each chip therefore breaks arrival ties exactly as a
bare chip run over the same requests would, whatever ids the caller
chose, and a trace already in canonical order with ids equal to
positions reaches the engine as its own request objects.

A degraded era runs on a fresh chip, on a simulator of its own whose
system carries the scaled DRAM tier, so it holds its own serving-cost
memo.  It fills through the same
:meth:`~repro.serving.queue.ChipCosts.cover` grid pass as fleet
precompute, priced against the degraded bandwidth.  Because era splits
use the engine-independent ``prefill_windows`` recurrence and era
replays go through ``chip.run()`` (bit-identical across the ``step``
and ``wave`` engines), fault runs are engine-independent too.

Under the ``"abort"`` policy a closed era's ``decode_steps`` /
``peak_batch_size`` counters reflect the replay that *discovered* the
aborted records (the work the chip had started), not only the kept
records; the per-request records themselves are exact either way.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import deque
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.simulator import PerformanceSimulator
from .autoscale import ScalingEvent
from .engine import prefill_windows
from .faults import FaultEvent, FaultSchedule
from .fleet import FleetResult, FleetSimulator
from .metrics import RequestRecord, percentile
from .queue import ContinuousBatchingSimulator, ServingRequest, ServingResult


@dataclass(frozen=True)
class ShardJob:
    """One engine run a controller still owes: a chip, its sim, its shard.

    ``chip_id`` indexes the fleet (and the live runtime's chip actors);
    ``sim`` is the simulator the shard must run on — usually the fleet
    chip itself, but a degraded-era replacement after a ``dram_degrade``;
    ``shard`` holds the era's requests under their synthetic ids (the
    engine orders them).  Executing a job is always ``sim.run(shard)``;
    jobs for different chips are independent.
    """

    chip_id: int
    sim: ContinuousBatchingSimulator
    shard: Tuple[ServingRequest, ...]

    def run(self) -> ServingResult:
        """Execute the job inline (the batch executor)."""
        return self.sim.run(list(self.shard))


def sorted_order(trace: Sequence[ServingRequest]) -> List[int]:
    """``trace`` indices in the canonical ``(arrival_s, request_id)`` order.

    Every controller must be fed arrivals in exactly this order: it is
    the order a single chip serves ties in, and a first dispatch's rank
    in it is the synthetic id its chip runs it under.
    """
    return sorted(
        range(len(trace)),
        key=lambda i: (trace[i].arrival_s, trace[i].request_id),
    )


def normalize_priorities(
    priorities: Optional[Sequence[float]], n: int
) -> Optional[List[float]]:
    """Per-request admission weights in (0, 1], or ``None`` when uniform.

    ``priorities`` carries one positive value per request of an
    ``n``-request trace.  Weights are priorities divided by the maximum priority, so a
    uniform-priority trace normalizes to exactly 1.0 everywhere and the
    weighted admission arithmetic reduces to the unweighted one bit for
    bit (the differential suite relies on it).
    """
    if priorities is None:
        return None
    if len(priorities) != n:
        raise ValueError(
            f"priorities has {len(priorities)} entries for {n} requests"
        )
    if any(p <= 0 for p in priorities):
        raise ValueError("priorities must be positive")
    top = max(priorities)
    return [p / top for p in priorities]


# ----------------------------------------------------------------------
# Era bookkeeping
# ----------------------------------------------------------------------
class _ChipState:
    """One chip's eras: the open one (chip, floor, shard) and the closed ones."""

    def __init__(self, base: ContinuousBatchingSimulator) -> None:
        self.base = base
        self.sim = base
        self.chip_id = base.chip_id
        self.floor = 0.0
        #: The open era's shard: requests under their synthetic ids and
        #: effective (dispatch) arrivals.
        self.entries: List[ServingRequest] = []
        self.closed: List[ServingResult] = []


def _split_era(
    state: _ChipState, time_s: float, policy: str
) -> Tuple[List[ServingRequest], List[ServingRequest], float]:
    """Close the chip's current era at ``time_s``.

    Returns ``(suffix, aborted, drain_end)``: the entries whose prefill
    had not started (they re-dispatch), the entries the ``"abort"``
    policy killed mid-service (they re-dispatch from scratch), and the
    time the era's kept work actually ends.
    """
    entries = state.entries
    state.entries = []
    if not entries:
        return [], [], time_s
    # The engine's dispatch order: effective arrival, then synthetic id.
    entries.sort(key=lambda item: (item.arrival_s, item.request_id))
    starts, _ = prefill_windows(
        [item.arrival_s for item in entries],
        [state.sim.cc_latency_s(item.request) for item in entries],
    )
    cut = next(
        (position for position, start in enumerate(starts) if start >= time_s),
        len(entries),
    )
    prefix, suffix = entries[:cut], entries[cut:]
    aborted: List[ServingRequest] = []
    drain_end = time_s
    if prefix:
        result = state.sim.run(prefix)
        if policy == "abort":
            kept = tuple(r for r in result.records if r.finish_s <= time_s)
            kept_ids = {record.request_id for record in kept}
            aborted = [
                item for item in prefix if item.request_id not in kept_ids
            ]
            result = ServingResult(
                records=kept,
                peak_batch_size=result.peak_batch_size,
                decode_steps=result.decode_steps,
            )
        elif result.records:
            tail = max(record.finish_s for record in result.records)
            if tail > drain_end:
                drain_end = tail
        state.closed.append(result)
    return suffix, aborted, drain_end


def _degraded_chip(
    base: ContinuousBatchingSimulator,
    factor: float,
    trace: Sequence[ServingRequest],
) -> ContinuousBatchingSimulator:
    """A fresh chip like ``base`` with its DRAM tier scaled by ``factor``.

    The factor is absolute against the chip's healthy baseline.  The chip
    runs on a simulator of its own, so its
    :class:`~repro.serving.queue.ChipCosts` memo is its own too, and
    :meth:`~repro.serving.queue.ChipCosts.cover` prices the CC stages and
    decode buckets of ``trace`` (the whole run's, so every request the
    era may serve) against the degraded tier in one grid pass, as fleet
    precompute does for the healthy chips.
    """
    if factor == 1.0:
        return base
    system = base.simulator.system
    dram = replace(
        system.chip.dram,
        peak_bandwidth_bytes_per_s=(
            system.chip.dram.peak_bandwidth_bytes_per_s * factor
        ),
    )
    degraded = replace(system, chip=replace(system.chip, dram=dram))
    chip = ContinuousBatchingSimulator(
        PerformanceSimulator(degraded),
        base.model,
        max_batch_size=base.max_batch_size,
        cc_bandwidth_fraction=base.cc_bandwidth_fraction,
        context_bucket=base.cost_model.context_bucket,
        chip_id=base.chip_id,
        engine=base.engine,
    )
    chip.cost_model.cover(trace)
    return chip


def _validate_targets(schedule: FaultSchedule, n_chips: int) -> None:
    """Reject schedules targeting chips the fleet does not have."""
    for event in schedule.events:
        if event.chip_id >= n_chips:
            raise ValueError(
                f"fault targets chip {event.chip_id} but the fleet has "
                f"{n_chips} chips"
            )


def _pool_order(
    pool: List[Tuple[int, float]],
    trace: Sequence[ServingRequest],
    weights: Optional[List[float]],
) -> List[Tuple[int, float]]:
    """Displaced ``(index, eff)`` pairs in re-dispatch order.

    Highest priority first, then by the request's own arrival and id.
    """
    return sorted(
        pool,
        key=lambda pair: (
            -(weights[pair[0]] if weights else 1.0),
            trace[pair[0]].arrival_s,
            trace[pair[0]].request_id,
        ),
    )


def _least_loaded(horizons: List[float], targets: Sequence[int]) -> int:
    """The target chip with the earliest horizon, the lowest id on ties."""
    chip_id = targets[0]
    best = horizons[chip_id]
    for candidate in targets:
        if horizons[candidate] < best:
            chip_id = candidate
            best = horizons[candidate]
    return chip_id


# ----------------------------------------------------------------------
# The era controllers
# ----------------------------------------------------------------------
class _EraController:
    """What both era controllers share: the dispatch and era bookkeeping.

    Per-chip era states and horizons, the alive chips, the event cursor,
    the parked arrivals (every chip down) and the run's accounting, plus
    the stepwise protocol around them: :meth:`finish_events`,
    :meth:`final_jobs` and :meth:`collect`.  Subclasses pick each
    request's chip (:meth:`_place`) and take the per-arrival decision
    (``on_arrival``).  A first dispatch runs under its canonical arrival
    rank as synthetic id (``order`` maps ranks back to trace positions);
    a re-dispatch allocates a fresh id past the trace length (``origin``
    maps it back), so a request displaced twice stays unambiguous.
    A controller needs the full ``trace`` up front: priority
    normalization is global and era re-dispatch reaches requests by
    trace position.  ``schedule`` defaults to the empty
    :class:`FaultSchedule`.
    """

    #: The checkpoint ``kind`` naming the controller.  The strings predate
    #: the class names and stay, so written checkpoints keep loading.
    kind = ""

    def __init__(
        self,
        fleet: FleetSimulator,
        trace: Sequence[ServingRequest],
        schedule: Optional[FaultSchedule] = None,
        priorities: Optional[Sequence[float]] = None,
    ) -> None:
        if not trace:
            raise ValueError("trace must not be empty")
        schedule = schedule if schedule is not None else FaultSchedule()
        _validate_targets(schedule, fleet.n_chips)
        self.fleet = fleet
        self.trace = trace
        self.schedule = schedule
        self.weights = normalize_priorities(priorities, len(trace))
        fleet.precompute_service_times(trace)
        self.states = [_ChipState(chip) for chip in fleet.chips]
        #: Chip ids currently admitting work, in id order.
        self.alive: List[int] = list(range(fleet.n_chips))
        #: Chips receiving new requests: all of a static fleet's, the
        #: autoscaler's active prefix of an autoscaled one.
        self.n_active = fleet.n_chips
        #: Trace position of every arrival seen, by canonical rank.
        self.order: List[int] = []
        self.next_sid = len(trace)
        self.origin: Dict[int, int] = {}
        self.assignments = [-1] * len(trace)
        #: Trace positions a ``chip_down`` displaced unstarted or killed,
        #: and that admission control rejected.
        self.redispatched: List[int] = []
        self.aborted: List[int] = []
        self.rejected: List[int] = []
        self.scale_events: List[ScalingEvent] = []
        self.event_pos = 0
        self.horizons = [0.0] * fleet.n_chips
        #: ``(index, eff, sid)`` of requests waiting for a chip to return.
        self.parked: List[Tuple[int, float, int]] = []

    @property
    def n_seen(self) -> int:
        """Arrivals processed so far (the checkpoint cursor)."""
        return len(self.order)

    def _place(self, index: int, eff: float, sid: int) -> int:
        """Dispatch one request onto a target; returns its chip id."""
        raise NotImplementedError

    def _enqueue(self, chip_id: int, index: int, eff: float, sid: int) -> None:
        """Append trace position ``index`` to ``chip_id``'s open era at ``eff``.

        The chip runs it under synthetic id ``sid``; the trace's own
        request object is reused when it already carries that id and
        arrival.
        """
        source = self.trace[index]
        if sid != source.request_id or eff != source.arrival_s:
            source = ServingRequest(
                request_id=sid, arrival_s=eff, request=source.request
            )
        self.states[chip_id].entries.append(source)
        self.assignments[index] = chip_id

    def _arrive(self, index: int, now: float) -> int:
        """Rank one arrival and apply the fault events due by ``now``."""
        order = self.order
        order.append(index)
        # Most arrivals have no event due: test before calling.
        events = self.schedule.events
        if self.event_pos < len(events) and events[self.event_pos].time_s <= now:
            self._advance(now)
        return len(order) - 1

    def _advance(self, until: float) -> None:
        """Apply every scheduled event at or before ``until``."""
        events = self.schedule.events
        while (
            self.event_pos < len(events)
            and events[self.event_pos].time_s <= until
        ):
            self._apply(events[self.event_pos])
            self.event_pos += 1

    def _index_of(self, sid: int) -> int:
        """The trace position a synthetic id maps back to."""
        return self.order[sid] if sid < len(self.trace) else self.origin[sid]

    def _displaced(
        self, items: List[ServingRequest]
    ) -> List[Tuple[int, float]]:
        """The ``(trace position, eff)`` pairs of era entries leaving a chip."""
        return [
            (self._index_of(item.request_id), item.arrival_s) for item in items
        ]

    def _apply(self, event: FaultEvent) -> None:
        """Apply one fault event and re-dispatch the work it displaced.

        ``chip_down`` closes the chip's era and re-dispatches its
        unstarted (and, under ``"abort"``, killed) requests at the event
        time, highest priority first, or parks them while no chip is
        alive.  ``chip_up`` reopens the chip no earlier than its drain
        end and places the parked requests.  ``dram_degrade`` is not
        failure: in-flight work always drains at the pre-degrade speed,
        and the unstarted suffix stays on the chip, carried into the
        degraded era.
        """
        state = self.states[event.chip_id]
        displaced: List[Tuple[int, float]] = []
        if event.kind == "chip_down":
            suffix, aborted, drain_end = _split_era(
                state, event.time_s, self.schedule.drain_policy
            )
            self.alive.remove(event.chip_id)
            state.floor = drain_end
            unstarted = self._displaced(suffix)
            killed = self._displaced(aborted)
            self.redispatched.extend(index for index, _ in unstarted)
            self.aborted.extend(index for index, _ in killed)
            displaced = unstarted + killed
        elif event.kind == "chip_up":
            insort(self.alive, event.chip_id)
            state.floor = max(event.time_s, state.floor)
            self.horizons[event.chip_id] = state.floor
            flush, self.parked = self.parked, []
            for index, eff, sid in flush:
                self._place(index, max(eff, event.time_s), sid)
        else:
            suffix, _, drain_end = _split_era(state, event.time_s, "drain")
            state.floor = max(event.time_s, drain_end)
            state.sim = _degraded_chip(state.base, event.factor, self.trace)
            state.entries = [
                item
                if item.arrival_s >= state.floor
                else replace(item, arrival_s=state.floor)
                for item in suffix
            ]
        for index, eff in _pool_order(displaced, self.trace, self.weights):
            sid = self.next_sid
            self.next_sid += 1
            self.origin[sid] = index
            if self.alive:
                self._place(index, max(eff, event.time_s), sid)
            else:
                self.parked.append((index, eff, sid))

    def finish_events(self) -> None:
        """Apply trailing fault events; raise if requests stayed parked."""
        self._advance(float("inf"))
        if self.parked:
            raise ValueError(
                f"{len(self.parked)} requests were never dispatched: every "
                "chip was down through the end of the trace"
            )

    def final_jobs(self) -> List[ShardJob]:
        """The engine run closing each open era that holds requests.

        Jobs carry the era sim — the degraded replacement chip when the
        era is degraded — so either executor (inline or a chip actor)
        runs the same simulator.
        """
        return [
            ShardJob(
                chip_id=state.chip_id, sim=state.sim, shard=tuple(state.entries)
            )
            for state in self.states
            if state.entries
        ]

    def collect(self, results: Mapping[int, ServingResult]) -> FleetResult:
        """Fold the executed :meth:`final_jobs` into a :class:`FleetResult`.

        ``results`` maps chip ids to their closing eras' results.
        ``per_chip`` keeps the synthetic ids, sorted by id.  The merged
        records carry true ids and arrivals, ordered by request id, then
        chip, then completion — the order a bare run of each chip's
        requests emits, so duplicate caller ids keep it too.
        """
        trace = self.trace
        n = len(trace)
        order = self.order
        origin = self.origin
        by_id = attrgetter("request_id")
        per_chip: List[ServingResult] = []
        records: List[RequestRecord] = []
        for state in self.states:
            closing = results.get(state.chip_id)
            if closing is not None:
                state.closed.append(closing)
                state.entries = []
            merged = [
                record for result in state.closed for record in result.records
            ]
            merged.sort(key=by_id)
            per_chip.append(
                ServingResult(
                    records=tuple(merged),
                    peak_batch_size=max(
                        (result.peak_batch_size for result in state.closed),
                        default=0,
                    ),
                    decode_steps=sum(
                        result.decode_steps for result in state.closed
                    ),
                )
            )
            merged.sort(key=attrgetter("finish_s"))
            for record in merged:
                sid = record.request_id
                source = trace[order[sid] if sid < n else origin[sid]]
                if (
                    sid != source.request_id
                    or record.arrival_s != source.arrival_s
                ):
                    record = replace(
                        record,
                        request_id=source.request_id,
                        arrival_s=source.arrival_s,
                    )
                records.append(record)
        records.sort(key=by_id)
        return FleetResult(
            records=tuple(records),
            per_chip=tuple(per_chip),
            assignments=tuple(self.assignments),
            final_chips=self.n_active,
            fault_events=self.schedule.events,
            redispatched_ids=tuple(
                trace[i].request_id for i in self.redispatched
            ),
            aborted_ids=tuple(trace[i].request_id for i in self.aborted),
            rejected_ids=tuple(trace[i].request_id for i in self.rejected),
            events=tuple(self.scale_events),
        )


class StaticController(_EraController):
    """The era controller of a static fleet: one arrival at a time.

    Dispatch follows the fleet's policy over the *alive* chips only —
    round-robin cycles them, least-loaded scans their dispatcher-side
    horizons.  A ``chip_down`` re-dispatches the dead chip's unstarted
    (and, under ``"abort"``, killed) requests across the survivors at
    the event time, highest ``priorities`` first; requests arriving
    while every chip is down park until a ``chip_up``.
    """

    kind = "fault_fleet"

    def __init__(
        self,
        fleet: FleetSimulator,
        trace: Sequence[ServingRequest],
        schedule: Optional[FaultSchedule] = None,
        priorities: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(fleet, trace, schedule, priorities)
        self.round_robin = fleet.policy == "round_robin"
        self.rr_position = 0

    def _place(self, index: int, eff: float, sid: int) -> int:
        # Runs once per arrival, so the two ``max`` folds are spelled as
        # conditionals (same floats: ``max`` keeps its first argument on
        # ties).
        targets = self.alive
        horizons = self.horizons
        if self.round_robin:
            chip_id = targets[self.rr_position % len(targets)]
            self.rr_position += 1
        else:
            chip_id = _least_loaded(horizons, targets)
        state = self.states[chip_id]
        if state.floor > eff:
            eff = state.floor
        if not self.round_robin:
            # Round-robin never reads the horizons, so only least-loaded
            # dispatch prices the request, against the current era's chip.
            horizon = horizons[chip_id]
            horizons[chip_id] = (eff if eff > horizon else horizon) + (
                state.sim.cost_model.dispatch_terms(self.trace[index].request)[0]
            )
        self._enqueue(chip_id, index, eff, sid)
        return chip_id

    def on_arrival(self, index: int, request: ServingRequest) -> int:
        """Apply due fault events, then dispatch (or park) one arrival.

        Returns the assigned chip id, or ``-1`` when every chip is down
        and the request parks until a ``chip_up``.
        """
        now = request.arrival_s
        rank = self._arrive(index, now)
        if not self.alive:
            self.parked.append((index, now, rank))
            return -1
        return self._place(index, now, rank)


class AutoscaleController(_EraController):
    """The era controller of an autoscaled fleet: one arrival at a time.

    The SLO-aware control loop — the admission heap, the rolling TTFT
    window, the cooldown clock and the scaling decisions — restricted to
    the alive prefix of the fleet.  Per-request admission depth scales
    with the request's priority weight (``max(1, int(depth * weight))``,
    exactly the unweighted limit at uniform priorities), and fault
    events displace and re-dispatch work as on a static fleet
    (displaced requests bypass admission — they were already admitted
    once).  The in-flight depth estimates of a dead chip stay in the
    heap (a dispatcher cannot observe them individually); they age out
    by their estimated finish times.
    """

    kind = "fault_autoscale"

    def __init__(
        self,
        fleet: FleetSimulator,
        trace: Sequence[ServingRequest],
        schedule: Optional[FaultSchedule] = None,
        priorities: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(fleet, trace, schedule, priorities)
        self.config = fleet.autoscaler
        self.inflight: List[float] = []
        self.ttft_window: Deque[float] = deque(maxlen=self.config.window)
        self.n_active = self.config.min_chips
        self.last_scale = float("-inf")

    def _targets(self) -> Sequence[int]:
        return self.alive[: self.n_active]

    def _place(self, index: int, eff: float, sid: int) -> int:
        chip_id = _least_loaded(self.horizons, self._targets())
        state = self.states[chip_id]
        eff = max(eff, state.floor)
        source = self.trace[index]
        cost, prefill, first_step = state.sim.cost_model.dispatch_terms(
            source.request
        )
        start = max(self.horizons[chip_id], eff)
        self.ttft_window.append(
            start + prefill + first_step - source.arrival_s
        )
        self.horizons[chip_id] = start + cost
        heapq.heappush(self.inflight, self.horizons[chip_id])
        self._enqueue(chip_id, index, eff, sid)
        return chip_id

    def on_arrival(self, index: int, request: ServingRequest) -> int:
        """Apply due fault events, then admit/dispatch one arrival.

        Returns the assigned chip id, or ``-1`` when the request was
        rejected by admission control or parked (every chip down).
        """
        config = self.config
        now = request.arrival_s
        rank = self._arrive(index, now)
        targets = self._targets()
        if not targets:
            self.parked.append((index, now, rank))
            return -1

        while self.inflight and self.inflight[0] <= now:
            heapq.heappop(self.inflight)
        effective = now
        weight = self.weights[index] if self.weights is not None else 1.0
        depth_limit = max(
            1, int(config.max_queue_depth * len(targets) * weight)
        )
        if len(self.inflight) >= depth_limit:
            if config.admission == "reject":
                self.rejected.append(index)
                return -1
            overflow = len(self.inflight) - depth_limit + 1
            for _ in range(overflow):
                effective = heapq.heappop(self.inflight)

        chip_id = self._place(index, effective, rank)

        if (
            len(self.ttft_window) >= config.min_observations
            and now - self.last_scale >= config.cooldown_s
        ):
            rolling = percentile(self.ttft_window, 99)
            target = config.target_p99_ttft_s
            if (
                rolling > target * config.scale_up_ratio
                and self.n_active < config.max_chips
            ):
                self._scale(now, rolling, +1)
            elif (
                rolling < target * config.scale_down_ratio
                and self.n_active > config.min_chips
            ):
                self._scale(now, rolling, -1)
        return chip_id

    def _scale(self, now: float, rolling: float, step: int) -> None:
        self.scale_events.append(
            ScalingEvent(
                time_s=now,
                n_chips_before=self.n_active,
                n_chips_after=self.n_active + step,
                rolling_p99_ttft_s=rolling,
            )
        )
        self.n_active += step
        self.last_scale = now


def controller_for(
    fleet: FleetSimulator,
    trace: Sequence[ServingRequest],
    *,
    faults: Optional[FaultSchedule] = None,
    priorities: Optional[Sequence[float]] = None,
) -> _EraController:
    """The era controller that drives ``fleet`` over ``trace``.

    An :class:`AutoscaleController` when ``fleet.autoscaler`` is set,
    else a :class:`StaticController`.  ``faults`` is the controller's
    :class:`~repro.serving.faults.FaultSchedule` (``None`` plays the
    empty schedule) and ``priorities`` its per-request admission and
    re-dispatch weights, validated on every run.  The controller needs
    the full ``trace`` up front, for priority normalization and era
    re-dispatch.
    """
    cls = StaticController if fleet.autoscaler is None else AutoscaleController
    return cls(fleet, trace, faults, priorities=priorities)


__all__ = [
    "AutoscaleController",
    "ShardJob",
    "StaticController",
    "controller_for",
    "normalize_priorities",
    "sorted_order",
]
