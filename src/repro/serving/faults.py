"""Fault injection for fleet serving: chip loss, recovery, DRAM degradation.

A :class:`FaultSchedule` is a deterministic timeline of fleet faults —
``chip_down`` (a chip stops admitting work), ``chip_up`` (it rejoins the
fleet) and ``dram_degrade`` (its DRAM tier drops to a fraction of the
healthy bandwidth).  :func:`run_fleet_with_faults` and
:func:`run_autoscale_with_faults` play a trace through the existing
:class:`~repro.serving.fleet.FleetSimulator` /
:class:`~repro.serving.autoscale.AutoscalingFleetSimulator` machinery
under such a schedule, with weighted-priority admission on top.

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

A degraded era runs on a fresh chip whose system carries the scaled
DRAM tier; its decode bucket-cost triples seed from the healthy chip
(they are bandwidth-free byte/cycle quantities, see
:meth:`~repro.planner.evaluate.DesignWarmCache.delta_seed_from`), while
CC-stage and whole-step latencies recompute against the degraded
bandwidth.  Because era splits use the engine-independent
``prefill_windows`` recurrence and era replays go through
``chip.run()`` (bit-identical across the ``step`` and ``wave``
engines), fault runs are engine-independent too — and an *empty*
schedule reproduces the fault-free path ``==``-identically, which the
differential chaos suite asserts.

Under the ``"abort"`` policy a closed era's ``decode_steps`` /
``peak_batch_size`` counters reflect the replay that *discovered* the
aborted records (the work the chip had started), not only the kept
records; the per-request records themselves are exact either way.

These are *modelled* hardware faults — part of what the simulation
computes.  They compose freely with the *runtime* faults of
:mod:`repro.serving.runtime.chaos` (crashed actors, dropped messages),
which attack the control plane executing the computation and must not
change its result: a fault-schedule scenario run under a chaos schedule
still reproduces its fault summary byte-identically.  Both planes meet
in :func:`~repro.serving.dispatch.make_controller`, which wraps this
module's simulators behind the same stepwise controller protocol the
live runtime drives.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, replace
from typing import (
    Any,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.simulator import PerformanceSimulator
from ..models.mllm import InferenceRequest
from .autoscale import AutoscaleResult, ScalingEvent
from .engine import prefill_windows
from .fleet import FleetResult, FleetSimulator
from .metrics import RequestRecord, percentile
from .queue import ContinuousBatchingSimulator, ServingRequest, ServingResult

FAULT_KINDS: Tuple[str, ...] = ("chip_down", "chip_up", "dram_degrade")
DRAIN_POLICIES: Tuple[str, ...] = ("drain", "abort")

#: Post-fault records per tumbling window of the recovery metrics.
RECOVERY_WINDOW = 32
#: A post-fault window has recovered once its p99 TTFT is back within
#: this multiple of the pre-fault baseline.
RECOVERY_TOLERANCE = 1.1


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fleet fault: a kind, a time and a target chip.

    ``factor`` applies to ``dram_degrade`` only: the degraded DRAM
    bandwidth as a fraction of the chip's *healthy* baseline (absolute,
    not compounding — a second degrade replaces the first).
    """

    time_s: float
    kind: str
    chip_id: int
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.time_s < 0:
            raise ValueError("fault time_s must be >= 0")
        if self.chip_id < 0:
            raise ValueError("fault chip_id must be >= 0")
        if self.kind == "dram_degrade":
            if not 0.0 < self.factor <= 1.0:
                raise ValueError("dram_degrade factor must be in (0, 1]")
        elif self.factor != 1.0:
            raise ValueError("factor only applies to dram_degrade events")

    def to_dict(self) -> Dict[str, Any]:
        """Serialize the event to plain JSON data (factor only if used)."""
        data: Dict[str, Any] = {
            "time_s": self.time_s,
            "kind": self.kind,
            "chip_id": self.chip_id,
        }
        if self.kind == "dram_degrade":
            data["factor"] = self.factor
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultEvent":
        """Rebuild an event from :meth:`to_dict` data."""
        return cls(
            time_s=float(data["time_s"]),
            kind=str(data["kind"]),
            chip_id=int(data["chip_id"]),
            factor=float(data.get("factor", 1.0)),
        )


@dataclass(frozen=True)
class FaultSchedule:
    """A deterministic, time-ordered timeline of fleet fault events.

    ``drain_policy`` governs what a dying chip does with requests whose
    prefill already started: ``"drain"`` finishes them in place (the
    fleet model of graceful decommission), ``"abort"`` discards any
    record unfinished at the event time and re-dispatches the request
    from scratch (hard failure; no work is lost *or* duplicated — the
    conservation property suite asserts it).
    """

    events: Tuple[FaultEvent, ...] = ()
    drain_policy: str = "drain"

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if self.drain_policy not in DRAIN_POLICIES:
            raise ValueError(
                f"drain_policy must be one of {DRAIN_POLICIES}, "
                f"got {self.drain_policy!r}"
            )
        down: set = set()
        last = float("-inf")
        for event in self.events:
            if event.time_s < last:
                raise ValueError("fault events must be sorted by time_s")
            last = event.time_s
            if event.kind == "chip_down":
                if event.chip_id in down:
                    raise ValueError(
                        f"chip {event.chip_id} goes down twice without a "
                        "chip_up in between"
                    )
                down.add(event.chip_id)
            elif event.kind == "chip_up":
                if event.chip_id not in down:
                    raise ValueError(
                        f"chip {event.chip_id} comes up without being down"
                    )
                down.discard(event.chip_id)
            elif event.chip_id in down:
                raise ValueError(
                    f"chip {event.chip_id} cannot degrade while down"
                )

    def to_dict(self) -> Dict[str, Any]:
        """Serialize the schedule to plain JSON data."""
        return {
            "drain_policy": self.drain_policy,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSchedule":
        """Rebuild a schedule from :meth:`to_dict` data."""
        return cls(
            events=tuple(
                FaultEvent.from_dict(event) for event in data.get("events", ())
            ),
            drain_policy=str(data.get("drain_policy", "drain")),
        )


@dataclass(frozen=True)
class FaultFleetResult(FleetResult):
    """Static-fleet outcome under a fault schedule.

    Extends :class:`~repro.serving.fleet.FleetResult` with the applied
    schedule and the displaced-request accounting; ``per_chip`` records
    carry the fault path's synthetic positional ids (original ids are
    restored on the merged ``records``).
    """

    fault_events: Tuple[FaultEvent, ...] = ()
    redispatched_ids: Tuple[int, ...] = ()
    aborted_ids: Tuple[int, ...] = ()


@dataclass(frozen=True)
class FaultAutoscaleResult(AutoscaleResult):
    """Autoscaled-fleet outcome under a fault schedule.

    Extends :class:`~repro.serving.autoscale.AutoscaleResult` with the
    applied schedule and the displaced-request accounting.
    """

    fault_events: Tuple[FaultEvent, ...] = ()
    redispatched_ids: Tuple[int, ...] = ()
    aborted_ids: Tuple[int, ...] = ()


@dataclass(frozen=True)
class FaultRecovery:
    """Measured SLO impact of one disruptive fault event.

    ``baseline_p99_ttft_s`` is the p99 TTFT of all records arriving
    before the event; ``dent_depth_s`` is how far the worst post-event
    tumbling window's p99 rose above it (clamped at zero); and
    ``time_to_recover_s`` is the span from the event to the last arrival
    of the first post-event window whose p99 is back within
    :data:`RECOVERY_TOLERANCE` of the baseline (``None`` when the trace
    ends before recovery).
    """

    event: FaultEvent
    baseline_p99_ttft_s: float
    dent_depth_s: float
    time_to_recover_s: Optional[float]


def fault_recovery(
    records: Sequence[RequestRecord],
    events: Sequence[FaultEvent],
    *,
    window: int = RECOVERY_WINDOW,
    tolerance: float = RECOVERY_TOLERANCE,
) -> Tuple[FaultRecovery, ...]:
    """Recovery metrics of each disruptive event, from the records alone.

    A pure function of the per-request records (arrival-ordered TTFTs
    chunked into ``window``-sized tumbling windows; recovery means a
    window's p99 is back within ``tolerance`` of the pre-event baseline),
    so the metrics are engine-independent by construction and
    re-derivable by any consumer of the raw records.  ``chip_up`` events
    are restorative and skipped.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    ordered = sorted(records, key=lambda r: (r.arrival_s, r.request_id))
    arrivals = [record.arrival_s for record in ordered]
    ttfts = [record.ttft_s for record in ordered]
    out: List[FaultRecovery] = []
    for event in events:
        if event.kind == "chip_up":
            continue
        cut = bisect_left(arrivals, event.time_s)
        pre, post = ttfts[:cut], ttfts[cut:]
        baseline = percentile(pre, 99) if pre else 0.0
        dent = 0.0
        recover: Optional[float] = None
        for start in range(0, len(post), window):
            chunk = post[start : start + window]
            p99 = percentile(chunk, 99)
            if p99 - baseline > dent:
                dent = p99 - baseline
            if recover is None and p99 <= baseline * tolerance:
                last = arrivals[cut + start + len(chunk) - 1]
                recover = last - event.time_s
        out.append(
            FaultRecovery(
                event=event,
                baseline_p99_ttft_s=baseline,
                dent_depth_s=dent,
                time_to_recover_s=recover,
            )
        )
    return tuple(out)


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
@dataclass
class _Entry:
    """One dispatched request inside a chip era (synthetic-id keyed)."""

    sid: int
    eff_arrival_s: float
    index: int
    request: InferenceRequest


class _ChipState:
    """One chip's fault-path state: liveness, current era, closed eras."""

    def __init__(self, base: ContinuousBatchingSimulator) -> None:
        self.base = base
        self.sim = base
        self.chip_id = base.chip_id
        self.era = 0
        self.factor = 1.0
        self.alive = True
        self.floor = 0.0
        self.entries: List[_Entry] = []
        self.closed: List[ServingResult] = []


def _era_shard(state: _ChipState) -> List[ServingRequest]:
    """The era's dispatch-ordered shard (sorts entries in place)."""
    state.entries.sort(key=lambda e: (e.eff_arrival_s, e.sid))
    return [
        ServingRequest(
            request_id=entry.sid,
            arrival_s=entry.eff_arrival_s,
            request=entry.request,
        )
        for entry in state.entries
    ]


def _split_era(
    state: _ChipState, time_s: float, policy: str
) -> Tuple[List[_Entry], List[_Entry], float]:
    """Close the chip's current era at ``time_s``.

    Returns ``(suffix, aborted, drain_end)``: the entries whose prefill
    had not started (they re-dispatch), the entries the ``"abort"``
    policy killed mid-service (they re-dispatch from scratch), and the
    time the era's kept work actually ends.
    """
    shard = _era_shard(state)
    if not shard:
        return [], [], time_s
    starts, _ = prefill_windows(
        [item.arrival_s for item in shard],
        [state.sim.cc_latency_s(item.request) for item in shard],
    )
    cut = len(shard)
    for position, start in enumerate(starts):
        if start >= time_s:
            cut = position
            break
    prefix, suffix = state.entries[:cut], state.entries[cut:]
    aborted: List[_Entry] = []
    drain_end = time_s
    if prefix:
        result = state.sim.run(shard[:cut])
        if policy == "abort":
            kept = tuple(r for r in result.records if r.finish_s <= time_s)
            kept_ids = {record.request_id for record in kept}
            aborted = [entry for entry in prefix if entry.sid not in kept_ids]
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
    state.entries = []
    return suffix, aborted, drain_end


def _degraded_chip(
    base: ContinuousBatchingSimulator, factor: float
) -> ContinuousBatchingSimulator:
    """A fresh chip like ``base`` with its DRAM tier scaled by ``factor``.

    The factor is absolute against the chip's healthy baseline.  Decode
    bucket-cost triples seed from the healthy chip — they carry no
    bandwidth term — while CC-stage and whole-step latencies recompute
    lazily against the degraded tier.
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
    chip.cost_model.seed_bucket_costs(base.cost_model.bucket_costs())
    return chip


class _FaultLedger:
    """Dispatch/era bookkeeping shared by both fault-path loops."""

    def __init__(
        self,
        fleet: FleetSimulator,
        trace: Sequence[ServingRequest],
        schedule: FaultSchedule,
    ) -> None:
        self.fleet = fleet
        self.trace = trace
        self.policy = schedule.drain_policy
        self.states = [_ChipState(chip) for chip in fleet.chips]
        self.next_sid = len(trace)
        self.origin: Dict[int, int] = {}
        self.redispatched: List[int] = []
        self.aborted: List[int] = []
        self.assignments = [-1] * len(trace)
        self._era_cost: Dict[Tuple[int, int, int, int, int], float] = {}

    def index_of(self, sid: int) -> int:
        """The trace position a synthetic record id maps back to."""
        return self.origin.get(sid, sid)

    def place(self, chip_id: int, index: int, eff: float, fresh: bool) -> None:
        """Dispatch trace position ``index`` onto ``chip_id`` at ``eff``.

        First dispatches keep the trace position as their synthetic id
        (the same positional-id contract the autoscaler's replay uses);
        re-dispatches allocate a fresh id past the trace length so a
        request displaced twice stays unambiguous.
        """
        if fresh:
            sid = index
        else:
            sid = self.next_sid
            self.next_sid += 1
            self.origin[sid] = index
        self.states[chip_id].entries.append(
            _Entry(
                sid=sid,
                eff_arrival_s=eff,
                index=index,
                request=self.trace[index].request,
            )
        )
        self.assignments[index] = chip_id

    def estimate(self, chip_id: int, request: InferenceRequest) -> float:
        """Dispatcher-side batch-1 cost estimate against the current era.

        Healthy eras delegate to the fleet's shared estimate memo (the
        exact floats the fault-free path uses); degraded eras price
        against the era chip, memoized per (chip, era, shape).
        """
        state = self.states[chip_id]
        if state.sim is state.base:
            return self.fleet._estimate_cost_s(state.base, request)
        key = (
            chip_id,
            state.era,
            request.images,
            request.prompt_text_tokens,
            request.output_tokens,
        )
        cached = self._era_cost.get(key)
        if cached is not None:
            return cached
        context = self.fleet.model.prompt_tokens(request)
        cost = (
            state.sim.cc_latency_s(request)
            + state.sim.cost_model.step_latency_s([context])
            * request.output_tokens
        )
        self._era_cost[key] = cost
        return cost

    def apply_event(self, event: FaultEvent) -> List[_Entry]:
        """Apply one fault event; returns the entries needing re-dispatch."""
        state = self.states[event.chip_id]
        if event.kind == "chip_down":
            suffix, aborted, drain_end = _split_era(
                state, event.time_s, self.policy
            )
            state.alive = False
            state.era += 1
            state.floor = drain_end
            self.redispatched.extend(entry.index for entry in suffix)
            self.aborted.extend(entry.index for entry in aborted)
            return suffix + aborted
        if event.kind == "chip_up":
            state.alive = True
            state.era += 1
            state.floor = max(event.time_s, state.floor)
            return []
        # dram_degrade: degradation is not failure — in-flight work
        # always drains at the pre-degrade speed, and the unstarted
        # suffix stays on the chip, carried into the degraded era.
        suffix, _, drain_end = _split_era(state, event.time_s, "drain")
        state.era += 1
        state.factor = event.factor
        state.floor = max(event.time_s, drain_end)
        state.sim = _degraded_chip(state.base, event.factor)
        for entry in suffix:
            entry.eff_arrival_s = max(entry.eff_arrival_s, state.floor)
            state.entries.append(entry)
        return []

    def alive_ids(self) -> List[int]:
        """Chip ids currently admitting work, in id order."""
        return [state.chip_id for state in self.states if state.alive]

    def final_jobs(self) -> List["ShardJob"]:
        """The engine run closing each chip's open era (possibly empty).

        Jobs carry the era sim — the degraded replacement chip when the
        era is degraded — so any executor (inline or a chip actor) runs
        the same simulator the batch path would.
        """
        from .dispatch import ShardJob

        jobs: List[ShardJob] = []
        for state in self.states:
            shard = _era_shard(state)
            if shard:
                jobs.append(
                    ShardJob(
                        chip_id=state.chip_id,
                        sim=state.sim,
                        shard=tuple(shard),
                    )
                )
        return jobs

    def install_final(self, results: Mapping[int, ServingResult]) -> None:
        """Append executed :meth:`final_jobs` results as closing eras."""
        for state in self.states:
            result = results.get(state.chip_id)
            if result is not None:
                state.closed.append(result)
                state.entries = []

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of the era/dispatch bookkeeping.

        Closed-era results are serialized record by record (floats
        round-trip exactly through JSON ``repr``); entry requests are
        stored as trace positions and rebuild from the trace on restore.
        The era cost memo is pure and deliberately excluded.
        """
        from .dispatch import result_to_state

        return {
            "next_sid": self.next_sid,
            "origin": sorted(self.origin.items()),
            "redispatched": list(self.redispatched),
            "aborted": list(self.aborted),
            "assignments": list(self.assignments),
            "chips": [
                {
                    "era": state.era,
                    "factor": state.factor,
                    "alive": state.alive,
                    "floor": state.floor,
                    "entries": [
                        {
                            "sid": entry.sid,
                            "eff_arrival_s": entry.eff_arrival_s,
                            "index": entry.index,
                        }
                        for entry in state.entries
                    ],
                    "closed": [
                        result_to_state(result) for result in state.closed
                    ],
                }
                for state in self.states
            ],
        }

    def restore_state(self, data: Mapping[str, Any]) -> None:
        """Reload :meth:`state_dict` data onto fresh chip states.

        Degraded-era sims rebuild deterministically from the stored
        factor via :func:`_degraded_chip`; the cost memo starts empty and
        refills lazily (values are pure, so only speed is affected).
        """
        from .dispatch import result_from_state

        self.next_sid = int(data["next_sid"])
        self.origin = {int(sid): int(index) for sid, index in data["origin"]}
        self.redispatched = [int(index) for index in data["redispatched"]]
        self.aborted = [int(index) for index in data["aborted"]]
        self.assignments = [int(chip) for chip in data["assignments"]]
        self._era_cost = {}
        for state, chip in zip(self.states, data["chips"]):
            state.era = int(chip["era"])
            state.factor = float(chip["factor"])
            state.alive = bool(chip["alive"])
            state.floor = float(chip["floor"])
            state.sim = _degraded_chip(state.base, state.factor)
            state.entries = [
                _Entry(
                    sid=int(entry["sid"]),
                    eff_arrival_s=float(entry["eff_arrival_s"]),
                    index=int(entry["index"]),
                    request=self.trace[int(entry["index"])].request,
                )
                for entry in chip["entries"]
            ]
            state.closed = [
                result_from_state(result) for result in chip["closed"]
            ]

    def collect(self) -> Tuple[Tuple[RequestRecord, ...], Tuple[ServingResult, ...]]:
        """Merge closed eras into per-chip results and restored records."""
        per_chip: List[ServingResult] = []
        for state in self.states:
            merged = [
                record
                for result in state.closed
                for record in result.records
            ]
            merged.sort(key=lambda record: record.request_id)
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
        records: List[RequestRecord] = []
        for result in per_chip:
            for record in result.records:
                source = self.trace[self.index_of(record.request_id)]
                records.append(
                    replace(
                        record,
                        request_id=source.request_id,
                        arrival_s=source.arrival_s,
                    )
                )
        records.sort(key=lambda record: record.request_id)
        return tuple(records), tuple(per_chip)


def _validate_targets(schedule: FaultSchedule, n_chips: int) -> None:
    """Reject schedules targeting chips the fleet does not have."""
    for event in schedule.events:
        if event.chip_id >= n_chips:
            raise ValueError(
                f"fault targets chip {event.chip_id} but the fleet has "
                f"{n_chips} chips"
            )


def _pool_order(
    pool: List[_Entry],
    trace: Sequence[ServingRequest],
    weights: Optional[List[float]],
) -> List[_Entry]:
    """Displaced entries in re-dispatch order: priority, then arrival."""
    return sorted(
        pool,
        key=lambda e: (
            -(weights[e.index] if weights else 1.0),
            trace[e.index].arrival_s,
            trace[e.index].request_id,
        ),
    )


# ----------------------------------------------------------------------
# Static fleet under faults
# ----------------------------------------------------------------------
class FaultFleetController:
    """Arrival-at-a-time form of the static fleet's fault-injection loop.

    The exact loop state of :func:`run_fleet_with_faults` — the event
    cursor, the per-chip horizons, the round-robin position and the
    parked list — lifted onto the stepwise controller protocol of
    :mod:`repro.serving.dispatch` so the batch driver and the live actor
    runtime share one implementation.  The controller needs the full
    ``trace`` up front: priority normalization is global and era
    re-dispatch reaches requests by trace position.
    """

    kind = "fault_fleet"

    def __init__(
        self,
        fleet: FleetSimulator,
        trace: Sequence[ServingRequest],
        schedule: FaultSchedule,
        priorities: Optional[Sequence[float]] = None,
    ) -> None:
        if not trace:
            raise ValueError("trace must not be empty")
        _validate_targets(schedule, fleet.n_chips)
        self.fleet = fleet
        self.trace = trace
        self.schedule = schedule
        self.weights = normalize_priorities(priorities, len(trace))
        if fleet.precompute:
            fleet.precompute_service_times(trace)
        self.ledger = _FaultLedger(fleet, trace, schedule)
        self.events = list(schedule.events)
        self.event_pos = 0
        self.horizons = [0.0] * fleet.n_chips
        self.rr_position = 0
        self.parked: List[Tuple[int, float, bool]] = []
        self.n_seen = 0

    def _dispatch(self, index: int, eff: float, fresh: bool) -> None:
        targets = self.ledger.alive_ids()
        request = self.trace[index].request
        if self.fleet.policy == "round_robin":
            chip_id = targets[self.rr_position % len(targets)]
            self.rr_position += 1
        else:  # least_loaded
            chip_id = min(targets, key=lambda c: (self.horizons[c], c))
        eff = max(eff, self.ledger.states[chip_id].floor)
        cost = self.ledger.estimate(chip_id, request)
        self.horizons[chip_id] = max(self.horizons[chip_id], eff) + cost
        self.ledger.place(chip_id, index, eff, fresh)

    def _apply(self, event: FaultEvent) -> None:
        pool = self.ledger.apply_event(event)
        if event.kind == "chip_up":
            self.horizons[event.chip_id] = (
                self.ledger.states[event.chip_id].floor
            )
            if self.parked:
                flush, self.parked[:] = list(self.parked), []
                for index, eff, fresh in flush:
                    self._dispatch(index, max(eff, event.time_s), fresh)
        for entry in _pool_order(pool, self.trace, self.weights):
            if not self.ledger.alive_ids():
                self.parked.append((entry.index, entry.eff_arrival_s, False))
                continue
            self._dispatch(
                entry.index, max(entry.eff_arrival_s, event.time_s), False
            )

    def on_arrival(self, index: int, request: ServingRequest) -> int:
        """Apply due fault events, then dispatch (or park) one arrival.

        Returns the assigned chip id, or ``-1`` when every chip is down
        and the request parks until a ``chip_up``.
        """
        self.n_seen += 1
        arrival = request.arrival_s
        while (
            self.event_pos < len(self.events)
            and self.events[self.event_pos].time_s <= arrival
        ):
            self._apply(self.events[self.event_pos])
            self.event_pos += 1
        if not self.ledger.alive_ids():
            self.parked.append((index, arrival, True))
            return -1
        self._dispatch(index, arrival, True)
        return self.ledger.assignments[index]

    def finish_events(self) -> None:
        """Apply trailing fault events; raise if requests stayed parked."""
        while self.event_pos < len(self.events):
            self._apply(self.events[self.event_pos])
            self.event_pos += 1
        if self.parked:
            raise ValueError(
                f"{len(self.parked)} requests were never dispatched: every "
                "chip was down through the end of the trace"
            )

    def final_jobs(self) -> List["ShardJob"]:
        """The engine runs closing every open era."""
        return self.ledger.final_jobs()

    def collect(
        self, results: Mapping[int, ServingResult]
    ) -> FaultFleetResult:
        """Fold the executed closing eras into a :class:`FaultFleetResult`."""
        self.ledger.install_final(results)
        records, per_chip = self.ledger.collect()
        return FaultFleetResult(
            records=records,
            per_chip=per_chip,
            assignments=tuple(self.ledger.assignments),
            fault_events=self.schedule.events,
            redispatched_ids=tuple(
                self.trace[i].request_id for i in self.ledger.redispatched
            ),
            aborted_ids=tuple(
                self.trace[i].request_id for i in self.ledger.aborted
            ),
        )

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of the dynamic fault-loop state."""
        return {
            "kind": self.kind,
            "n_seen": self.n_seen,
            "event_pos": self.event_pos,
            "rr_position": self.rr_position,
            "horizons": list(self.horizons),
            "parked": [
                [index, eff, fresh] for index, eff, fresh in self.parked
            ],
            "ledger": self.ledger.state_dict(),
        }

    def restore_state(
        self, state: Mapping[str, Any], trace: Sequence[ServingRequest]
    ) -> None:
        """Reload :meth:`state_dict` data (``trace`` must equal the original)."""
        self.n_seen = int(state["n_seen"])
        self.event_pos = int(state["event_pos"])
        self.rr_position = int(state["rr_position"])
        self.horizons = [float(h) for h in state["horizons"]]
        self.parked = [
            (int(index), float(eff), bool(fresh))
            for index, eff, fresh in state["parked"]
        ]
        self.ledger.restore_state(state["ledger"])


def run_fleet_with_faults(
    fleet: FleetSimulator,
    trace: Sequence[ServingRequest],
    schedule: FaultSchedule,
    priorities: Optional[Sequence[float]] = None,
) -> FaultFleetResult:
    """Play ``trace`` through a static fleet under a fault ``schedule``.

    Dispatch follows the fleet's configured policy over the *alive*
    chips only; a ``chip_down`` re-dispatches the dead chip's unstarted
    (and, under ``"abort"``, killed) requests across the survivors at
    the event time, highest ``priorities`` first.  With an empty
    schedule and uniform priorities the result equals
    :meth:`~repro.serving.fleet.FleetSimulator.run` field for field
    (asserted by the differential suite).  Raises if requests remain
    unservable because every chip is down through the end of the trace.

    A thin driver over :class:`FaultFleetController` — the live actor
    runtime drives the identical controller one message at a time.
    """
    from .dispatch import run_jobs_inline, sorted_order

    controller = FaultFleetController(
        fleet, trace, schedule, priorities=priorities
    )
    for index in sorted_order(trace):
        controller.on_arrival(index, trace[index])
    controller.finish_events()
    return controller.collect(run_jobs_inline(controller.final_jobs()))


# ----------------------------------------------------------------------
# Autoscaled fleet under faults
# ----------------------------------------------------------------------
class FaultAutoscaleController:
    """Arrival-at-a-time form of the fault-aware autoscaling loop.

    The exact loop state of :func:`run_autoscale_with_faults` — the
    admission heap, rolling TTFT window, scaling ledger, event cursor
    and parked list — on the stepwise controller protocol.  Needs the
    full ``trace`` up front, as :class:`FaultFleetController` does.
    """

    kind = "fault_autoscale"

    def __init__(
        self,
        fleet,
        trace: Sequence[ServingRequest],
        schedule: FaultSchedule,
        priorities: Optional[Sequence[float]] = None,
    ) -> None:
        if not trace:
            raise ValueError("trace must not be empty")
        _validate_targets(schedule, fleet.n_chips)
        self.fleet = fleet
        self.trace = trace
        self.schedule = schedule
        self.weights = normalize_priorities(priorities, len(trace))
        if fleet.precompute:
            fleet.precompute_service_times(trace)
        self.config = fleet.autoscaler
        self.ledger = _FaultLedger(fleet, trace, schedule)
        self.events = list(schedule.events)
        self.event_pos = 0
        self.horizons = [0.0] * fleet.n_chips
        self.inflight: List[float] = []
        self.ttft_window: Deque[float] = deque(maxlen=self.config.window)
        self.scale_events: List[ScalingEvent] = []
        self.rejected: List[int] = []
        self.n_active = self.config.min_chips
        self.last_scale = float("-inf")
        self.parked: List[Tuple[int, float, bool]] = []
        self.n_seen = 0

    def _dispatchable(self) -> List[int]:
        return self.ledger.alive_ids()[: self.n_active]

    def _place(
        self, index: int, eff: float, fresh: bool, observe_from: float
    ) -> None:
        targets = self._dispatchable()
        chip_id = min(targets, key=lambda c: (self.horizons[c], c))
        state = self.ledger.states[chip_id]
        eff = max(eff, state.floor)
        request = self.trace[index].request
        cost = self.ledger.estimate(chip_id, request)
        start = max(self.horizons[chip_id], eff)
        prefill = state.sim.cc_latency_s(request)
        first_step = state.sim.cost_model.step_latency_s(
            [self.fleet.model.prompt_tokens(request)]
        )
        self.ttft_window.append(start + prefill + first_step - observe_from)
        self.horizons[chip_id] = start + cost
        heapq.heappush(self.inflight, self.horizons[chip_id])
        self.ledger.place(chip_id, index, eff, fresh)

    def _apply(self, event: FaultEvent) -> None:
        pool = self.ledger.apply_event(event)
        if event.kind == "chip_up":
            self.horizons[event.chip_id] = (
                self.ledger.states[event.chip_id].floor
            )
            if self.parked:
                flush, self.parked[:] = list(self.parked), []
                for index, eff, fresh in flush:
                    if not self._dispatchable():
                        self.parked.append((index, eff, fresh))
                        continue
                    self._place(
                        index,
                        max(eff, event.time_s),
                        fresh,
                        self.trace[index].arrival_s,
                    )
        for entry in _pool_order(pool, self.trace, self.weights):
            if not self._dispatchable():
                self.parked.append((entry.index, entry.eff_arrival_s, False))
                continue
            self._place(
                entry.index,
                max(entry.eff_arrival_s, event.time_s),
                False,
                self.trace[entry.index].arrival_s,
            )

    def on_arrival(self, index: int, request: ServingRequest) -> int:
        """Apply due fault events, then admit/dispatch one arrival.

        Returns the assigned chip id, or ``-1`` when the request was
        rejected by admission control or parked (every chip down).
        """
        self.n_seen += 1
        config = self.config
        now = request.arrival_s
        while (
            self.event_pos < len(self.events)
            and self.events[self.event_pos].time_s <= now
        ):
            self._apply(self.events[self.event_pos])
            self.event_pos += 1
        targets = self._dispatchable()
        if not targets:
            self.parked.append((index, now, True))
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

        self._place(index, effective, True, now)

        if (
            len(self.ttft_window) >= config.min_observations
            and now - self.last_scale >= config.cooldown_s
        ):
            rolling = percentile(list(self.ttft_window), 99)
            target = config.target_p99_ttft_s
            if (
                rolling > target * config.scale_up_ratio
                and self.n_active < config.max_chips
            ):
                self.scale_events.append(
                    ScalingEvent(
                        time_s=now,
                        n_chips_before=self.n_active,
                        n_chips_after=self.n_active + 1,
                        rolling_p99_ttft_s=rolling,
                    )
                )
                self.n_active += 1
                self.last_scale = now
            elif (
                rolling < target * config.scale_down_ratio
                and self.n_active > config.min_chips
            ):
                self.scale_events.append(
                    ScalingEvent(
                        time_s=now,
                        n_chips_before=self.n_active,
                        n_chips_after=self.n_active - 1,
                        rolling_p99_ttft_s=rolling,
                    )
                )
                self.n_active -= 1
                self.last_scale = now
        return self.ledger.assignments[index]

    def finish_events(self) -> None:
        """Apply trailing fault events; raise if requests stayed parked."""
        while self.event_pos < len(self.events):
            self._apply(self.events[self.event_pos])
            self.event_pos += 1
        if self.parked:
            raise ValueError(
                f"{len(self.parked)} requests were never dispatched: every "
                "chip was down through the end of the trace"
            )

    def final_jobs(self) -> List["ShardJob"]:
        """The engine runs closing every open era."""
        return self.ledger.final_jobs()

    def collect(
        self, results: Mapping[int, ServingResult]
    ) -> FaultAutoscaleResult:
        """Fold the executed closing eras into a :class:`FaultAutoscaleResult`."""
        self.ledger.install_final(results)
        records, per_chip = self.ledger.collect()
        return FaultAutoscaleResult(
            records=records,
            per_chip=per_chip,
            assignments=tuple(self.ledger.assignments),
            rejected_ids=tuple(
                self.trace[i].request_id for i in self.rejected
            ),
            events=tuple(self.scale_events),
            final_chips=self.n_active,
            fault_events=self.schedule.events,
            redispatched_ids=tuple(
                self.trace[i].request_id for i in self.ledger.redispatched
            ),
            aborted_ids=tuple(
                self.trace[i].request_id for i in self.ledger.aborted
            ),
        )

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of the dynamic control-loop state."""
        return {
            "kind": self.kind,
            "n_seen": self.n_seen,
            "event_pos": self.event_pos,
            "horizons": list(self.horizons),
            "inflight": list(self.inflight),
            "ttft_window": list(self.ttft_window),
            "scale_events": [
                {
                    "time_s": event.time_s,
                    "n_chips_before": event.n_chips_before,
                    "n_chips_after": event.n_chips_after,
                    "rolling_p99_ttft_s": event.rolling_p99_ttft_s,
                }
                for event in self.scale_events
            ],
            "rejected": list(self.rejected),
            "n_active": self.n_active,
            # -inf (never scaled) has no JSON literal; None encodes it.
            "last_scale": (
                None if self.last_scale == float("-inf") else self.last_scale
            ),
            "parked": [
                [index, eff, fresh] for index, eff, fresh in self.parked
            ],
            "ledger": self.ledger.state_dict(),
        }

    def restore_state(
        self, state: Mapping[str, Any], trace: Sequence[ServingRequest]
    ) -> None:
        """Reload :meth:`state_dict` data (``trace`` must equal the original)."""
        self.n_seen = int(state["n_seen"])
        self.event_pos = int(state["event_pos"])
        self.horizons = [float(h) for h in state["horizons"]]
        self.inflight = [float(f) for f in state["inflight"]]
        self.ttft_window = deque(
            (float(t) for t in state["ttft_window"]),
            maxlen=self.config.window,
        )
        self.scale_events = [
            ScalingEvent(
                time_s=float(event["time_s"]),
                n_chips_before=int(event["n_chips_before"]),
                n_chips_after=int(event["n_chips_after"]),
                rolling_p99_ttft_s=float(event["rolling_p99_ttft_s"]),
            )
            for event in state["scale_events"]
        ]
        self.rejected = [int(index) for index in state["rejected"]]
        self.n_active = int(state["n_active"])
        self.last_scale = (
            float("-inf")
            if state["last_scale"] is None
            else float(state["last_scale"])
        )
        self.parked = [
            (int(index), float(eff), bool(fresh))
            for index, eff, fresh in state["parked"]
        ]
        self.ledger.restore_state(state["ledger"])


def run_autoscale_with_faults(
    fleet,
    trace: Sequence[ServingRequest],
    schedule: FaultSchedule,
    priorities: Optional[Sequence[float]] = None,
) -> FaultAutoscaleResult:
    """Play ``trace`` through an autoscaled fleet under a fault ``schedule``.

    The control loop is the exact arithmetic of
    :meth:`~repro.serving.autoscale.AutoscalingFleetSimulator.run` — the
    same admission pops, rolling-percentile decisions and horizon
    updates — restricted to the alive prefix of the fleet, with two
    additions: per-request admission depth scales with the request's
    priority weight (``max(1, int(depth * weight))``, exactly the
    unweighted limit at uniform priorities), and fault events displace
    and re-dispatch work as in :func:`run_fleet_with_faults` (displaced
    requests bypass admission — they were already admitted once).  The
    in-flight depth estimates of a dead chip stay in the controller's
    heap (a dispatcher cannot observe them individually); they age out
    by their estimated finish times.

    A thin driver over :class:`FaultAutoscaleController` — the live
    actor runtime drives the identical controller one message at a time.
    """
    from .dispatch import run_jobs_inline, sorted_order

    controller = FaultAutoscaleController(
        fleet, trace, schedule, priorities=priorities
    )
    for index in sorted_order(trace):
        controller.on_arrival(index, trace[index])
    controller.finish_events()
    return controller.collect(run_jobs_inline(controller.final_jobs()))


__all__ = [
    "FAULT_KINDS",
    "DRAIN_POLICIES",
    "RECOVERY_WINDOW",
    "RECOVERY_TOLERANCE",
    "FaultEvent",
    "FaultSchedule",
    "FaultFleetResult",
    "FaultAutoscaleResult",
    "FaultRecovery",
    "FaultFleetController",
    "FaultAutoscaleController",
    "fault_recovery",
    "normalize_priorities",
    "run_fleet_with_faults",
    "run_autoscale_with_faults",
]
