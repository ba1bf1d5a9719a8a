"""Stepwise dispatch controllers: one arrival-ordered decision at a time.

Every serving loop in this package — static least-loaded/round-robin
dispatch, the SLO-aware autoscaler, and both fault-injection paths — is
*sequential in arrival order*: each decision depends only on the decisions
made for earlier arrivals.  This module factors that sequential core out
of the batch loops into controller objects with a uniform protocol:

* :meth:`~StaticDispatchController.on_arrival` — feed one arrival (in
  ``(arrival_s, request_id)`` order) and take its dispatch/admission/
  scaling decision;
* :meth:`~StaticDispatchController.finish_events` — apply whatever
  trailing work remains once the stream ends (fault controllers flush
  their remaining fault events here; plain controllers no-op);
* :meth:`~StaticDispatchController.final_jobs` — the per-chip engine runs
  still owed, as :class:`ShardJob` values an executor of the caller's
  choice performs (inline for the batch path, per-chip actors for the
  live runtime);
* :meth:`~StaticDispatchController.collect` — fold the executed jobs into
  the path's result object;
* :meth:`~StaticDispatchController.state_dict` /
  :meth:`~StaticDispatchController.restore_state` — JSON-serializable
  snapshot of the *dynamic* decision state, the substrate of
  :class:`repro.serving.runtime.Checkpoint`.  Pure memo caches (cost
  estimates, CC latencies) are deliberately excluded: they only change
  speed, never values, and rebuild lazily after a restore.

The batch entry points (:meth:`repro.serving.fleet.FleetSimulator.run`,
:meth:`repro.serving.autoscale.AutoscalingFleetSimulator.run`) drive these
controllers in a plain loop over the sorted trace, so the live actor
runtime — which drives the *same* controllers one message at a time — is
equivalent to the batch path by construction, not by coincidence.  The
fault-path controllers live in :mod:`repro.serving.faults` next to the
era machinery they wrap; :func:`make_controller` picks the right one of
the four for a given fleet/schedule/priorities combination.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from .metrics import RequestRecord, percentile
from .queue import ContinuousBatchingSimulator, ServingRequest, ServingResult

#: The engine result of a chip that received no work in a job set.
EMPTY_RESULT = ServingResult(records=(), peak_batch_size=0, decode_steps=0)

#: Execution planes of the fleet ``run`` entry points: ``"batch"`` drives
#: the controllers in a plain in-process loop (the historical path),
#: ``"live"`` drives the same controllers through the asyncio actor
#: runtime (:mod:`repro.serving.runtime`).  Results are bit-identical.
RUNTIMES: Tuple[str, ...] = ("batch", "live")


@dataclass(frozen=True)
class ShardJob:
    """One engine run a controller still owes: a chip, its sim, its shard.

    ``chip_id`` indexes the fleet (and the live runtime's chip actors);
    ``sim`` is the simulator the shard must run on — usually the fleet
    chip itself, but a degraded-era replacement on the fault paths;
    ``shard`` is the dispatch-ordered request list.  Executing a job is
    always ``sim.run(shard)``; jobs for different chips are independent.
    """

    chip_id: int
    sim: ContinuousBatchingSimulator
    shard: Tuple[ServingRequest, ...]

    def run(self) -> ServingResult:
        """Execute the job inline (the batch executor)."""
        return self.sim.run(list(self.shard))


def sorted_order(trace: Sequence[ServingRequest]) -> List[int]:
    """``trace`` indices in the canonical ``(arrival_s, request_id)`` order.

    Every controller must be fed arrivals in exactly this order — it is
    the order all batch loops have always used, so reusing it keeps the
    controller-driven paths byte-identical to the historical ones.
    """
    return sorted(
        range(len(trace)),
        key=lambda i: (trace[i].arrival_s, trace[i].request_id),
    )


def run_jobs_inline(jobs: Sequence[ShardJob]) -> Dict[int, ServingResult]:
    """Execute ``jobs`` serially in-process, keyed by chip id."""
    return {job.chip_id: job.run() for job in jobs}


def request_to_state(request: ServingRequest) -> Dict[str, Any]:
    """The ``request`` as plain JSON data (exact float repr)."""
    return {
        "request_id": request.request_id,
        "arrival_s": request.arrival_s,
        "images": request.request.images,
        "prompt_text_tokens": request.request.prompt_text_tokens,
        "output_tokens": request.request.output_tokens,
    }


#: The fields a :func:`request_to_state` document must carry, with the
#: scalar type each must coerce to.
REQUEST_STATE_FIELDS: Tuple[Tuple[str, type], ...] = (
    ("request_id", int),
    ("arrival_s", float),
    ("images", int),
    ("prompt_text_tokens", int),
    ("output_tokens", int),
)


def _field_error(message: str, field: Optional[str]) -> ValueError:
    """A ``ValueError`` naming the offending request-state ``field``."""
    error = ValueError(message)
    error.field = field  # type: ignore[attr-defined]
    return error


def request_from_state(data: Mapping[str, Any]) -> ServingRequest:
    """Rebuild a :class:`ServingRequest` from :func:`request_to_state` ``data``.

    Validates field by field: a missing, uncoercible, non-finite or
    out-of-range field raises a ``ValueError`` *naming that field*
    (carried on the exception as a ``field`` attribute; ``None`` only
    for the cross-field "image or prompt" rule), so streaming ingestion
    (:func:`repro.serving.runtime.service.requests_from_lines`) can
    report exactly what was wrong with a malformed trace line.
    """
    from ..models.mllm import InferenceRequest

    values: Dict[str, Any] = {}
    for name, kind in REQUEST_STATE_FIELDS:
        if name not in data:
            raise _field_error(
                f"request state is missing field {name!r}", name
            )
        try:
            values[name] = kind(data[name])
        except (TypeError, ValueError):
            raise _field_error(
                f"request state field {name!r} must be "
                f"{kind.__name__}-like, got {data[name]!r}",
                name,
            ) from None
    if not math.isfinite(values["arrival_s"]):
        raise _field_error(
            f"request state field 'arrival_s' must be finite, "
            f"got {values['arrival_s']!r}",
            "arrival_s",
        )
    try:
        return ServingRequest(
            request_id=values["request_id"],
            arrival_s=values["arrival_s"],
            request=InferenceRequest(
                images=values["images"],
                prompt_text_tokens=values["prompt_text_tokens"],
                output_tokens=values["output_tokens"],
            ),
        )
    except ValueError as error:
        # The range checks open with their field ("images must be >= 0").
        field = next(
            (name for name in values if str(error).startswith(name)), None
        )
        raise _field_error(f"request state: {error}", field) from None


def record_to_state(record: RequestRecord) -> Dict[str, Any]:
    """The ``record`` as plain JSON data.

    JSON serializes floats with ``repr``, which round-trips every finite
    double exactly — the reloaded record is ``==`` to the original, the
    property the checkpoint byte-identity contract rests on.
    """
    return {
        "request_id": record.request_id,
        "images": record.request.images,
        "prompt_text_tokens": record.request.prompt_text_tokens,
        "output_tokens": record.request.output_tokens,
        "arrival_s": record.arrival_s,
        "prefill_start_s": record.prefill_start_s,
        "prefill_end_s": record.prefill_end_s,
        "first_token_s": record.first_token_s,
        "finish_s": record.finish_s,
        "chip_id": record.chip_id,
    }


def record_from_state(data: Mapping[str, Any]) -> RequestRecord:
    """Rebuild a :class:`RequestRecord` from :func:`record_to_state` ``data``."""
    from ..models.mllm import InferenceRequest

    return RequestRecord(
        request_id=int(data["request_id"]),
        request=InferenceRequest(
            images=int(data["images"]),
            prompt_text_tokens=int(data["prompt_text_tokens"]),
            output_tokens=int(data["output_tokens"]),
        ),
        arrival_s=float(data["arrival_s"]),
        prefill_start_s=float(data["prefill_start_s"]),
        prefill_end_s=float(data["prefill_end_s"]),
        first_token_s=float(data["first_token_s"]),
        finish_s=float(data["finish_s"]),
        chip_id=int(data["chip_id"]),
    )


def result_to_state(result: ServingResult) -> Dict[str, Any]:
    """A closed-era :class:`ServingResult` ``result`` as plain JSON data."""
    return {
        "records": [record_to_state(record) for record in result.records],
        "peak_batch_size": result.peak_batch_size,
        "decode_steps": result.decode_steps,
    }


def result_from_state(data: Mapping[str, Any]) -> ServingResult:
    """Rebuild a :class:`ServingResult` from :func:`result_to_state` ``data``."""
    return ServingResult(
        records=tuple(
            record_from_state(record) for record in data["records"]
        ),
        peak_batch_size=int(data["peak_batch_size"]),
        decode_steps=int(data["decode_steps"]),
    )


class StaticDispatchController:
    """Arrival-at-a-time form of the static fleet's dispatch policies.

    The round-robin position counter and the least-loaded ``(horizon,
    chip_id)`` heap are the exact state of
    :meth:`~repro.serving.fleet.FleetSimulator._assign`; feeding arrivals
    in sorted order reproduces its assignment list bit for bit.
    """

    kind = "static"

    def __init__(self, fleet) -> None:
        self.fleet = fleet
        self.policy = fleet.policy
        self._position = 0
        self._heap: List[Tuple[float, int]] = [
            (0.0, chip_id) for chip_id in range(fleet.n_chips)
        ]
        #: index -> chip id, in decision order (insertion-ordered dict).
        self.assignments: Dict[int, int] = {}
        self._shards: List[List[ServingRequest]] = [
            [] for _ in range(fleet.n_chips)
        ]

    @property
    def n_seen(self) -> int:
        """Arrivals processed so far (the checkpoint cursor)."""
        return len(self.assignments)

    def on_arrival(self, index: int, request: ServingRequest) -> int:
        """Dispatch one arrival; returns the chip id it was assigned to."""
        if self.policy == "round_robin":
            chip_id = self._position % self.fleet.n_chips
            self._position += 1
        else:  # least_loaded
            horizon, chip_id = heapq.heappop(self._heap)
            cost = self.fleet._estimate_cost_s(
                self.fleet.chips[chip_id], request.request
            )
            heapq.heappush(
                self._heap, (max(horizon, request.arrival_s) + cost, chip_id)
            )
        self.assignments[index] = chip_id
        self._shards[chip_id].append(request)
        return chip_id

    def finish_events(self) -> None:
        """No trailing work: static dispatch has no event timeline."""

    def final_jobs(self) -> List[ShardJob]:
        """One engine run per chip that received work."""
        return [
            ShardJob(chip_id=chip_id, sim=chip, shard=tuple(shard))
            for chip_id, (chip, shard) in enumerate(
                zip(self.fleet.chips, self._shards)
            )
            if shard
        ]

    def collect(self, results: Mapping[int, ServingResult]):
        """Merge executed jobs into a :class:`~repro.serving.fleet.FleetResult`."""
        from .fleet import FleetResult

        per_chip = tuple(
            results.get(chip_id, EMPTY_RESULT)
            for chip_id in range(self.fleet.n_chips)
        )
        records: List[RequestRecord] = []
        for result in per_chip:
            records.extend(result.records)
        records.sort(key=lambda record: record.request_id)
        assignments = tuple(
            self.assignments[index] for index in range(self.n_seen)
        )
        return FleetResult(
            records=tuple(records),
            per_chip=per_chip,
            assignments=assignments,
        )

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of the dynamic dispatch state."""
        return {
            "kind": self.kind,
            "position": self._position,
            "heap": [[horizon, chip_id] for horizon, chip_id in self._heap],
            "assignments": [
                [index, chip_id] for index, chip_id in self.assignments.items()
            ],
        }

    def restore_state(
        self, state: Mapping[str, Any], trace: Sequence[ServingRequest]
    ) -> None:
        """Reload :meth:`state_dict` data; shards rebuild from ``trace``."""
        self._position = int(state["position"])
        self._heap = [
            (float(horizon), int(chip_id)) for horizon, chip_id in state["heap"]
        ]
        self.assignments = {}
        self._shards = [[] for _ in range(self.fleet.n_chips)]
        for index, chip_id in state["assignments"]:
            self.assignments[int(index)] = int(chip_id)
            self._shards[int(chip_id)].append(trace[int(index)])


class AutoscaleDispatchController:
    """Arrival-at-a-time form of the SLO-aware autoscaling control loop.

    The admission heap, rolling TTFT window, cooldown clock and scaling
    ledger are the exact loop state of
    :meth:`~repro.serving.autoscale.AutoscalingFleetSimulator.run`; the
    replay bookkeeping (synthetic positional ids, admission-delayed
    dispatch times) matches its historical ``_replay`` contract, so
    collecting the final jobs reproduces the batch
    :class:`~repro.serving.autoscale.AutoscaleResult` field for field.
    """

    kind = "autoscale"

    def __init__(self, fleet) -> None:
        self.fleet = fleet
        config = fleet.autoscaler
        self.config = config
        self.assignments: Dict[int, int] = {}
        self.dispatch_time: Dict[int, float] = {}
        self.horizons: List[float] = [0.0] * fleet.n_chips
        self.inflight: List[float] = []
        self.ttft_window: Deque[float] = deque(maxlen=config.window)
        self.events: List = []
        self.rejected: List[Tuple[int, int]] = []  # (index, request_id)
        self.n_active = config.min_chips
        self.last_scale = float("-inf")
        #: index -> the arrival, for replay-shard reconstruction.
        self.seen: Dict[int, ServingRequest] = {}

    @property
    def n_seen(self) -> int:
        """Arrivals processed so far (the checkpoint cursor)."""
        return len(self.seen)

    def on_arrival(self, index: int, request: ServingRequest) -> int:
        """Admit/dispatch one arrival and take the scaling decision.

        Returns the assigned chip id, or ``-1`` when admission control
        rejected the request.
        """
        from .autoscale import ScalingEvent

        config = self.config
        self.seen[index] = request
        now = request.arrival_s

        # Admission control against the estimated in-flight depth.
        while self.inflight and self.inflight[0] <= now:
            heapq.heappop(self.inflight)
        effective = now
        depth_limit = config.max_queue_depth * self.n_active
        if len(self.inflight) >= depth_limit:
            if config.admission == "reject":
                self.rejected.append((index, request.request_id))
                return -1
            overflow = len(self.inflight) - depth_limit + 1
            for _ in range(overflow):
                effective = heapq.heappop(self.inflight)

        # Least-loaded dispatch over the active prefix.
        chip_id = min(
            range(self.n_active), key=lambda c: (self.horizons[c], c)
        )
        chip = self.fleet.chips[chip_id]
        cost = self.fleet._estimate_cost_s(chip, request.request)
        start = max(self.horizons[chip_id], effective)
        prefill = chip.cc_latency_s(request.request)
        first_step = chip.cost_model.step_latency_s(
            [self.fleet.model.prompt_tokens(request.request)]
        )
        self.ttft_window.append(start + prefill + first_step - now)
        self.horizons[chip_id] = start + cost
        heapq.heappush(self.inflight, self.horizons[chip_id])
        self.assignments[index] = chip_id
        self.dispatch_time[index] = effective

        # Control decision on the rolling percentile.
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
                self.events.append(
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
                self.events.append(
                    ScalingEvent(
                        time_s=now,
                        n_chips_before=self.n_active,
                        n_chips_after=self.n_active - 1,
                        rolling_p99_ttft_s=rolling,
                    )
                )
                self.n_active -= 1
                self.last_scale = now
        return chip_id

    def finish_events(self) -> None:
        """No trailing work: the controller has no fault timeline."""

    def final_jobs(self) -> List[ShardJob]:
        """The exact replay shards of the controlled assignment.

        Chips run under *synthetic* positional ids with admission-delayed
        arrivals, the same contract the batch replay documents; records
        map back to true ids and arrivals in :meth:`collect`.
        """
        shards: List[List[ServingRequest]] = [
            [] for _ in range(self.fleet.n_chips)
        ]
        for index in sorted(self.assignments):
            source = self.seen[index]
            shards[self.assignments[index]].append(
                replace(
                    source,
                    request_id=index,
                    arrival_s=max(self.dispatch_time[index], source.arrival_s),
                )
            )
        return [
            ShardJob(chip_id=chip_id, sim=chip, shard=tuple(shard))
            for chip_id, (chip, shard) in enumerate(
                zip(self.fleet.chips, shards)
            )
            if shard
        ]

    def collect(self, results: Mapping[int, ServingResult]):
        """Merge executed replay jobs into an :class:`AutoscaleResult`."""
        from .autoscale import AutoscaleResult

        per_chip = tuple(
            results.get(chip_id, EMPTY_RESULT)
            for chip_id in range(self.fleet.n_chips)
        )
        records: List[RequestRecord] = []
        for result in per_chip:
            for record in result.records:
                source = self.seen[record.request_id]
                records.append(
                    replace(
                        record,
                        request_id=source.request_id,
                        arrival_s=source.arrival_s,
                    )
                )
        records.sort(key=lambda record: record.request_id)
        assignments = tuple(
            self.assignments.get(index, -1) for index in range(self.n_seen)
        )
        return AutoscaleResult(
            records=tuple(records),
            per_chip=per_chip,
            assignments=assignments,
            rejected_ids=tuple(request_id for _, request_id in self.rejected),
            events=tuple(self.events),
            final_chips=self.n_active,
        )

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of the dynamic control-loop state."""
        return {
            "kind": self.kind,
            "assignments": [
                [index, chip_id] for index, chip_id in self.assignments.items()
            ],
            "dispatch_time": [
                [index, time_s] for index, time_s in self.dispatch_time.items()
            ],
            "horizons": list(self.horizons),
            "inflight": list(self.inflight),
            "ttft_window": list(self.ttft_window),
            "events": [
                {
                    "time_s": event.time_s,
                    "n_chips_before": event.n_chips_before,
                    "n_chips_after": event.n_chips_after,
                    "rolling_p99_ttft_s": event.rolling_p99_ttft_s,
                }
                for event in self.events
            ],
            "rejected": [list(pair) for pair in self.rejected],
            "n_active": self.n_active,
            # -inf (never scaled) has no JSON literal; None encodes it.
            "last_scale": (
                None if self.last_scale == float("-inf") else self.last_scale
            ),
            "seen": sorted(self.seen),
        }

    def restore_state(
        self, state: Mapping[str, Any], trace: Sequence[ServingRequest]
    ) -> None:
        """Reload :meth:`state_dict` data; arrivals rebuild from ``trace``."""
        from .autoscale import ScalingEvent

        self.assignments = {
            int(index): int(chip_id) for index, chip_id in state["assignments"]
        }
        self.dispatch_time = {
            int(index): float(time_s)
            for index, time_s in state["dispatch_time"]
        }
        self.horizons = [float(h) for h in state["horizons"]]
        self.inflight = [float(f) for f in state["inflight"]]
        self.ttft_window = deque(
            (float(t) for t in state["ttft_window"]),
            maxlen=self.config.window,
        )
        self.events = [
            ScalingEvent(
                time_s=float(event["time_s"]),
                n_chips_before=int(event["n_chips_before"]),
                n_chips_after=int(event["n_chips_after"]),
                rolling_p99_ttft_s=float(event["rolling_p99_ttft_s"]),
            )
            for event in state["events"]
        ]
        self.rejected = [
            (int(index), int(request_id))
            for index, request_id in state["rejected"]
        ]
        self.n_active = int(state["n_active"])
        self.last_scale = (
            float("-inf")
            if state["last_scale"] is None
            else float(state["last_scale"])
        )
        self.seen = {int(index): trace[int(index)] for index in state["seen"]}


def make_controller(
    fleet,
    trace: Sequence[ServingRequest],
    *,
    faults=None,
    priorities: Optional[Sequence[float]] = None,
):
    """The controller matching a fleet/faults/priorities combination.

    Mirrors the routing of the batch ``run`` entry points: a fault
    schedule (or priorities on an autoscaled fleet) selects the fault-path
    controllers of :mod:`repro.serving.faults` (which need the full
    ``trace`` up front, for priority normalization and era re-dispatch);
    otherwise the plain static/autoscale controllers stream with no trace
    knowledge.  Priorities without faults on a *static* fleet change
    nothing there (no admission control), matching the batch path.
    """
    from .autoscale import AutoscalingFleetSimulator
    from .faults import (
        FaultAutoscaleController,
        FaultFleetController,
        FaultSchedule,
    )

    autoscaled = isinstance(fleet, AutoscalingFleetSimulator)
    if faults is not None or (priorities is not None and autoscaled):
        schedule = faults if faults is not None else FaultSchedule()
        controller_cls = (
            FaultAutoscaleController if autoscaled else FaultFleetController
        )
        return controller_cls(fleet, trace, schedule, priorities=priorities)
    if autoscaled:
        return AutoscaleDispatchController(fleet)
    return StaticDispatchController(fleet)


__all__ = [
    "EMPTY_RESULT",
    "REQUEST_STATE_FIELDS",
    "RUNTIMES",
    "AutoscaleDispatchController",
    "ShardJob",
    "StaticDispatchController",
    "make_controller",
    "record_from_state",
    "record_to_state",
    "request_from_state",
    "request_to_state",
    "result_from_state",
    "result_to_state",
    "run_jobs_inline",
    "sorted_order",
]
