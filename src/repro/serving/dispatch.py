"""Stepwise dispatch controllers: one arrival-ordered decision at a time.

Every fleet run — static round-robin or least-loaded dispatch, the
SLO-aware autoscaler, with or without a fault schedule — is *sequential
in arrival order*: each decision depends only on the decisions made for
earlier arrivals.  Each fleet kind has one controller object, the era
controller of :mod:`repro.serving.faults`, with a uniform protocol:

* ``on_arrival`` — feed one arrival (in ``(arrival_s, request_id)``
  order) and take its dispatch/admission/scaling decision;
* ``finish_events`` — apply the fault events still due once the stream
  ends;
* ``final_jobs`` — the per-chip engine runs still owed, as
  :class:`ShardJob` values the caller executes (inline for the batch
  path, per-chip actors for the live runtime);
* ``collect`` — fold the executed jobs into the fleet's result object;
* ``state_dict`` / ``restore_state`` — JSON-serializable snapshot of
  the *dynamic* decision state, the substrate of
  :class:`repro.serving.runtime.Checkpoint`.  Pure memo caches (cost
  estimates, CC latencies) are deliberately excluded: they only change
  speed, never values, and rebuild lazily after a restore.

:meth:`repro.serving.fleet.FleetSimulator.run` drives the controller in a
plain loop over the sorted trace, and the live actor runtime drives the
*same* controller one message at a time, so both planes are equivalent by
construction.  :func:`make_controller` builds the controller a fleet
names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .metrics import RequestRecord
from .queue import ContinuousBatchingSimulator, ServingRequest, ServingResult

#: Execution planes of the fleet ``run`` entry point: ``"batch"`` drives
#: the controller in a plain in-process loop, ``"live"`` drives the same
#: controller through the asyncio actor runtime
#: (:mod:`repro.serving.runtime`).  Results are bit-identical.
RUNTIMES: Tuple[str, ...] = ("batch", "live")


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


def make_controller(
    fleet,
    trace: Sequence[ServingRequest],
    *,
    faults=None,
    priorities: Optional[Sequence[float]] = None,
):
    """The era controller that drives ``fleet`` over ``trace``.

    ``fleet.controller_class`` names the one controller of the fleet's
    kind (see :mod:`repro.serving.faults`); ``faults`` is its
    :class:`~repro.serving.faults.FaultSchedule` (``None`` plays the
    empty schedule) and ``priorities`` its per-request admission and
    re-dispatch weights, validated on every run.  The controller needs
    the full ``trace`` up front, for priority normalization and era
    re-dispatch.
    """
    return fleet.controller_class(fleet, trace, faults, priorities=priorities)


__all__ = [
    "REQUEST_STATE_FIELDS",
    "RUNTIMES",
    "ShardJob",
    "make_controller",
    "record_from_state",
    "record_to_state",
    "request_from_state",
    "request_to_state",
    "result_from_state",
    "result_to_state",
    "sorted_order",
]
