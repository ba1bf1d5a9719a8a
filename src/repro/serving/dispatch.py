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
* ``collect`` — fold the executed jobs into the fleet's result object.

:meth:`repro.serving.fleet.FleetSimulator.run` drives the controller in a
plain loop over the sorted trace, and the live actor runtime drives the
*same* controller one message at a time, so both planes are equivalent by
construction.  A controller's state after ``k`` arrivals is a function of
those arrivals, so it has no serialized form: a
:class:`repro.serving.runtime.Checkpoint` stores the cursor ``k``, and a
resume feeds a fresh controller the first ``k`` arrivals again.
:func:`make_controller` builds the controller a fleet names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..codec import Spec, SpecError
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


@dataclass(frozen=True)
class RequestState(Spec):
    """The fields of a :func:`request_to_state` document, as the codec reads them.

    :func:`request_from_state` decodes through it, so a trace line
    coerces like a spec file: integer fields take integers or integral
    floats, ``arrival_s`` any number, never a boolean or a string, and
    an unknown key is rejected.
    """

    request_id: int
    arrival_s: float
    images: int
    prompt_text_tokens: int
    output_tokens: int


def _field_error(message: str, field: Optional[str]) -> ValueError:
    """A ``ValueError`` naming the offending request-state ``field``."""
    error = ValueError(message)
    error.field = field  # type: ignore[attr-defined]
    return error


def request_from_state(data: Mapping[str, Any]) -> ServingRequest:
    """Rebuild a :class:`ServingRequest` from :func:`request_to_state` ``data``.

    Validates field by field: a missing, mistyped, unknown, non-finite
    or out-of-range field raises a ``ValueError`` *naming that field*
    (carried on the exception as a ``field`` attribute; ``None`` only
    for the cross-field "image or prompt" rule), so streaming ingestion
    (:func:`repro.serving.runtime.service.requests_from_lines`) can
    report exactly what was wrong with a malformed trace line.
    """
    from ..models.mllm import InferenceRequest

    try:
        state = RequestState.from_dict(data)
    except SpecError as error:
        raise _field_error(
            f"request state field {error}", error.path or None
        ) from None
    try:
        return ServingRequest(
            request_id=state.request_id,
            arrival_s=state.arrival_s,
            request=InferenceRequest(
                images=state.images,
                prompt_text_tokens=state.prompt_text_tokens,
                output_tokens=state.output_tokens,
            ),
        )
    except ValueError as error:
        # The range checks open with their field ("images must be >= 0").
        field = next((name for name in data if str(error).startswith(name)), None)
        raise _field_error(f"request state: {error}", field) from None


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
    "RUNTIMES",
    "RequestState",
    "ShardJob",
    "make_controller",
    "request_from_state",
    "request_to_state",
    "sorted_order",
]
