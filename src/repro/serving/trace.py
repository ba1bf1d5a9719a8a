"""The one-request JSON line codec of serving traces.

A serving trace is a sequence of
:class:`~repro.serving.queue.ServingRequest` objects.  This module maps
one request to plain JSON data and back: :func:`request_to_state` writes
the request id, the exact arrival double and the three shape integers,
and :func:`request_from_state` rebuilds the request, validating field by
field through :class:`RequestState`.  The live runtime ingests trace
lines through it
(:func:`repro.serving.runtime.service.requests_from_lines`), and
checkpoints digest a trace through its bytes
(:func:`repro.serving.runtime.checkpoint.trace_digest`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from ..codec import Spec, SpecError
from ..models.mllm import InferenceRequest
from .queue import ServingRequest

__all__ = [
    "RequestState",
    "request_from_state",
    "request_to_state",
]


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
    floats, ``arrival_s`` any finite number, never a boolean or a string,
    and an unknown key is rejected.
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
