"""Columnar serving traces: a NumPy structured-array request format.

A serving trace is logically five parallel columns — request id, arrival
time and the three shape integers — and at million-request scale the
per-request :class:`~repro.serving.queue.ServingRequest` /
:class:`~repro.models.mllm.InferenceRequest` object pair costs far more
memory and construction time than the data itself.  This module defines
the columnar on-disk/in-memory twin of the object trace:
:data:`TRACE_DTYPE`, a structured dtype holding one request per row.

The conversion functions are *lossless by construction*: arrival times
are stored as the same IEEE-754 doubles the object trace carries, and the
shape fields are exact integers, so a round trip through
:func:`trace_to_array` / :func:`array_to_trace` reproduces a
``==``-identical object trace.  The wave engine
(:func:`repro.serving.engine.run_wave`) consumes the columnar form
directly, and :func:`repro.scenarios.compile.compile_scenario_chunks`
stream-emits it in bounded chunks so multi-million-request scenario
traces never materialise per-request objects at all.

The module also holds the one-request JSON line codec
(:func:`request_to_state` / :func:`request_from_state`): the live
runtime ingests trace lines through it, and checkpoints digest a trace
through its bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..codec import Spec, SpecError
from ..models.mllm import InferenceRequest
from .queue import ServingRequest

__all__ = [
    "TRACE_DTYPE",
    "RequestState",
    "array_to_trace",
    "concat_trace_arrays",
    "empty_trace_array",
    "request_from_state",
    "request_to_state",
    "trace_to_array",
    "validate_trace_array",
]

#: One request per row: the id/arrival pair of a
#: :class:`~repro.serving.queue.ServingRequest` plus the three integers of
#: its :class:`~repro.models.mllm.InferenceRequest` shape.  ``arrival_s``
#: is a float64 — the exact doubles the object trace holds — and the
#: shape fields are wide enough for any realistic request (int32) while
#: ids get the full int64 range.
TRACE_DTYPE = np.dtype(
    [
        ("request_id", np.int64),
        ("arrival_s", np.float64),
        ("images", np.int32),
        ("prompt_text_tokens", np.int32),
        ("output_tokens", np.int32),
    ]
)


def validate_trace_array(array: np.ndarray) -> np.ndarray:
    """Check that ``array`` is a well-formed columnar trace and return it.

    A well-formed trace is a one-dimensional :data:`TRACE_DTYPE` array
    with non-negative arrival times.  Raises ``ValueError`` otherwise —
    the serving engines call this once at the boundary so the hot loops
    can trust the columns.
    """
    if not isinstance(array, np.ndarray) or array.dtype != TRACE_DTYPE:
        raise ValueError(
            f"a columnar trace must be a TRACE_DTYPE ndarray, got "
            f"{getattr(array, 'dtype', type(array))!r}"
        )
    if array.ndim != 1:
        raise ValueError(f"a columnar trace must be 1-D, got shape {array.shape}")
    if len(array) and float(array["arrival_s"].min()) < 0.0:
        raise ValueError("trace arrival times must be >= 0")
    return array


def empty_trace_array(n: int = 0) -> np.ndarray:
    """An uninitialised columnar trace of ``n`` rows (a fill buffer)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return np.empty(n, dtype=TRACE_DTYPE)


def trace_to_array(trace: Sequence[ServingRequest]) -> np.ndarray:
    """Lower an object ``trace`` to its columnar :data:`TRACE_DTYPE` form.

    Column values are copied verbatim (ids and shape integers exactly,
    arrival seconds as the identical doubles), so
    :func:`array_to_trace` of the result rebuilds a ``==``-identical
    object trace.
    """
    array = np.empty(len(trace), dtype=TRACE_DTYPE)
    array["request_id"] = [item.request_id for item in trace]
    array["arrival_s"] = [item.arrival_s for item in trace]
    array["images"] = [item.request.images for item in trace]
    array["prompt_text_tokens"] = [
        item.request.prompt_text_tokens for item in trace
    ]
    array["output_tokens"] = [item.request.output_tokens for item in trace]
    return array


def array_to_trace(array: np.ndarray) -> List[ServingRequest]:
    """Materialise the object trace of a columnar ``array``.

    The inverse of :func:`trace_to_array`.  Distinct request *shapes* are
    few even in huge traces, so the
    :class:`~repro.models.mllm.InferenceRequest` instances are memoized
    per shape — frozen dataclasses compare by value, so sharing instances
    never changes ``==`` comparisons.
    """
    validate_trace_array(array)
    shape_memo: Dict[Tuple[int, int, int], InferenceRequest] = {}
    trace: List[ServingRequest] = []
    rows = zip(
        array["request_id"].tolist(),
        array["arrival_s"].tolist(),
        array["images"].tolist(),
        array["prompt_text_tokens"].tolist(),
        array["output_tokens"].tolist(),
    )
    for request_id, arrival_s, images, prompt_text_tokens, output_tokens in rows:
        shape = (images, prompt_text_tokens, output_tokens)
        request = shape_memo.get(shape)
        if request is None:
            request = InferenceRequest(
                images=images,
                prompt_text_tokens=prompt_text_tokens,
                output_tokens=output_tokens,
            )
            shape_memo[shape] = request
        trace.append(
            ServingRequest(
                request_id=request_id, arrival_s=arrival_s, request=request
            )
        )
    return trace


def concat_trace_arrays(chunks: Iterable[np.ndarray]) -> np.ndarray:
    """Concatenate columnar trace ``chunks`` into one contiguous trace.

    The streaming compiler emits bounded chunks; callers that do want the
    whole trace in memory (the wave benchmark, the round-trip tests) stitch
    them back together here.  An empty iterable concatenates to an empty
    trace.
    """
    parts = [validate_trace_array(chunk) for chunk in chunks]
    if not parts:
        return empty_trace_array(0)
    return np.concatenate(parts)


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
