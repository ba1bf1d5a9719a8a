"""Typed messages of the live serving actor runtime.

Every inter-actor payload is a frozen dataclass defined here — the
named-types split: actors exchange *values*, never share mutable state,
so the message log of a run is a complete, replayable description of it.
Delivery order is deterministic: each actor consumes its inbox FIFO, the
ingestion actor emits arrivals in the canonical ``(arrival_s,
request_id)`` order, and the supervisor applies them in that order —
exactly the order the batch loops use, which is what makes live runs
byte-identical to batch ones.

The flow: :class:`ArrivalBatch` messages stream from the ingestion actor
to the supervisor, closed by one :class:`StreamEnded` (or
:class:`PauseStream` when a checkpoint was requested).  At end of
stream the supervisor fans :class:`RunShard` jobs out to the chip
actors, which answer :class:`ShardDone`; :class:`Shutdown` terminates
any actor's receive loop.

The protocol is hardened for supervision
(:mod:`repro.serving.runtime.supervision`): :class:`ArrivalBatch`
carries its stream position (``start``) so drops, delays and duplicates
are detectable; :class:`RunShard`/:class:`ShardDone` carry a ``job_id``
so a retried or re-dispatched job's stale completions can be ignored;
chip actors announce liveness with :class:`Heartbeat` and report their
own failures with :class:`ActorCrashed` instead of dying silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..controllers import ShardJob
from ..queue import ServingRequest, ServingResult


@dataclass(frozen=True)
class ArrivalBatch:
    """A chunk of arrivals, ingestion → supervisor.

    ``arrivals`` holds ``(index, request)`` pairs — the trace position
    the dispatch controllers key on, and the request itself — already in
    the canonical ``(arrival_s, request_id)`` order.  Batching amortizes
    queue overhead when the stream runs unpaced; a paced stream sends
    batches of one.  ``start`` is the batch's cursor position in the
    canonical stream (the ordinal of its first pair); the supervisor
    uses it to detect dropped, delayed or duplicated batches.
    """

    arrivals: Tuple[Tuple[int, ServingRequest], ...]
    start: int


@dataclass(frozen=True)
class StreamEnded:
    """End of the arrival stream, ingestion → supervisor.

    ``total`` is the number of arrivals emitted over the whole stream,
    letting the supervisor cross-check it dropped nothing.
    """

    total: int


@dataclass(frozen=True)
class PauseStream:
    """The stream stopped early for a checkpoint, ingestion → supervisor.

    ``cursor`` is the number of arrivals emitted before the pause — the
    resume point a :class:`~repro.serving.runtime.checkpoint.Checkpoint`
    records.
    """

    cursor: int


@dataclass(frozen=True)
class RunShard:
    """One engine run to execute, supervisor → chip actor.

    ``job_id`` identifies the job across retries and ``attempt`` counts
    dispatch attempts, so the supervisor can tell a fresh completion
    from a stale one.
    """

    job: ShardJob
    job_id: int
    attempt: int = 1


@dataclass(frozen=True)
class ShardDone:
    """An executed engine run, chip actor → supervisor.

    ``job_id`` echoes the :class:`RunShard` that produced the result;
    the supervisor ignores completions for jobs it has already recorded
    (a re-dispatched job may finish twice — shard jobs are pure, so
    either result is the same value).
    """

    chip_id: int
    result: ServingResult
    job_id: int


@dataclass(frozen=True)
class Heartbeat:
    """A liveness beat, chip actor → supervisor.

    Posted when the actor picks a job up, before the (synchronous)
    engine run: "alive, starting work".  The supervision monitor treats
    an actor with a fresh heartbeat as busy rather than hung, so a
    long-running shard is not falsely re-dispatched.
    """

    actor: str
    n_done: int


@dataclass(frozen=True)
class ActorCrashed:
    """An actor's receive loop died on an exception, actor → supervisor.

    ``error`` is the ``repr`` of the exception (incident-log material);
    ``cause`` carries the exception object itself so the supervisor can
    fail the run with the original error instead of hanging the
    session.  ``job_id`` names the shard job the actor was executing,
    ``-1`` if it crashed between jobs.
    """

    actor: str
    error: str
    job_id: int = -1
    cause: Optional[BaseException] = None


@dataclass(frozen=True)
class Shutdown:
    """Terminate the receiving actor's loop (any → any)."""


__all__ = [
    "ActorCrashed",
    "ArrivalBatch",
    "Heartbeat",
    "PauseStream",
    "RunShard",
    "ShardDone",
    "Shutdown",
    "StreamEnded",
]
