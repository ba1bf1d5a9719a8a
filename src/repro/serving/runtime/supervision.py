"""The supervisor of the live runtime: dispatch, heartbeats, recovery.

:class:`SupervisorActor` is the control plane's one supervisor.  It
owns the stepwise dispatch controller (the same object the batch path
drives, see :mod:`repro.serving.controllers`), streams arrivals into it,
fans the closing engine runs out to the chip actors, and survives the
faults :mod:`repro.serving.runtime.chaos` injects (and the real-world
failures they model):

* **sequenced arrivals** — every
  :class:`~repro.serving.runtime.messages.ArrivalBatch` carries its
  stream cursor; out-of-order batches buffer, overlapping ones are
  trimmed, and each arrival is applied to the controller *exactly once*
  in canonical order — the property that makes every recovery below
  result-invisible;
* **per-job deadlines and heartbeats** — each dispatched
  :class:`~repro.serving.controllers.ShardJob` gets a deadline, refreshed
  by the executing chip actor's
  :class:`~repro.serving.runtime.messages.Heartbeat`; a missed deadline
  means crashed/hung/lost work and triggers re-dispatch;
* **retry with deterministic capped backoff** — :func:`backoff_s` is a
  pure function of ``(seed, job_id, attempt)``, the seed coming from
  the scenario spec hash, so retry timing is byte-reproducible;
* **restart, quarantine and graceful degradation** — a crashed chip
  actor is restarted in place; one that keeps failing is quarantined
  and its work re-dispatched onto survivors; with *every* slot
  quarantined the supervisor runs jobs inline, so the run still
  terminates;
* **an auto-checkpoint ring** — every ``checkpoint_every`` arrivals the
  supervisor records its cursor into a ring that keeps only the newest
  (a checkpoint holds nothing else that changes as the run advances);
  when the supervisor itself crashes, the run loop
  (:func:`repro.serving.runtime.service.run_live`) builds a
  :class:`~repro.serving.runtime.checkpoint.Checkpoint` at that cursor
  and rebuilds a fresh session from it, replaying the arrivals before
  the cursor;
* **an incident timeline** — every detection and recovery appends an
  :class:`ActorIncident`; the timeline reaches the scenario report's
  conditional ``incidents`` block, but never the result itself, because
  incident *timing* is wall-clock-dependent while the *result* is not.

Why recovery cannot change the answer: arrivals apply exactly once in
canonical order (sequencing), shard jobs are pure values (a re-run is
the same value), and ``controller.collect`` consumes only the keyed
results — so any interleaving of crashes, restarts, retries and
re-dispatches computes the identical report, which the chaos
differential suite asserts byte-for-byte.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import (
    Any,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ...codec import Spec, when_set
from ..queue import ServingRequest, ServingResult
from .actors import (
    DEFAULT_BATCH_SIZE,
    STOP_TIMEOUT_S,
    Actor,
    ChipActor,
    IngestionActor,
)
from .messages import (
    ActorCrashed,
    ArrivalBatch,
    Heartbeat,
    PauseStream,
    RunShard,
    ShardDone,
    StreamEnded,
)

#: The incident lifecycle vocabulary (see ``docs/runtime.md`` for the
#: detect → recover FSM these kinds trace through).
INCIDENT_KINDS: Tuple[str, ...] = (
    "crash",
    "hang",
    "stall",
    "retry",
    "redispatch",
    "restart",
    "quarantine",
    "inline_fallback",
    "ingest_error",
    "supervisor_restart",
    "give_up",
)


@dataclass(frozen=True)
class ActorIncident(Spec):
    """One entry of a supervised run's incident timeline.

    Coordinates are logical, never wall-clock: ``session`` numbers the
    supervisor's life (bumped on supervisor restart), ``actor`` names
    the subject, ``job_id``/``attempt`` locate shard-job incidents.
    ``kind`` is one of :data:`INCIDENT_KINDS`; ``detail`` is the human
    sentence.
    """

    session: int
    actor: str
    kind: str
    detail: str
    job_id: int = when_set(-1)
    attempt: int = when_set(0)

    def __post_init__(self) -> None:
        if self.kind not in INCIDENT_KINDS:
            raise ValueError(
                f"incident kind must be one of {INCIDENT_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.session < 1:
            raise ValueError("incident session must be >= 1")


@dataclass(frozen=True)
class SupervisionConfig:
    """Tunables of the supervision layer.

    ``job_deadline_s`` bounds one shard execution (refreshed by
    heartbeats); ``stall_deadline_s`` bounds arrival-stream silence
    before the ingestion actor is declared lost and restarted;
    ``tick_s`` paces the watchdog.  ``backoff_base_s``/``backoff_cap_s``
    shape :func:`backoff_s`, seeded by ``seed`` (the scenario path
    passes ``spec.derive_seed("supervision")``).  A chip actor is
    quarantined after ``quarantine_after`` crashes; a job fails the run
    after ``max_retries`` retries.  The run's cursor is checkpointed
    every ``checkpoint_every`` arrivals.  ``max_ingest_restarts`` and
    ``max_sessions`` bound the two recovery loops so a genuinely broken
    run fails cleanly instead of cycling forever.
    """

    job_deadline_s: float = 30.0
    stall_deadline_s: float = 10.0
    tick_s: float = 0.05
    backoff_base_s: float = 0.01
    backoff_cap_s: float = 1.0
    max_retries: int = 3
    quarantine_after: int = 2
    checkpoint_every: int = 4096
    max_ingest_restarts: int = 8
    max_sessions: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("job_deadline_s", "stall_deadline_s", "tick_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff parameters must be >= 0")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("backoff_cap_s must be >= backoff_base_s")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.max_ingest_restarts < 1:
            raise ValueError("max_ingest_restarts must be >= 1")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")


def backoff_s(config: SupervisionConfig, job_id: int, attempt: int) -> float:
    """Deterministic capped exponential backoff with seeded jitter.

    A pure function of ``(config.seed, job_id, attempt)`` — the same
    retry of the same job under the same spec always waits the same
    time, so supervised schedules are byte-reproducible.  Exponential in
    ``attempt`` (doubling from ``backoff_base_s``), jittered by a factor
    in ``[0.5, 1.5)`` drawn from a throwaway :class:`random.Random`, and
    capped at ``backoff_cap_s``.
    """
    if attempt < 1:
        raise ValueError("attempt must be >= 1")
    rng = random.Random(
        config.seed * 1_000_003 + job_id * 10_007 + attempt
    )
    raw = config.backoff_base_s * (2.0 ** (attempt - 1))
    return min(config.backoff_cap_s, raw * (0.5 + rng.random()))


class SupervisorActor(Actor):
    """Owns the dispatch controller, the run's outcome and its recovery.

    Applies every streamed arrival to ``controller`` exactly once, in
    canonical order; once the stream's terminal message has arrived and
    every arrival before it is applied, it either flushes trailing fault
    events, fans the closing engine runs out to the chip actors and
    resolves :attr:`outcome` with the run's result
    (:class:`StreamEnded`), or resolves it with the
    :class:`PauseStream` itself, whose cursor the caller checkpoints.
    Controller errors, real ingestion failures and exhausted retry
    budgets resolve the outcome exceptionally — the run fails with the
    original error rather than hanging.

    Construction wires in everything that must *outlive* one supervisor
    session: the shared incident list and the auto-checkpoint ring of
    cursors.  ``arrivals`` is the canonical-order
    arrival sequence the supervisor streams (and re-streams on stalls)
    through its own :class:`IngestionActor`; ``start_at`` is the cursor
    the session's controller was restored to and ``pause_after`` the
    absolute cursor at which the stream pauses, if any.
    """

    def __init__(
        self,
        controller: Any,
        n_chips: int,
        *,
        arrivals: Sequence[Tuple[int, ServingRequest]],
        config: SupervisionConfig,
        incidents: List[ActorIncident],
        ring: "Deque[int]",
        start_at: int = 0,
        pause_after: Optional[int] = None,
        session: int = 1,
        batch_size: int = DEFAULT_BATCH_SIZE,
        pace: Optional[float] = None,
    ) -> None:
        super().__init__("supervisor")
        self.controller = controller
        self.chips = [ChipActor(chip_id, self) for chip_id in range(n_chips)]
        #: Resolves to the run's result, or the :class:`PauseStream` on pause.
        self.outcome: "asyncio.Future[Any]" = (
            asyncio.get_running_loop().create_future()
        )
        self.config = config
        self.incidents = incidents
        self.ring = ring
        self.session = session
        self._arrivals = arrivals
        self._batch_size = batch_size
        self._pace = pace
        self._pause_after = pause_after
        self._expected = start_at
        self._next_ckpt = start_at + config.checkpoint_every
        self._buffer: Dict[int, ArrivalBatch] = {}
        self._terminal: Optional[Union[StreamEnded, PauseStream]] = None
        self._finishing = False
        self._jobs: Dict[int, Any] = {}
        self._results: Dict[int, ServingResult] = {}
        self._attempts: Dict[int, int] = {}
        self._deadlines: Dict[int, float] = {}
        self._where: Dict[int, int] = {}
        self._job_done: Set[int] = set()
        self._avoid: Dict[int, int] = {}
        self._last_error: Dict[int, BaseException] = {}
        self._strikes: Dict[int, int] = {}
        self._quarantined: Set[int] = set()
        self._ingestion: Optional[IngestionActor] = None
        self._ingest_restarts = 0
        self._last_progress = asyncio.get_running_loop().time()
        self._monitor_task: Optional["asyncio.Task[None]"] = None

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Launch supervisor, chips, the watchdog, and ingestion."""
        super().start()
        for chip in self.chips:
            chip.start()
        loop = asyncio.get_running_loop()
        self._monitor_task = loop.create_task(
            self._monitor(), name="supervision-monitor"
        )
        self._spawn_ingestion(self._expected)

    async def stop(self, timeout_s: float = STOP_TIMEOUT_S) -> bool:
        """Tear the session down: watchdog, ingestion, chips, then self."""
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
        if self._ingestion is not None:
            await self._ingestion.cancel()
        clean = True
        for chip in self.chips:
            clean = await chip.stop(timeout_s) and clean
        return await super().stop(timeout_s) and clean

    def _incident(
        self,
        actor: str,
        kind: str,
        detail: str,
        *,
        job_id: int = -1,
        attempt: int = 0,
    ) -> None:
        self.incidents.append(
            ActorIncident(
                session=self.session,
                actor=actor,
                kind=kind,
                detail=detail,
                job_id=job_id,
                attempt=attempt,
            )
        )

    def _fail(self, error: BaseException) -> None:
        if not self.outcome.done():
            self.outcome.set_exception(error)

    # -- message handling ---------------------------------------------

    async def on_message(self, message: Any) -> None:
        """Advance the run by one protocol message, recoverably."""
        try:
            if isinstance(message, ArrivalBatch):
                self._on_batch(message)
            elif isinstance(message, (StreamEnded, PauseStream)):
                self._terminal = message
                self._maybe_finish()
            elif isinstance(message, ShardDone):
                self._on_done(message)
            elif isinstance(message, Heartbeat):
                self._on_heartbeat(message)
            elif isinstance(message, ActorCrashed):
                self._on_crash(message)
        except Exception as error:
            self._fail(error)

    # -- sequenced arrival application --------------------------------

    def _on_batch(self, batch: ArrivalBatch) -> None:
        if batch.start > self._expected:
            # A gap: an earlier batch was dropped or is delayed in
            # flight.  Park this one; the watchdog restarts ingestion
            # from the gap if nothing fills it.
            self._buffer.setdefault(batch.start, batch)
            return
        self._apply(batch)
        while True:
            ready = None
            for start, parked in self._buffer.items():
                if start <= self._expected < start + len(parked.arrivals):
                    ready = start
                    break
            if ready is None:
                break
            self._apply(self._buffer.pop(ready))
        # Batches entirely behind the cursor are duplicates; drop them.
        stale = [
            start
            for start, parked in self._buffer.items()
            if start + len(parked.arrivals) <= self._expected
        ]
        for start in stale:
            del self._buffer[start]
        self._maybe_finish()

    def _apply(self, batch: ArrivalBatch) -> None:
        # Trim the already-applied overlap so every arrival is applied
        # exactly once, in canonical order, no matter how ingestion
        # restarts and chaos delays interleave.
        offset = self._expected - batch.start
        pairs = batch.arrivals[offset:]
        if not pairs:
            return
        for index, request in pairs:
            self.controller.on_arrival(index, request)
        self._expected += len(pairs)
        self._last_progress = asyncio.get_running_loop().time()
        if self._pace is not None and self._expected < len(self._arrivals):
            # A paced stream is silent until its next arrival falls due;
            # the stall clock starts then, not now.
            gap_s = (
                self._arrivals[self._expected][1].arrival_s
                - self._arrivals[self._expected - 1][1].arrival_s
            )
            self._last_progress += gap_s / self._pace
        if self._expected >= self._next_ckpt:
            self.ring.append(self._expected)
            while self._next_ckpt <= self._expected:
                self._next_ckpt += self.config.checkpoint_every

    # -- closing shard execution --------------------------------------

    def _maybe_finish(self) -> None:
        # The terminal message may overtake a delayed batch: close the
        # stream only once every arrival before its cursor is applied.
        end = self._terminal
        if self._finishing or end is None:
            return
        pausing = isinstance(end, PauseStream)
        if self._expected < (end.cursor if pausing else end.total):
            return
        self._finishing = True
        if pausing:
            self.outcome.set_result(end)
            return
        self.controller.finish_events()
        jobs = self.controller.final_jobs()
        if not jobs:
            self.outcome.set_result(self.controller.collect({}))
            return
        self._jobs = {job_id: job for job_id, job in enumerate(jobs)}
        for job_id in sorted(self._jobs):
            self._dispatch(job_id)

    def _dispatch(self, job_id: int) -> None:
        try:
            if job_id in self._job_done or self.outcome.done():
                return
            job = self._jobs[job_id]
            attempt = self._attempts.get(job_id, 0) + 1
            if attempt > self.config.max_retries + 1:
                last = self._last_error.get(job_id)
                self._incident(
                    f"chip-{job.chip_id}",
                    "give_up",
                    f"job {job_id} failed {attempt - 1} attempts",
                    job_id=job_id,
                    attempt=attempt - 1,
                )
                self._fail(
                    last
                    if last is not None
                    else RuntimeError(
                        f"shard job {job_id} lost {attempt - 1} times "
                        "without a reported error"
                    )
                )
                return
            self._attempts[job_id] = attempt
            actor = self._pick_actor(job, avoid=self._avoid.get(job_id))
            if actor is None:
                # Every chip slot is quarantined or dead: graceful
                # degradation — the supervisor runs the job itself.
                self._incident(
                    "supervisor",
                    "inline_fallback",
                    f"no live chip actor for job {job_id}; running inline",
                    job_id=job_id,
                    attempt=attempt,
                )
                self._record(job_id, job.chip_id, job.run())
                return
            if actor.chip_id != job.chip_id:
                self._incident(
                    actor.name,
                    "redispatch",
                    f"job {job_id} re-dispatched from chip-{job.chip_id}",
                    job_id=job_id,
                    attempt=attempt,
                )
            loop = asyncio.get_running_loop()
            self._deadlines[job_id] = (
                loop.time() + self.config.job_deadline_s
            )
            self._where[job_id] = actor.chip_id
            actor.post(RunShard(job=job, job_id=job_id, attempt=attempt))
        except Exception as error:
            self._fail(error)

    def _alive(self, slot: int) -> bool:
        if slot in self._quarantined:
            return False
        task = self.chips[slot]._task
        return task is not None and not task.done()

    def _pick_actor(
        self, job: Any, avoid: Optional[int] = None
    ) -> Optional[ChipActor]:
        candidates = [
            slot for slot in range(len(self.chips)) if self._alive(slot)
        ]
        if avoid is not None and len(candidates) > 1:
            candidates = [slot for slot in candidates if slot != avoid]
        if not candidates:
            return None
        if job.chip_id in candidates:
            return self.chips[job.chip_id]
        return self.chips[candidates[0]]

    def _record(self, job_id: int, chip_id: int, result: Any) -> None:
        if job_id in self._job_done:
            return
        self._job_done.add(job_id)
        self._results[chip_id] = result
        self._deadlines.pop(job_id, None)
        self._where.pop(job_id, None)
        if len(self._job_done) == len(self._jobs) and not self.outcome.done():
            self.outcome.set_result(self.controller.collect(self._results))

    def _on_done(self, message: ShardDone) -> None:
        if message.job_id in self._job_done:
            # A re-dispatched job finishing twice: jobs are pure, the
            # duplicate result is the same value — drop it.
            return
        self._record(message.job_id, message.chip_id, message.result)

    def _on_heartbeat(self, message: Heartbeat) -> None:
        # "Alive, starting work": refresh the deadline of whatever job
        # is in flight on that slot, so queued-then-started jobs get a
        # full execution window.
        try:
            slot = int(message.actor.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            return
        loop = asyncio.get_running_loop()
        for job_id, where in self._where.items():
            if where == slot and job_id not in self._job_done:
                self._deadlines[job_id] = (
                    loop.time() + self.config.job_deadline_s
                )

    # -- failure detection and recovery -------------------------------

    def _on_crash(self, message: ActorCrashed) -> None:
        if message.actor == "ingestion":
            # A real ingestion failure (e.g. TraceIngestError): not
            # recoverable by retry — fail the run cleanly with the
            # original error.
            self._incident(
                "ingestion", "ingest_error", message.error
            )
            self._fail(
                message.cause
                if message.cause is not None
                else RuntimeError(
                    f"ingestion crashed: {message.error}"
                )
            )
            return
        try:
            slot = int(message.actor.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            self._fail(
                RuntimeError(
                    f"unknown actor {message.actor!r} crashed: "
                    f"{message.error}"
                )
            )
            return
        self._incident(
            message.actor,
            "crash",
            message.error,
            job_id=message.job_id,
            attempt=self._attempts.get(message.job_id, 0),
        )
        strikes = self._strikes.get(slot, 0) + 1
        self._strikes[slot] = strikes
        if strikes >= self.config.quarantine_after:
            if slot not in self._quarantined:
                self._quarantined.add(slot)
                self._incident(
                    message.actor,
                    "quarantine",
                    f"chip-{slot} quarantined after {strikes} crashes",
                )
        else:
            chip = ChipActor(slot, self)
            if self.chaos is not None:
                chip.chaos = self.chaos
            self.chips[slot] = chip
            chip.start()
            self._incident(
                message.actor,
                "restart",
                f"chip-{slot} restarted after crash {strikes}",
            )
        if message.cause is not None and message.job_id >= 0:
            self._last_error[message.job_id] = message.cause
        if (
            message.job_id >= 0
            and message.job_id not in self._job_done
        ):
            self._avoid.pop(message.job_id, None)
            self._schedule_retry(message.job_id)

    def _schedule_retry(self, job_id: int) -> None:
        self._deadlines.pop(job_id, None)
        self._where.pop(job_id, None)
        attempt = self._attempts.get(job_id, 0)
        delay = backoff_s(self.config, job_id, max(1, attempt))
        self._incident(
            "supervisor",
            "retry",
            f"job {job_id} retrying in {delay:.4f}s",
            job_id=job_id,
            attempt=attempt,
        )
        asyncio.get_running_loop().call_later(
            delay, self._dispatch, job_id
        )

    def _spawn_ingestion(self, start_at: int) -> None:
        if self._ingestion is not None:
            task = self._ingestion._task
            if task is not None and not task.done():
                task.cancel()
        if start_at == self._pause_after:
            # Nothing is left to stream before the pause (its PauseStream
            # was lost, or the session restarted at the pause cursor).
            self._terminal = PauseStream(cursor=start_at)
            self._maybe_finish()
            return
        actor = IngestionActor(
            self._arrivals,
            self,
            batch_size=self._batch_size,
            pace=self._pace,
            start_at=start_at,
            pause_after=self._pause_after,
        )
        if self.chaos is not None:
            actor.chaos = self.chaos
        actor.start()
        self._ingestion = actor
        self._last_progress = asyncio.get_running_loop().time()

    async def _monitor(self) -> None:
        """The watchdog: deadlines, stream stalls, lost work."""
        loop = asyncio.get_running_loop()
        while not self.outcome.done():
            await asyncio.sleep(self.config.tick_s)
            now = loop.time()
            for job_id in list(self._deadlines):
                if (
                    job_id in self._job_done
                    or now < self._deadlines[job_id]
                ):
                    continue
                slot = self._where.get(job_id)
                self._incident(
                    f"chip-{slot}" if slot is not None else "supervisor",
                    "hang",
                    f"job {job_id} missed its "
                    f"{self.config.job_deadline_s:g}s deadline",
                    job_id=job_id,
                    attempt=self._attempts.get(job_id, 0),
                )
                if slot is not None:
                    self._avoid[job_id] = slot
                self._schedule_retry(job_id)
            if (
                not self._finishing
                and now - self._last_progress > self.config.stall_deadline_s
            ):
                self._ingest_restarts += 1
                if self._ingest_restarts > self.config.max_ingest_restarts:
                    self._fail(
                        RuntimeError(
                            "arrival stream stalled "
                            f"{self._ingest_restarts} times; giving up"
                        )
                    )
                    return
                self._incident(
                    "ingestion",
                    "stall",
                    f"no arrivals for {self.config.stall_deadline_s:g}s; "
                    f"restarting stream at cursor {self._expected}",
                )
                self._spawn_ingestion(self._expected)


__all__ = [
    "INCIDENT_KINDS",
    "ActorIncident",
    "SupervisionConfig",
    "SupervisorActor",
    "backoff_s",
]
