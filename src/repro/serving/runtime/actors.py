"""The mailbox substrate of the live serving control plane.

:class:`Actor` is the tiny mailbox actor every role runs on; this module
holds the two worker roles:

* :class:`IngestionActor` — streams the arrival sequence to the
  supervisor as :class:`~repro.serving.runtime.messages.ArrivalBatch`
  messages, either as fast as the supervisor drains them (``pace=None``)
  or paced against the wall clock at a multiple of simulated time;
* :class:`ChipActor` — one per fleet chip; executes the
  :class:`~repro.serving.controllers.ShardJob` engine runs the supervisor
  hands it and answers with the results.

The third role, the
:class:`~repro.serving.runtime.supervision.SupervisorActor` that owns
the dispatch controller, lives with the recovery machinery it drives.

Two seams make the runtime hardenable without the workers knowing:

* every actor consults an optional :attr:`Actor.chaos` interceptor at
  its mailbox boundary (``post``/``before_work``), which is how
  :mod:`repro.serving.runtime.chaos` injects crashes, hangs, drops and
  delays — ``None`` by default, so chaos-free runs pay nothing;
* an actor whose :meth:`Actor.on_message` raises reports the failure
  through :meth:`Actor.on_error` instead of dying silently —
  :class:`ChipActor` posts an
  :class:`~repro.serving.runtime.messages.ActorCrashed` to the
  supervisor, which retries the job or fails the run with the original
  exception.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, Optional, Sequence, Tuple

from ..queue import ServingRequest
from .chaos import ChaosCrash
from .messages import (
    ActorCrashed,
    ArrivalBatch,
    Heartbeat,
    PauseStream,
    RunShard,
    ShardDone,
    Shutdown,
    StreamEnded,
)

LOG = logging.getLogger(__name__)

#: Default arrivals per :class:`ArrivalBatch` in unpaced streams — large
#: enough to amortize mailbox overhead over a 100k-request trace, small
#: enough that checkpoint boundaries stay fine-grained.
DEFAULT_BATCH_SIZE = 1024

#: Default bound on :meth:`Actor.stop` — a receive loop that has not
#: exited this long after :class:`Shutdown` is considered wedged and is
#: force-cancelled instead of hanging the caller forever.
STOP_TIMEOUT_S = 5.0


class Actor:
    """A minimal mailbox actor: an inbox queue drained by one task.

    Subclasses implement :meth:`on_message`; :meth:`start` launches the
    receive loop on the running event loop, :class:`Shutdown` ends it.
    State lives inside the actor and is touched only by its own loop —
    actors communicate exclusively through the typed messages of
    :mod:`repro.serving.runtime.messages`.

    :attr:`chaos` is the fault-injection seam: when set (by a run
    given a chaos schedule) every inbound message passes through the
    injector's ``intercept`` and every unit of work through its
    ``before_work`` — see :mod:`repro.serving.runtime.chaos`.
    """

    #: Optional chaos injector; ``None`` unless a schedule is injected.
    chaos: Optional[Any] = None

    def __init__(self, name: str) -> None:
        self.name = name
        self.inbox: "asyncio.Queue[Any]" = asyncio.Queue()
        self._task: Optional["asyncio.Task[None]"] = None

    def start(self) -> None:
        """Launch the actor's receive loop as an event-loop task."""
        self._task = asyncio.get_running_loop().create_task(
            self._main(), name=self.name
        )

    async def _main(self) -> None:
        while True:
            message = await self.inbox.get()
            if isinstance(message, Shutdown):
                return
            try:
                if self.chaos is not None:
                    await self.chaos.before_work(self)
                await self.on_message(message)
            except Exception as error:
                if not self.on_error(message, error):
                    raise
                return

    async def on_message(self, message: Any) -> None:
        """Handle one inbox message (subclass responsibility)."""
        raise NotImplementedError

    def on_error(self, message: Any, error: BaseException) -> bool:
        """React to ``on_message`` raising; return ``True`` if handled.

        A handled error ends the receive loop cleanly (the actor is
        dead, but whoever it reported to knows why); an unhandled one
        re-raises out of the actor task.  The base actor handles
        nothing.
        """
        return False

    def post(self, message: Any) -> None:
        """Enqueue ``message`` into the actor's inbox (never blocks)."""
        if self.chaos is not None and self.chaos.intercept(self, message):
            return
        self.inbox.put_nowait(message)

    async def stop(self, timeout_s: float = STOP_TIMEOUT_S) -> bool:
        """Send :class:`Shutdown` and wait for the loop to exit.

        The wait is bounded: an actor that has not exited within
        ``timeout_s`` (a wedged receive loop — e.g. hung inside a chaos
        delay) is force-cancelled, the incident is logged, and ``False``
        is returned.  Returns ``True`` on a clean join; a loop that
        already died on its own (reported) error also counts as
        stopped.
        """
        if self._task is None:
            return True
        self.post(Shutdown())
        try:
            await asyncio.wait_for(asyncio.shield(self._task), timeout_s)
        except asyncio.TimeoutError:
            LOG.warning(
                "actor %r did not stop within %.1fs; force-cancelling",
                self.name,
                timeout_s,
            )
            await self.cancel()
            return False
        except Exception:
            # The loop already died on an exception that was reported
            # through its own channel (outcome future / ActorCrashed);
            # as far as stopping goes, it is stopped.
            pass
        return True

    async def cancel(self) -> None:
        """Cancel the actor's task outright (used on supervisor errors)."""
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        except Exception:
            pass


class IngestionActor(Actor):
    """Streams ``(index, request)`` arrivals to the supervisor.

    ``arrivals`` is the full canonical-order arrival sequence;
    ``start_at`` skips a resumed run's already-processed prefix and
    ``pause_after`` (an absolute cursor) ends the stream early with a
    :class:`PauseStream` so the supervisor checkpoints.  ``pace``
    throttles emission against the wall clock — ``pace=10.0`` replays
    simulated time tenfold accelerated, batches of one — and ``None``
    streams flat out in :data:`DEFAULT_BATCH_SIZE` chunks; pacing
    affects wall-clock only, never the result.

    Failures while materialising or streaming arrivals (a malformed
    trace line, for instance) are posted to the supervisor as
    :class:`ActorCrashed` so the run fails cleanly instead of hanging; a
    chaos-injected :class:`~repro.serving.runtime.chaos.ChaosCrash`
    kills the stream silently — the supervision stall watchdog is what
    notices and restarts it.
    """

    def __init__(
        self,
        arrivals: Sequence[Tuple[int, ServingRequest]],
        supervisor: Actor,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        pace: Optional[float] = None,
        start_at: int = 0,
        pause_after: Optional[int] = None,
    ) -> None:
        super().__init__("ingestion")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if pace is not None and pace <= 0:
            raise ValueError("pace must be positive")
        if not 0 <= start_at <= len(arrivals):
            raise ValueError("start_at must be within the arrival sequence")
        if pause_after is not None and not (
            start_at < pause_after <= len(arrivals)
        ):
            raise ValueError(
                "pause_after must lie after start_at, within the sequence"
            )
        self.arrivals = arrivals
        self.supervisor = supervisor
        self.batch_size = 1 if pace is not None else batch_size
        self.pace = pace
        self.start_at = start_at
        self.pause_after = pause_after

    async def _main(self) -> None:
        # A pure producer: ignores its inbox and streams until done.
        try:
            await self._produce()
        except ChaosCrash:
            return
        except Exception as error:
            self.supervisor.post(
                ActorCrashed(actor=self.name, error=repr(error), cause=error)
            )

    async def _produce(self) -> None:
        stop = (
            self.pause_after
            if self.pause_after is not None
            else len(self.arrivals)
        )
        loop = asyncio.get_running_loop()
        wall_start = loop.time()
        sim_start: Optional[float] = None
        cursor = self.start_at
        while cursor < stop:
            if self.chaos is not None:
                await self.chaos.before_work(self)
            end = min(cursor + self.batch_size, stop)
            batch = tuple(
                (index, request)
                for index, request in self.arrivals[cursor:end]
            )
            if self.pace is not None and batch:
                arrival_s = batch[0][1].arrival_s
                if sim_start is None:
                    sim_start = arrival_s
                due = wall_start + (arrival_s - sim_start) / self.pace
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
            self.supervisor.post(ArrivalBatch(arrivals=batch, start=cursor))
            cursor += len(batch)
            # Yield so the supervisor drains concurrently with ingestion.
            await asyncio.sleep(0)
        if self.pause_after is not None:
            self.supervisor.post(PauseStream(cursor=cursor))
        else:
            self.supervisor.post(StreamEnded(total=cursor))


class ChipActor(Actor):
    """Executes the engine runs of one fleet chip.

    A :class:`RunShard` job carries its own simulator (the fleet chip,
    or a degraded-era replacement on the fault paths), so the actor is
    stateless between jobs; it answers the supervisor with
    :class:`ShardDone`.  Before each run it posts a :class:`Heartbeat`
    ("alive, starting work") so the supervision monitor can tell a busy
    actor from a hung one, and if a run raises it reports
    :class:`ActorCrashed` — naming the job — instead of dying silently.
    """

    def __init__(self, chip_id: int, supervisor: Actor) -> None:
        super().__init__(f"chip-{chip_id}")
        self.chip_id = chip_id
        self.supervisor = supervisor
        self._n_done = 0

    async def on_message(self, message: Any) -> None:
        """Run one shard job and post the result back."""
        assert isinstance(message, RunShard)
        self.supervisor.post(Heartbeat(actor=self.name, n_done=self._n_done))
        result = message.job.run()
        self._n_done += 1
        self.supervisor.post(
            ShardDone(
                chip_id=message.job.chip_id,
                result=result,
                job_id=message.job_id,
            )
        )

    def on_error(self, message: Any, error: BaseException) -> bool:
        """Report the crash (with the job it was executing) and die."""
        job_id = message.job_id if isinstance(message, RunShard) else -1
        self.supervisor.post(
            ActorCrashed(
                actor=self.name,
                error=repr(error),
                job_id=job_id,
                cause=error,
            )
        )
        return True


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "STOP_TIMEOUT_S",
    "Actor",
    "ChipActor",
    "IngestionActor",
]
