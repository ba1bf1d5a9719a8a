"""Chaos injection at the actor/mailbox boundary of the live runtime.

The adversary of :mod:`repro.serving.runtime.supervision`: a
:class:`ChaosSchedule` is a validated, seed-generated timeline of
runtime faults — actor crashes, actor hangs, dropped messages, delayed
messages — and a :class:`ChaosInjector` plays it against a live run by
interposing on exactly two seams of :class:`~repro.serving.runtime.actors.Actor`:

* :meth:`ChaosInjector.intercept` sits inside ``Actor.post`` and may
  swallow a message (``drop_message``) or re-enqueue it later via the
  event loop (``delay_message``);
* :meth:`ChaosInjector.before_work` runs before each unit of actor work
  and may raise :class:`ChaosCrash` (``crash_actor``) or sleep
  (``hang_actor``).

No engine, controller or actor *logic* knows chaos exists — an actor
without an injector carries ``chaos = None`` and pays nothing.  Faults
are addressed by *logical coordinates*, never wall-clock time:
``crash_actor("chip", at_shard=3)`` crashes a chip actor when it picks
up its 4th unit of work, ``drop_message("ShardDone", nth=1)`` swallows
the 2nd ``ShardDone`` posted anywhere in the run.  One schedule
therefore replays identically across machines, and events whose ordinal
never occurs simply do not fire.

The headline invariant (CI-enforced by the chaos differential suite):
**any** chaos schedule, played against a live run, yields a final
report ``==``- and byte-identical to the undisturbed run — because
arrivals are applied exactly once in canonical order, shard jobs are
pure, and recovery only re-executes work whose result is a function of
its inputs.  Chaos perturbs *when* things happen; supervision guarantees
it cannot perturb *what* is computed.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Dict, Set, Tuple

from ...codec import Spec, for_kinds

#: Actor roles chaos can target (``Actor.name`` prefixes).
CHAOS_ACTOR_KINDS: Tuple[str, ...] = ("ingestion", "chip", "supervisor")

#: Message types chaos can drop or delay (class names from
#: :mod:`repro.serving.runtime.messages`).
CHAOS_MESSAGE_KINDS: Tuple[str, ...] = (
    "ArrivalBatch",
    "StreamEnded",
    "PauseStream",
    "RunShard",
    "ShardDone",
    "Heartbeat",
    "ActorCrashed",
)

#: The four chaos fault kinds.
CHAOS_KINDS: Tuple[str, ...] = (
    "crash_actor",
    "hang_actor",
    "drop_message",
    "delay_message",
)

#: Wall-clock seconds one "shard" of :func:`hang_actor` hang lasts.
DEFAULT_HANG_UNIT_S = 0.02


class ChaosCrash(RuntimeError):
    """An injected actor crash — raised by the injector, never by real code.

    The supervision layer treats it exactly like any other actor death;
    its only special role is in the ingestion actor, which dies silently
    on it (no :class:`~repro.serving.runtime.messages.ActorCrashed`
    report) so the stall watchdog — not the crash report — must detect
    the lost stream.
    """


@dataclass(frozen=True)
class ChaosEvent(Spec):
    """One scheduled runtime fault, addressed by logical coordinates.

    ``actor``/``at`` locate actor faults (``crash_actor``,
    ``hang_actor``): the target actor *kind* and the 0-based ordinal of
    the work unit at which the fault fires — a shard job for chips, an
    arrival batch for ingestion, a processed message for the
    supervisor.  ``message``/``nth`` locate message faults
    (``drop_message``, ``delay_message``): a message type name and the
    0-based ordinal of that type's post, counted runtime-wide.
    ``for_shards`` sizes a hang; ``by_s`` sizes a delay.  Every event
    fires at most once.
    """

    kind: str
    actor: str = for_kinds("crash_actor", "hang_actor", default="")
    message: str = for_kinds("drop_message", "delay_message", default="")
    at: int = for_kinds("crash_actor", "hang_actor", default=-1)
    nth: int = for_kinds("drop_message", "delay_message", default=-1)
    for_shards: int = for_kinds("hang_actor", default=0)
    by_s: float = for_kinds("delay_message", default=0.0)

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                f"chaos kind must be one of {CHAOS_KINDS}, got {self.kind!r}"
            )
        if self.kind in ("crash_actor", "hang_actor"):
            if self.actor not in CHAOS_ACTOR_KINDS:
                raise ValueError(
                    f"chaos actor must be one of {CHAOS_ACTOR_KINDS}, "
                    f"got {self.actor!r}"
                )
            if self.at < 0:
                raise ValueError("chaos at must be >= 0 for actor faults")
            if self.message or self.nth != -1 or self.by_s != 0.0:
                raise ValueError(
                    "message/nth/by_s do not apply to actor faults"
                )
            if self.kind == "hang_actor":
                if self.for_shards < 1:
                    raise ValueError("hang_actor for_shards must be >= 1")
            elif self.for_shards != 0:
                raise ValueError("for_shards only applies to hang_actor")
        else:
            if self.message not in CHAOS_MESSAGE_KINDS:
                raise ValueError(
                    f"chaos message must be one of {CHAOS_MESSAGE_KINDS}, "
                    f"got {self.message!r}"
                )
            if self.nth < 0:
                raise ValueError("chaos nth must be >= 0 for message faults")
            if self.actor or self.at != -1 or self.for_shards != 0:
                raise ValueError(
                    "actor/at/for_shards do not apply to message faults"
                )
            if self.kind == "delay_message":
                if self.by_s <= 0:
                    raise ValueError("delay_message by_s must be positive")
            elif self.by_s != 0.0:
                raise ValueError("by_s only applies to delay_message")


def crash_actor(kind: str, at_shard: int) -> ChaosEvent:
    """A ``crash_actor`` event: kill a ``kind`` actor at work unit ``at_shard``."""
    return ChaosEvent(kind="crash_actor", actor=kind, at=at_shard)


def hang_actor(kind: str, at_shard: int, for_shards: int) -> ChaosEvent:
    """A ``hang_actor`` event: wedge a ``kind`` actor for ``for_shards`` units."""
    return ChaosEvent(
        kind="hang_actor", actor=kind, at=at_shard, for_shards=for_shards
    )


def drop_message(kind: str, nth: int) -> ChaosEvent:
    """A ``drop_message`` event: swallow the ``nth`` post of type ``kind``."""
    return ChaosEvent(kind="drop_message", message=kind, nth=nth)


def delay_message(kind: str, nth: int, by_s: float) -> ChaosEvent:
    """A ``delay_message`` event: re-deliver the ``nth`` ``kind`` post late."""
    return ChaosEvent(kind="delay_message", message=kind, nth=nth, by_s=by_s)


@dataclass(frozen=True)
class ChaosSchedule(Spec):
    """A validated, replayable set of chaos events.

    Order is irrelevant — events are addressed by logical coordinates,
    not sequence — but the tuple is kept as given so serialization round
    trips exactly.
    """

    events: Tuple[ChaosEvent, ...] = ()

    def __post_init__(self) -> None:
        for event in self.events:
            if not isinstance(event, ChaosEvent):
                raise ValueError(
                    f"chaos schedule entries must be ChaosEvent, "
                    f"got {type(event).__name__}"
                )

    def __bool__(self) -> bool:
        return bool(self.events)


def generate_chaos_schedule(
    seed: int,
    *,
    n_chips: int,
    n_batches: int,
    n_crashes: int = 0,
    n_hangs: int = 0,
    n_drops: int = 0,
    n_delays: int = 0,
    n_supervisor_crashes: int = 0,
    hang_shards: int = 2,
    delay_s: float = 0.05,
) -> ChaosSchedule:
    """Generate a seeded :class:`ChaosSchedule` for a run's rough shape.

    ``n_chips`` bounds the shard ordinals chip faults target and
    ``n_batches`` the message ordinals stream faults target; the counts
    pick how many of each fault kind to draw.  The same ``seed`` always
    yields the same schedule — scenario integration seeds this from the
    spec hash (``spec.derive_seed("chaos")``), so a scenario's chaos is
    part of its identity.  Ordinals that a particular run never reaches
    are harmless: those events simply never fire.
    """
    if n_chips < 1:
        raise ValueError("n_chips must be >= 1")
    if n_batches < 1:
        raise ValueError("n_batches must be >= 1")
    for name, value in (
        ("n_crashes", n_crashes),
        ("n_hangs", n_hangs),
        ("n_drops", n_drops),
        ("n_delays", n_delays),
        ("n_supervisor_crashes", n_supervisor_crashes),
    ):
        if value < 0:
            raise ValueError(f"{name} must be >= 0")
    rng = random.Random(seed)
    events = []
    # Chip shard ordinals: each chip runs at least one closing shard, so
    # targeting [0, n_chips) guarantees most events actually fire.
    for _ in range(n_crashes):
        events.append(crash_actor("chip", rng.randrange(n_chips)))
    for _ in range(n_hangs):
        events.append(
            hang_actor("chip", rng.randrange(n_chips), hang_shards)
        )
    droppable = ("ArrivalBatch", "RunShard", "ShardDone", "StreamEnded")
    for _ in range(n_drops):
        kind = rng.choice(droppable)
        bound = n_batches if kind == "ArrivalBatch" else n_chips
        nth = 0 if kind == "StreamEnded" else rng.randrange(bound)
        events.append(drop_message(kind, nth))
    for _ in range(n_delays):
        kind = rng.choice(("ArrivalBatch", "ShardDone"))
        bound = n_batches if kind == "ArrivalBatch" else n_chips
        events.append(delay_message(kind, rng.randrange(bound), delay_s))
    for _ in range(n_supervisor_crashes):
        events.append(crash_actor("supervisor", rng.randrange(n_batches)))
    return ChaosSchedule(events=tuple(events))


class ChaosInjector:
    """Plays a :class:`ChaosSchedule` against a live run's actors.

    One injector spans an entire supervised run — including supervisor
    restarts — so each event fires at most once per *run*, not per
    session; post and work counters likewise accumulate across sessions.
    Install on an actor with :meth:`install` (sets ``actor.chaos``).
    """

    def __init__(
        self,
        schedule: ChaosSchedule,
        *,
        hang_unit_s: float = DEFAULT_HANG_UNIT_S,
    ) -> None:
        if hang_unit_s <= 0:
            raise ValueError("hang_unit_s must be positive")
        self.schedule = schedule
        self.hang_unit_s = hang_unit_s
        self._fired: Set[int] = set()
        self._post_counts: Dict[str, int] = {}
        self._work_counts: Dict[str, int] = {}

    @staticmethod
    def actor_kind(actor: Any) -> str:
        """Map an actor instance to its chaos kind via its name."""
        name = actor.name
        if name.startswith("chip-"):
            return "chip"
        return name

    def install(self, *actors: Any) -> None:
        """Point each actor's ``chaos`` seam at this injector."""
        for actor in actors:
            actor.chaos = self

    @property
    def n_fired(self) -> int:
        """How many of the schedule's events have fired so far."""
        return len(self._fired)

    def intercept(self, actor: Any, message: Any) -> bool:
        """Drop or delay ``message``; return ``True`` to swallow it.

        Called from ``Actor.post`` for every inbound message.  A delayed
        message is re-enqueued directly into the inbox after ``by_s``
        seconds, bypassing re-interception (one event, one delay).
        """
        name = type(message).__name__
        n = self._post_counts.get(name, 0)
        self._post_counts[name] = n + 1
        for i, event in enumerate(self.schedule.events):
            if i in self._fired or event.message != name or event.nth != n:
                continue
            if event.kind == "drop_message":
                self._fired.add(i)
                return True
            if event.kind == "delay_message":
                self._fired.add(i)
                asyncio.get_running_loop().call_later(
                    event.by_s, actor.inbox.put_nowait, message
                )
                return True
        return False

    async def before_work(self, actor: Any) -> None:
        """Crash or hang ``actor`` at this work unit, per the schedule.

        Called by the actor loops before each unit of work: a shard job
        for chips, an arrival batch for ingestion, a processed message
        for the supervisor.  ``crash_actor`` raises :class:`ChaosCrash`;
        ``hang_actor`` sleeps ``for_shards * hang_unit_s`` seconds.
        """
        kind = self.actor_kind(actor)
        n = self._work_counts.get(kind, 0)
        self._work_counts[kind] = n + 1
        for i, event in enumerate(self.schedule.events):
            if i in self._fired or event.actor != kind or event.at != n:
                continue
            if event.kind == "crash_actor":
                self._fired.add(i)
                raise ChaosCrash(
                    f"chaos: crash {actor.name} at work unit {n}"
                )
            if event.kind == "hang_actor":
                self._fired.add(i)
                await asyncio.sleep(event.for_shards * self.hang_unit_s)


__all__ = [
    "CHAOS_ACTOR_KINDS",
    "CHAOS_KINDS",
    "CHAOS_MESSAGE_KINDS",
    "DEFAULT_HANG_UNIT_S",
    "ChaosCrash",
    "ChaosEvent",
    "ChaosInjector",
    "ChaosSchedule",
    "crash_actor",
    "delay_message",
    "drop_message",
    "generate_chaos_schedule",
    "hang_actor",
]
