"""Synchronous entry points of the live serving runtime.

:func:`run_live` plays a trace through the actor control plane —
ingestion streaming arrivals, the supervisor driving the exact stepwise
dispatch controller the batch path drives, chip actors executing the
closing engine runs — and returns a :class:`SupervisedRun` whose
``result`` is the object the batch ``run`` would return,
``==``-identical (the differential suites assert it), next to the
run's :class:`~repro.serving.runtime.supervision.ActorIncident`
timeline.  The supervisor self-heals: an optional
:class:`~repro.serving.runtime.chaos.ChaosSchedule` of injected runtime
faults changes the timeline, never the result.  ``pause_after`` turns
the run into a :class:`~repro.serving.runtime.checkpoint.Checkpoint` at
an arrival boundary; :func:`resume_live` picks such a checkpoint up —
in the same process or a fresh one — and finishes the run
byte-identically to an uninterrupted one: a checkpoint holds no
controller state, so a resume builds a fresh controller and replays the
arrivals before its cursor.  Both share one run loop, which is also
what survives *supervisor* crashes: each crash ends one asyncio
session, and the next session replays up to the newest cursor of the
supervisor's auto-checkpoint ring.  The loop hashes the trace
(:func:`~repro.serving.runtime.checkpoint.trace_digest`) only when it
checks, writes or restores a checkpoint, so an undisturbed run never
does.

:func:`run_scenario_live` / :func:`resume_scenario` are the scenario
couplings: checkpoints taken there embed the scenario spec, so a
resume rebuilds fleet and trace from the spec alone (the spec-hash
-seeds-everything contract makes the recompiled trace exact).  Both run
the scenario's fleet on the wave engine, as
:func:`repro.scenarios.runner.run_scenario` does.

:func:`requests_from_lines` adapts the streaming ingestion format —
JSON request lines (stdin, a socket), one
:func:`~repro.serving.trace.request_to_state` document per line — to
the ``ServingRequest`` trace the runtime consumes; a malformed line
raises a structured :class:`TraceIngestError` naming the line and field
instead of surfacing a raw parser traceback.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, replace
from typing import (
    Any,
    Deque,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..controllers import controller_for, sorted_order
from ..queue import ServingRequest
from ..trace import request_from_state
from .actors import DEFAULT_BATCH_SIZE
from .chaos import (
    DEFAULT_HANG_UNIT_S,
    ChaosCrash,
    ChaosInjector,
    ChaosSchedule,
)
from .checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointPins,
    trace_digest,
)
from .messages import PauseStream
from .supervision import ActorIncident, SupervisionConfig, SupervisorActor


class TraceIngestError(ValueError):
    """A malformed trace line in streaming ingestion.

    Carries ``line_no`` (1-based line in the ingested stream) and
    ``field`` (the offending request-state field, ``None`` when the
    line is not JSON at all); the message repeats both, so catching
    ``ValueError`` and printing suffices for a CLI.
    """

    def __init__(
        self,
        message: str,
        *,
        line_no: int,
        field: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.line_no = line_no
        self.field = field


@dataclass(frozen=True)
class SupervisedRun:
    """What a finished live run returns: the result plus its recovery story.

    ``result`` is the same object the batch path returns — chaos and
    recovery cannot change it (the differential suites assert
    byte-identity).  ``incidents`` is the chronological
    :class:`~repro.serving.runtime.supervision.ActorIncident` timeline,
    empty for an undisturbed run; ``n_sessions`` counts supervisor
    lives (1 = the supervisor itself never crashed).
    """

    result: Any
    incidents: Tuple[ActorIncident, ...]
    n_sessions: int


async def _session(
    controller: Any,
    n_chips: int,
    *,
    injector: Optional[ChaosInjector],
    outcome: List[Any],
    **supervisor_kwargs: Any,
) -> None:
    """One supervisor session: run until outcome, or supervisor death.

    Appends the supervisor's outcome (the run's result, or the
    :class:`PauseStream` on pause) to ``outcome`` and returns ``None`` —
    the coroutine handed to ``asyncio.run`` must not return the result,
    which the runner would format with ``repr`` on its way out.
    ``outcome`` stays empty when the supervisor task itself died of an
    injected :class:`ChaosCrash` (the run loop then rebuilds from the
    auto-checkpoint ring).  Any *real* supervisor exception re-raises.
    """
    supervisor = SupervisorActor(controller, n_chips, **supervisor_kwargs)
    if injector is not None:
        injector.install(supervisor, *supervisor.chips)
    supervisor.start()
    try:
        await asyncio.wait(
            {supervisor.outcome, supervisor._task},
            return_when=asyncio.FIRST_COMPLETED,
        )
        if supervisor.outcome.done():
            outcome.append(supervisor.outcome.result())
            return
        error = supervisor._task.exception()
        if error is not None and not isinstance(error, ChaosCrash):
            raise error
    finally:
        await supervisor.stop()


def _restore(
    controller: Any,
    checkpoint: Checkpoint,
    arrivals: Sequence[Tuple[int, ServingRequest]],
) -> int:
    """Bring a fresh ``controller`` to ``checkpoint``'s cursor; returns it.

    The controller is deterministic in canonical arrival order, so
    feeding it the first ``cursor`` of ``arrivals`` through
    ``on_arrival`` rebuilds the state it paused in.  Another controller
    kind, fault schedule, fleet size or dispatch policy than the
    checkpoint pins raises :class:`CheckpointError` before any arrival
    is replayed (:func:`_drive` has checked the cursor against the
    trace).
    """
    if controller.kind != checkpoint.kind:
        raise CheckpointError(
            f"checkpoint field 'kind' is {checkpoint.kind!r}, but this "
            f"configuration builds a {controller.kind!r} controller"
        )
    checkpoint.controller.check(CheckpointPins.of(controller))
    on_arrival = controller.on_arrival
    for index, request in arrivals[: checkpoint.cursor]:
        on_arrival(index, request)
    return checkpoint.cursor


def _drive(
    fleet,
    trace: Sequence[ServingRequest],
    checkpoint: Optional[Checkpoint],
    *,
    faults=None,
    priorities: Optional[Sequence[float]] = None,
    chaos: Optional[ChaosSchedule] = None,
    supervision: Optional[SupervisionConfig] = None,
    pace: Optional[float] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    pause_after: Optional[int] = None,
    hang_unit_s: float = DEFAULT_HANG_UNIT_S,
) -> Union[SupervisedRun, Checkpoint]:
    """The one run loop behind :func:`run_live` and :func:`resume_live`.

    Each iteration is one supervisor session on a fresh controller,
    brought to the cursor of ``checkpoint`` or, after a supervisor
    crash, to the newest cursor of the auto-checkpoint ring, as a
    :class:`Checkpoint` serialized and re-parsed (so every restart also
    proves the checkpoint format round-trips) — up to ``max_sessions``
    sessions.  The trace digest is computed at most once, and only to
    check ``checkpoint``, to return a pause or to restart.
    """
    trace = list(trace)
    if not trace:
        raise ValueError("trace must not be empty")
    digest: Optional[str] = None

    def checkpoint_at(controller: Any, cursor: int) -> Checkpoint:
        nonlocal digest
        if digest is None:
            digest = trace_digest(trace)
        return Checkpoint(
            kind=controller.kind,
            cursor=cursor,
            controller=CheckpointPins.of(controller),
            trace_sha256=digest,
        )

    start = 0
    if checkpoint is not None:
        digest = trace_digest(trace)
        if digest != checkpoint.trace_sha256:
            raise CheckpointError(
                "checkpoint was taken against a different trace "
                f"(digest {checkpoint.trace_sha256[:12]}… != {digest[:12]}…)"
            )
        start = checkpoint.cursor
        if not 0 <= start <= len(trace):
            raise CheckpointError(
                f"checkpoint field 'cursor' is {start}, outside the "
                f"{len(trace)}-arrival trace"
            )
    if pause_after is not None and not start < pause_after <= len(trace):
        raise ValueError(
            f"pause_after must lie after the start cursor {start}, "
            f"within the {len(trace)}-arrival trace; got {pause_after}"
        )
    config = supervision if supervision is not None else SupervisionConfig()
    arrivals = [(index, trace[index]) for index in sorted_order(trace)]
    injector = (
        ChaosInjector(chaos, hang_unit_s=hang_unit_s) if chaos else None
    )
    incidents: List[ActorIncident] = []
    ring: "Deque[int]" = deque(maxlen=1)
    restore = checkpoint
    for session in range(1, config.max_sessions + 1):
        controller = controller_for(
            fleet, trace, faults=faults, priorities=priorities
        )
        start_at = (
            0 if restore is None else _restore(controller, restore, arrivals)
        )
        outcome: List[Any] = []
        asyncio.run(
            _session(
                controller,
                fleet.n_chips,
                injector=injector,
                outcome=outcome,
                arrivals=arrivals,
                config=config,
                incidents=incidents,
                ring=ring,
                start_at=start_at,
                pause_after=pause_after,
                session=session,
                batch_size=batch_size,
                pace=pace,
            )
        )
        if outcome:
            if isinstance(outcome[0], PauseStream):
                return checkpoint_at(controller, outcome[0].cursor)
            return SupervisedRun(
                result=outcome[0],
                incidents=tuple(incidents),
                n_sessions=session,
            )
        # The supervisor itself was chaos-crashed: rebuild from the
        # ring's newest cursor, else from where this run started.
        if ring:
            restore = Checkpoint.from_json(
                checkpoint_at(controller, ring[-1]).to_json()
            )
        incidents.append(
            ActorIncident(
                session=session,
                actor="supervisor",
                kind="supervisor_restart",
                detail=(
                    f"supervisor crashed; rebuilding session "
                    f"{session + 1} from cursor "
                    f"{restore.cursor if restore is not None else 0}"
                ),
            )
        )
    raise RuntimeError(
        f"live run did not complete within {config.max_sessions} "
        "supervisor sessions"
    )


def run_live(
    fleet,
    trace: Sequence[ServingRequest],
    *,
    faults=None,
    priorities: Optional[Sequence[float]] = None,
    chaos: Optional[ChaosSchedule] = None,
    supervision: Optional[SupervisionConfig] = None,
    pace: Optional[float] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    pause_after: Optional[int] = None,
    hang_unit_s: float = DEFAULT_HANG_UNIT_S,
) -> Union[SupervisedRun, Checkpoint]:
    """Play ``trace`` through the live actor runtime.

    ``fleet`` is a :class:`~repro.serving.fleet.FleetSimulator`, static
    or autoscaled; ``faults`` and ``priorities`` configure its controller
    exactly as the batch ``run`` does, so the returned
    :class:`SupervisedRun`'s ``result`` matches the batch result field
    for field.  ``pace`` throttles ingestion against the wall clock
    (``10.0`` = tenfold-accelerated simulated time; ``None`` = flat out,
    in ``batch_size`` chunks); it never changes the result.
    ``pause_after`` stops the stream after that many canonical-order
    arrivals and returns a :class:`Checkpoint` instead.

    The supervisor keeps heartbeats, job deadlines, retry/re-dispatch/
    quarantine recovery and an auto-checkpoint ring of cursors, tuned by
    ``supervision`` (see :mod:`repro.serving.runtime.supervision`);
    ``chaos`` optionally injects a
    :class:`~repro.serving.runtime.chaos.ChaosSchedule` of runtime faults
    at the mailbox boundary, each hang lasting ``hang_unit_s`` per
    shard.  Whatever chaos does, ``result`` is byte-identical; the
    recovery story is the run's ``incidents``.  A paused run's
    checkpoint carries no incident timeline.
    """
    return _drive(
        fleet,
        trace,
        None,
        faults=faults,
        priorities=priorities,
        chaos=chaos,
        supervision=supervision,
        pace=pace,
        batch_size=batch_size,
        pause_after=pause_after,
        hang_unit_s=hang_unit_s,
    )


def resume_live(
    fleet,
    trace: Sequence[ServingRequest],
    checkpoint: Checkpoint,
    *,
    faults=None,
    priorities: Optional[Sequence[float]] = None,
    chaos: Optional[ChaosSchedule] = None,
    supervision: Optional[SupervisionConfig] = None,
    pace: Optional[float] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    pause_after: Optional[int] = None,
    hang_unit_s: float = DEFAULT_HANG_UNIT_S,
) -> Union[SupervisedRun, Checkpoint]:
    """Resume a paused live run from ``checkpoint`` and finish it.

    ``fleet``, ``trace``, ``faults`` and ``priorities`` must reconstruct
    the original run's configuration — the trace is verified against the
    checkpoint's digest, the rebuilt controller's kind against its
    ``kind``, and the fault schedule, fleet size and dispatch policy
    against its pins; any mismatch, or a cursor outside the trace,
    raises :class:`CheckpointError`.  The rebuilt controller replays the
    arrivals before the cursor, and the tail runs through the same
    supervisor, so the combined run is byte-identical to an
    uninterrupted one (asserted by the hypothesis suite across process
    boundaries), chaos or not.  ``pause_after`` (an absolute arrival
    cursor past the checkpoint's) pauses again; the remaining options
    act as in :func:`run_live`.
    """
    return _drive(
        fleet,
        trace,
        checkpoint,
        faults=faults,
        priorities=priorities,
        chaos=chaos,
        supervision=supervision,
        pace=pace,
        batch_size=batch_size,
        pause_after=pause_after,
        hang_unit_s=hang_unit_s,
    )


def _play_scenario(
    spec,
    checkpoint: Optional[Checkpoint],
    *,
    chaos: Optional[ChaosSchedule] = None,
    supervision: Optional[SupervisionConfig] = None,
    **live_kwargs: Any,
):
    """Compile ``spec`` and run (or resume) it live; report or checkpoint."""
    # Imported lazily: scenarios builds on the serving package.
    from ...scenarios.compile import compile_scenario
    from ...scenarios.runner import (
        build_fleet,
        scenario_report,
        scenario_run_kwargs,
    )

    compiled = compile_scenario(spec)
    fleet = build_fleet(spec)
    if chaos is None:
        chaos = compiled.chaos
    if supervision is None:
        max_retries = (
            spec.chaos.max_retries
            if spec.chaos is not None
            else SupervisionConfig.max_retries
        )
        supervision = SupervisionConfig(
            seed=spec.derive_seed("supervision"), max_retries=max_retries
        )
    outcome = _drive(
        fleet,
        list(compiled.trace),
        checkpoint,
        chaos=chaos,
        supervision=supervision,
        **live_kwargs,
        **scenario_run_kwargs(compiled, fleet),
    )
    if isinstance(outcome, Checkpoint):
        return replace(outcome, scenario=spec.to_dict())
    return scenario_report(
        spec, compiled, outcome.result, incidents=outcome.incidents
    )


def run_scenario_live(
    spec,
    *,
    pace: Optional[float] = None,
    pause_after: Optional[int] = None,
    chaos: Optional[ChaosSchedule] = None,
    supervision: Optional[SupervisionConfig] = None,
    hang_unit_s: float = DEFAULT_HANG_UNIT_S,
) -> Union[Any, Checkpoint]:
    """Run one scenario spec through the live runtime.

    The live twin of :func:`repro.scenarios.runner.run_scenario`: same
    compilation, same fleet, same report — byte-identical including the
    golden JSON, modulo the conditional ``incidents`` block that records
    the recovery timeline when anything went wrong.  ``chaos`` defaults
    to the spec's own compiled
    :class:`~repro.serving.runtime.chaos.ChaosSchedule` when the spec
    carries a ``chaos`` block (seeded from the spec hash), and the
    default ``supervision`` seed likewise derives from the spec hash, so
    retry backoff schedules are part of the scenario's identity.  With
    ``pause_after`` the returned :class:`Checkpoint` embeds the spec,
    so :func:`resume_scenario` needs nothing else to finish the run;
    ``pace`` and ``hang_unit_s`` act as in :func:`run_live`.
    """
    return _play_scenario(
        spec,
        None,
        chaos=chaos,
        supervision=supervision,
        pace=pace,
        pause_after=pause_after,
        hang_unit_s=hang_unit_s,
    )


def resume_scenario(
    checkpoint: Checkpoint,
    *,
    pause_after: Optional[int] = None,
) -> Union[Any, Checkpoint]:
    """Resume a scenario checkpoint and finish (or re-pause) the run.

    Rebuilds the spec from the checkpoint's embedded ``scenario`` data,
    recompiles the trace (deterministic: the spec hash seeds every
    stream) and resumes it live under the spec's own chaos schedule and
    supervision, as :func:`run_scenario_live` runs it; returns the final
    :class:`~repro.scenarios.report.ScenarioReport`, byte-identical to
    the uninterrupted run's (modulo the ``incidents`` block), or a
    re-paused checkpoint.
    """
    # Imported lazily: scenarios builds on the serving package.
    from ...scenarios.spec import ScenarioSpec

    if checkpoint.scenario is None:
        raise ValueError(
            "checkpoint embeds no scenario spec; resume it with "
            "resume_live against the original fleet and trace"
        )
    spec = ScenarioSpec.from_dict(checkpoint.scenario)
    return _play_scenario(spec, checkpoint, pause_after=pause_after)


def requests_from_lines(lines: Iterable[str]) -> List[ServingRequest]:
    """Parse JSON request lines (stdin, a socket) into a trace.

    Each non-blank line is one
    :func:`~repro.serving.trace.request_to_state` document; blank
    lines are skipped, so the format is newline-delimited JSON as a
    ``nc``/``tail -f`` pipe would deliver it.  A malformed line raises
    :class:`TraceIngestError` naming the 1-based line number and (when
    the line parsed but a field was missing, mistyped, non-finite or out
    of range) the offending field — never a raw parser traceback.
    """
    import json

    trace: List[ServingRequest] = []
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise TraceIngestError(
                f"trace line {line_no} is not valid JSON: {error}",
                line_no=line_no,
            ) from None
        if not isinstance(data, dict):
            raise TraceIngestError(
                f"trace line {line_no} must be a JSON object, "
                f"got {type(data).__name__}",
                line_no=line_no,
            )
        try:
            trace.append(request_from_state(data))
        except ValueError as error:
            field = getattr(error, "field", None)
            raise TraceIngestError(
                f"trace line {line_no}: {error}",
                line_no=line_no,
                field=field,
            ) from None
    return trace


__all__ = [
    "SupervisedRun",
    "TraceIngestError",
    "requests_from_lines",
    "resume_live",
    "resume_scenario",
    "run_live",
    "run_scenario_live",
]
