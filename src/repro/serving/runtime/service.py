"""Synchronous entry points of the live serving runtime.

:func:`run_live` plays a trace through the actor control plane —
ingestion streaming arrivals, the supervisor driving the exact stepwise
dispatch controller the batch path drives, chip actors executing the
closing engine runs — and returns the same result object the batch
``run`` would, ``==``-identical (the differential suite asserts it).
``pause_after`` turns the run into a
:class:`~repro.serving.runtime.checkpoint.Checkpoint` at an arrival
boundary; :func:`resume_live` picks such a checkpoint up — in the same
process or a fresh one — and finishes the run byte-identically to an
uninterrupted one.

:func:`run_scenario_live` / :func:`resume_scenario` are the scenario
couplings: checkpoints taken there embed the scenario spec and engine,
so a resume rebuilds fleet and trace from the spec alone (the spec-hash
-seeds-everything contract makes the recompiled trace exact).

:func:`run_supervised` / :func:`run_scenario_supervised` are the
self-healing twins: the same computation driven through
:class:`~repro.serving.runtime.supervision.SupervisedSupervisorActor`,
optionally under an injected
:class:`~repro.serving.runtime.chaos.ChaosSchedule`, returning a
:class:`SupervisedRun` that pairs the (chaos-invariant) result with the
run's :class:`~repro.serving.runtime.supervision.ActorIncident`
timeline.  The driver loop here is what survives *supervisor* crashes:
each crash ends one asyncio session, and the next session restores the
controller from the newest auto-checkpoint in the ring.

:func:`requests_from_lines` and :func:`requests_from_chunks` adapt the
two streaming ingestion formats — JSON request lines (stdin, a socket)
and columnar :class:`~repro.scenarios.compile.TraceChunk` slices — to
the object traces the runtime consumes; a malformed line raises a
structured :class:`TraceIngestError` naming the line and field instead
of surfacing a raw parser traceback.
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

from ..dispatch import make_controller, request_from_state, sorted_order
from ..queue import ServingRequest
from .actors import DEFAULT_BATCH_SIZE, IngestionActor, SupervisorActor
from .chaos import (
    DEFAULT_HANG_UNIT_S,
    ChaosCrash,
    ChaosInjector,
    ChaosSchedule,
)
from .checkpoint import Checkpoint, CheckpointError, trace_digest
from .supervision import (
    ActorIncident,
    SupervisedSupervisorActor,
    SupervisionConfig,
)


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


async def _session(
    controller: Any,
    n_chips: int,
    trace: Sequence[ServingRequest],
    *,
    pace: Optional[float],
    batch_size: int,
    start_at: int,
    pause_after: Optional[int],
) -> Tuple[Any, ...]:
    """One actor session: stream, supervise, execute, fold.

    Returns the supervisor's outcome tuple — ``("done", result)`` or
    ``("paused", cursor, controller_state)``.
    """
    arrivals = [(index, trace[index]) for index in sorted_order(trace)]
    supervisor = SupervisorActor(controller, n_chips)
    supervisor.start()
    ingestion = IngestionActor(
        arrivals,
        supervisor,
        batch_size=batch_size,
        pace=pace,
        start_at=start_at,
        pause_after=pause_after,
    )
    ingestion.start()
    try:
        return await supervisor.outcome
    finally:
        await ingestion.cancel()
        await supervisor.stop()


def _checkpoint(
    controller: Any, cursor: int, state: Any, digest: str
) -> Checkpoint:
    return Checkpoint(
        kind=controller.kind,
        cursor=cursor,
        controller=state,
        trace_sha256=digest,
    )


def run_live(
    fleet,
    trace: Sequence[ServingRequest],
    *,
    faults=None,
    priorities: Optional[Sequence[float]] = None,
    pace: Optional[float] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    pause_after: Optional[int] = None,
) -> Union[Any, Checkpoint]:
    """Play ``trace`` through the live actor runtime.

    ``fleet`` is a :class:`~repro.serving.fleet.FleetSimulator` or
    :class:`~repro.serving.autoscale.AutoscalingFleetSimulator`;
    ``faults`` and ``priorities`` route exactly as the batch ``run``
    routes them, so the returned result object matches the batch one
    field for field.  ``pace`` throttles ingestion against the wall
    clock (``10.0`` = tenfold-accelerated simulated time; ``None`` =
    flat out); it never changes the result.  ``pause_after`` stops the
    stream after that many canonical-order arrivals and returns a
    :class:`Checkpoint` instead of a result.
    """
    trace = list(trace)
    if not trace:
        raise ValueError("trace must not be empty")
    if fleet.precompute:
        fleet.precompute_service_times(trace)
    controller = make_controller(
        fleet, trace, faults=faults, priorities=priorities
    )
    outcome = asyncio.run(
        _session(
            controller,
            fleet.n_chips,
            trace,
            pace=pace,
            batch_size=batch_size,
            start_at=0,
            pause_after=pause_after,
        )
    )
    if outcome[0] == "paused":
        return _checkpoint(
            controller, outcome[1], outcome[2], trace_digest(trace)
        )
    return outcome[1]


def resume_live(
    fleet,
    trace: Sequence[ServingRequest],
    checkpoint: Checkpoint,
    *,
    faults=None,
    priorities: Optional[Sequence[float]] = None,
    pace: Optional[float] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    pause_after: Optional[int] = None,
) -> Union[Any, Checkpoint]:
    """Resume a paused live run from ``checkpoint`` and finish it.

    ``fleet``, ``trace``, ``faults`` and ``priorities`` must reconstruct
    the original run's configuration — the trace is verified against the
    checkpoint's digest, the rebuilt controller's kind against its
    ``kind``.  The tail replays through the same actor machinery, so the
    combined run is byte-identical to an uninterrupted one (asserted by
    the hypothesis suite across process boundaries).  ``pause_after``
    (an absolute arrival cursor past the checkpoint's) pauses again.
    """
    trace = list(trace)
    if not trace:
        raise ValueError("trace must not be empty")
    digest = trace_digest(trace)
    if digest != checkpoint.trace_sha256:
        raise CheckpointError(
            "checkpoint was taken against a different trace "
            f"(digest {checkpoint.trace_sha256[:12]}… != {digest[:12]}…)"
        )
    if fleet.precompute:
        fleet.precompute_service_times(trace)
    controller = make_controller(
        fleet, trace, faults=faults, priorities=priorities
    )
    if controller.kind != checkpoint.kind:
        raise CheckpointError(
            f"checkpoint holds {checkpoint.kind!r} controller state but "
            f"this configuration builds a {controller.kind!r} controller"
        )
    try:
        controller.restore_state(checkpoint.controller, trace)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            "checkpoint controller state is invalid or tampered: "
            f"{error!r}"
        ) from None
    outcome = asyncio.run(
        _session(
            controller,
            fleet.n_chips,
            trace,
            pace=pace,
            batch_size=batch_size,
            start_at=checkpoint.cursor,
            pause_after=pause_after,
        )
    )
    if outcome[0] == "paused":
        return _checkpoint(controller, outcome[1], outcome[2], digest)
    return outcome[1]


def run_scenario_live(
    spec,
    *,
    engine: str = "wave",
    pace: Optional[float] = None,
    pause_after: Optional[int] = None,
) -> Union[Any, Checkpoint]:
    """Run one scenario spec through the live runtime.

    The live twin of :func:`repro.scenarios.runner.run_scenario`: same
    compilation, same fleet, same report — byte-identical including the
    golden JSON.  With ``pause_after`` the returned
    :class:`Checkpoint` embeds the spec and engine, so
    :func:`resume_scenario` needs nothing else to finish the run.
    """
    # Imported lazily: scenarios builds on the serving package.
    from ...scenarios.compile import compile_scenario
    from ...scenarios.runner import (
        build_fleet,
        scenario_report,
        scenario_run_kwargs,
    )

    compiled = compile_scenario(spec)
    fleet = build_fleet(spec, engine=engine)
    outcome = run_live(
        fleet,
        list(compiled.trace),
        pace=pace,
        pause_after=pause_after,
        **scenario_run_kwargs(compiled, fleet),
    )
    if isinstance(outcome, Checkpoint):
        return replace(
            outcome, scenario=spec.to_dict(), engine=engine
        )
    return scenario_report(spec, compiled, outcome)


def resume_scenario(
    checkpoint: Checkpoint,
    *,
    pause_after: Optional[int] = None,
) -> Union[Any, Checkpoint]:
    """Resume a scenario checkpoint and finish (or re-pause) the run.

    Rebuilds the spec from the checkpoint's embedded ``scenario`` data,
    recompiles the trace (deterministic: the spec hash seeds every
    stream) and resumes through :func:`resume_live`; returns the final
    :class:`~repro.scenarios.report.ScenarioReport`, byte-identical to
    the uninterrupted run's, or a re-paused checkpoint.
    """
    # Imported lazily: scenarios builds on the serving package.
    from ...scenarios.compile import compile_scenario
    from ...scenarios.runner import (
        build_fleet,
        scenario_report,
        scenario_run_kwargs,
    )
    from ...scenarios.spec import ScenarioSpec

    if checkpoint.scenario is None:
        raise ValueError(
            "checkpoint embeds no scenario spec; resume it with "
            "resume_live against the original fleet and trace"
        )
    spec = ScenarioSpec.from_dict(checkpoint.scenario)
    engine = checkpoint.engine or "wave"
    compiled = compile_scenario(spec)
    fleet = build_fleet(spec, engine=engine)
    outcome = resume_live(
        fleet,
        list(compiled.trace),
        checkpoint,
        pause_after=pause_after,
        **scenario_run_kwargs(compiled, fleet),
    )
    if isinstance(outcome, Checkpoint):
        return replace(
            outcome, scenario=checkpoint.scenario, engine=engine
        )
    return scenario_report(spec, compiled, outcome)


def requests_from_lines(lines: Iterable[str]) -> List[ServingRequest]:
    """Parse JSON request lines (stdin, a socket) into a trace.

    Each non-blank line is one
    :func:`~repro.serving.dispatch.request_to_state` document; blank
    lines are skipped, so the format is newline-delimited JSON as a
    ``nc``/``tail -f`` pipe would deliver it.  A malformed line raises
    :class:`TraceIngestError` naming the 1-based line number and (when
    the line parsed but a field was missing or mistyped) the offending
    field — never a raw parser traceback.
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


def run_scenario_supervised(
    spec,
    *,
    engine: str = "wave",
    chaos: Optional[ChaosSchedule] = None,
    supervision: Optional[SupervisionConfig] = None,
    hang_unit_s: float = DEFAULT_HANG_UNIT_S,
):
    """Run one scenario spec through the supervised live runtime.

    The supervised twin of :func:`run_scenario_live`: same compilation,
    same fleet, same report — byte-identical modulo the conditional
    ``incidents`` block, which records the recovery timeline when
    anything went wrong.  ``chaos`` defaults to the spec's own compiled
    :class:`~repro.serving.runtime.chaos.ChaosSchedule` when the spec
    carries a ``chaos`` block (seeded from the spec hash), and the
    supervision seed likewise derives from the spec hash, so retry
    backoff schedules are part of the scenario's identity.
    """
    # Imported lazily: scenarios builds on the serving package.
    from ...scenarios.compile import compile_chaos_schedule, compile_scenario
    from ...scenarios.runner import (
        build_fleet,
        scenario_report,
        scenario_run_kwargs,
    )

    compiled = compile_scenario(spec)
    fleet = build_fleet(spec, engine=engine)
    if chaos is None and spec.chaos is not None:
        chaos = compile_chaos_schedule(spec)
    if supervision is None:
        max_retries = (
            spec.chaos.max_retries
            if spec.chaos is not None
            else SupervisionConfig.max_retries
        )
        supervision = SupervisionConfig(
            seed=spec.derive_seed("supervision"), max_retries=max_retries
        )
    run = run_supervised(
        fleet,
        list(compiled.trace),
        chaos=chaos,
        supervision=supervision,
        hang_unit_s=hang_unit_s,
        **scenario_run_kwargs(compiled, fleet),
    )
    return scenario_report(
        spec, compiled, run.result, incidents=run.incidents
    )


@dataclass(frozen=True)
class SupervisedRun:
    """What a supervised run returns: the result plus its recovery story.

    ``result`` is the same object the batch or plain-live path returns —
    chaos and recovery cannot change it (the differential suite asserts
    byte-identity).  ``incidents`` is the chronological
    :class:`~repro.serving.runtime.supervision.ActorIncident` timeline,
    empty for an undisturbed run; ``n_sessions`` counts supervisor
    lives (1 = the supervisor itself never crashed).
    """

    result: Any
    incidents: Tuple[ActorIncident, ...]
    n_sessions: int


async def _supervised_session(
    controller: Any,
    n_chips: int,
    arrivals: Sequence[Tuple[int, ServingRequest]],
    *,
    config: SupervisionConfig,
    injector: Optional[ChaosInjector],
    incidents: List[ActorIncident],
    ring: "Deque[Checkpoint]",
    digest: str,
    start_at: int,
    session: int,
    batch_size: int,
    pace: Optional[float],
) -> Optional[Tuple[Any, ...]]:
    """One supervised session: run until outcome, or supervisor death.

    Returns the outcome tuple, or ``None`` when the supervisor task
    itself died of an injected :class:`ChaosCrash` (the driver then
    rebuilds from the auto-checkpoint ring).  Any *real* supervisor
    exception re-raises.
    """
    supervisor = SupervisedSupervisorActor(
        controller,
        n_chips,
        arrivals=arrivals,
        config=config,
        incidents=incidents,
        ring=ring,
        digest=digest,
        start_at=start_at,
        session=session,
        batch_size=batch_size,
        pace=pace,
    )
    if injector is not None:
        injector.install(supervisor, *supervisor.chips)
    supervisor.start()
    try:
        await asyncio.wait(
            {supervisor.outcome, supervisor._task},
            return_when=asyncio.FIRST_COMPLETED,
        )
        if supervisor.outcome.done():
            return supervisor.outcome.result()
        error = supervisor._task.exception()
        if error is not None and not isinstance(error, ChaosCrash):
            raise error
        return None
    finally:
        await supervisor.shutdown()


def run_supervised(
    fleet,
    trace: Sequence[ServingRequest],
    *,
    faults=None,
    priorities: Optional[Sequence[float]] = None,
    chaos: Optional[ChaosSchedule] = None,
    supervision: Optional[SupervisionConfig] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    pace: Optional[float] = None,
    hang_unit_s: float = DEFAULT_HANG_UNIT_S,
) -> SupervisedRun:
    """Play ``trace`` through the live runtime under supervision.

    The self-healing twin of :func:`run_live`: the same controller, the
    same canonical arrival order, the same result — plus heartbeats,
    deadlines, retry/re-dispatch/quarantine recovery and an
    auto-checkpoint ring (see
    :mod:`repro.serving.runtime.supervision`).  ``chaos`` optionally
    injects a :class:`~repro.serving.runtime.chaos.ChaosSchedule` of
    runtime faults at the mailbox boundary; the headline invariant is
    that ``result`` is byte-identical with or without it.  Supervisor
    crashes end the asyncio session; the driver loop here restores the
    controller from the newest ring checkpoint (serialized and parsed
    back, proving the format) and runs a fresh session, up to
    ``supervision.max_sessions``.
    """
    trace = list(trace)
    if not trace:
        raise ValueError("trace must not be empty")
    config = supervision if supervision is not None else SupervisionConfig()
    if fleet.precompute:
        fleet.precompute_service_times(trace)
    digest = trace_digest(trace)
    arrivals = [(index, trace[index]) for index in sorted_order(trace)]
    injector = (
        ChaosInjector(chaos, hang_unit_s=hang_unit_s)
        if chaos is not None and chaos
        else None
    )
    incidents: List[ActorIncident] = []
    ring: "Deque[Checkpoint]" = deque(maxlen=config.checkpoint_ring)
    session = 0
    start_at = 0
    restore: Optional[Checkpoint] = None
    while True:
        session += 1
        if session > config.max_sessions:
            raise RuntimeError(
                f"supervised run did not complete within "
                f"{config.max_sessions} supervisor sessions"
            )
        controller = make_controller(
            fleet, trace, faults=faults, priorities=priorities
        )
        if restore is not None:
            controller.restore_state(restore.controller, trace)
            start_at = restore.cursor
        outcome = asyncio.run(
            _supervised_session(
                controller,
                fleet.n_chips,
                arrivals,
                config=config,
                injector=injector,
                incidents=incidents,
                ring=ring,
                digest=digest,
                start_at=start_at,
                session=session,
                batch_size=batch_size,
                pace=pace,
            )
        )
        if outcome is not None:
            # ("done", result) — pause is not supported on this path.
            return SupervisedRun(
                result=outcome[1],
                incidents=tuple(incidents),
                n_sessions=session,
            )
        # The supervisor itself was chaos-crashed: restore the newest
        # ring checkpoint — serialized and re-parsed, so every restart
        # also proves the checkpoint format round-trips — or start over
        # when the ring is still empty.
        if ring:
            restore = Checkpoint.from_json(ring[-1].to_json())
            cursor = restore.cursor
        else:
            restore = None
            start_at = 0
            cursor = 0
        incidents.append(
            ActorIncident(
                session=session,
                actor="supervisor",
                kind="supervisor_restart",
                detail=(
                    f"supervisor crashed; rebuilding session "
                    f"{session + 1} from cursor {cursor}"
                ),
            )
        )


def requests_from_chunks(chunks: Iterable[Any]) -> List[ServingRequest]:
    """Flatten columnar trace chunks into an object trace.

    Accepts :class:`~repro.scenarios.compile.TraceChunk` values or raw
    :data:`~repro.serving.trace.TRACE_DTYPE` arrays, in stream order —
    the adapter between ``compile_scenario_chunks`` streaming and the
    live runtime's object-trace ingestion.
    """
    from ..trace import array_to_trace

    trace: List[ServingRequest] = []
    for chunk in chunks:
        array = getattr(chunk, "array", chunk)
        trace.extend(array_to_trace(array))
    return trace


__all__ = [
    "SupervisedRun",
    "TraceIngestError",
    "requests_from_chunks",
    "requests_from_lines",
    "resume_live",
    "resume_scenario",
    "run_live",
    "run_scenario_live",
    "run_scenario_supervised",
    "run_supervised",
]
