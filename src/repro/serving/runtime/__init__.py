"""Live serving control plane: asyncio actors over the batch engines.

The runtime moves fleet serving from offline batch replay to a
long-running control plane — streaming ingestion, supervised dispatch,
pause/resume — without forking the computation: the supervisor actor
drives the *same* stepwise dispatch controllers
(:mod:`repro.serving.controllers`) the batch ``run`` entry point
drives, in the same canonical arrival order, so a
live run is byte-identical to its batch twin on records, scale events,
fault eras and golden reports (the differential suite asserts ``==``,
not approximation) — and stays so under injected runtime chaos.

Layout: :mod:`~repro.serving.runtime.messages` defines the typed
dataclass messages actors exchange; :mod:`~repro.serving.runtime.actors`
the mailbox substrate and the ingestion/chip workers;
:mod:`~repro.serving.runtime.supervision` the one
:class:`SupervisorActor` (dispatch, heartbeats, deadlines,
retry/quarantine recovery, the auto-checkpoint ring of cursors, the
incident timeline); :mod:`~repro.serving.runtime.checkpoint` the JSON
pause/resume format (a cursor and the run's pins; a resume replays);
:mod:`~repro.serving.runtime.chaos` the
supervisor's adversary (seeded runtime-fault schedules injected at the
mailbox boundary); and :mod:`~repro.serving.runtime.service` the one
synchronous entry point, :func:`run_live`, which also resumes a paused
run given its checkpoint.  The scenario layer's live entries,
:func:`~repro.scenarios.runner.run_scenario_live` and
:func:`~repro.scenarios.runner.resume_scenario`, live beside
:func:`~repro.scenarios.runner.run_scenario`.
"""

from .actors import (
    DEFAULT_BATCH_SIZE,
    STOP_TIMEOUT_S,
    Actor,
    ChipActor,
    IngestionActor,
)
from .chaos import (
    CHAOS_ACTOR_KINDS,
    CHAOS_KINDS,
    CHAOS_MESSAGE_KINDS,
    DEFAULT_HANG_UNIT_S,
    ChaosCrash,
    ChaosEvent,
    ChaosInjector,
    ChaosSchedule,
    crash_actor,
    delay_message,
    drop_message,
    generate_chaos_schedule,
    hang_actor,
)
from .checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointPins,
    trace_digest,
)
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
from .service import (
    SupervisedRun,
    TraceIngestError,
    requests_from_lines,
    run_live,
)
from .supervision import (
    INCIDENT_KINDS,
    ActorIncident,
    SupervisionConfig,
    SupervisorActor,
    backoff_s,
)

__all__ = [
    "CHAOS_ACTOR_KINDS",
    "CHAOS_KINDS",
    "CHAOS_MESSAGE_KINDS",
    "CHECKPOINT_VERSION",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_HANG_UNIT_S",
    "INCIDENT_KINDS",
    "STOP_TIMEOUT_S",
    "Actor",
    "ActorCrashed",
    "ActorIncident",
    "ArrivalBatch",
    "ChaosCrash",
    "ChaosEvent",
    "ChaosInjector",
    "ChaosSchedule",
    "Checkpoint",
    "CheckpointError",
    "CheckpointPins",
    "ChipActor",
    "Heartbeat",
    "IngestionActor",
    "PauseStream",
    "RunShard",
    "ShardDone",
    "Shutdown",
    "StreamEnded",
    "SupervisedRun",
    "SupervisionConfig",
    "SupervisorActor",
    "TraceIngestError",
    "backoff_s",
    "crash_actor",
    "delay_message",
    "drop_message",
    "generate_chaos_schedule",
    "hang_actor",
    "requests_from_lines",
    "run_live",
    "trace_digest",
]
