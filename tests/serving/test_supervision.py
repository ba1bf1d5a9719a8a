"""Unit and property tests of the supervisor.

Pins the recovery machinery the chaos differential rides on: config
validation, deterministic capped backoff, incident records, the
undisturbed-run identity (zero incidents, one session, batch-equal
result), quarantine-then-inline degradation, supervisor-crash ring
restore, stall-driven ingestion restart, paced streams that are quiet
but not stalled, pauses that wait for delayed batches and survive lost
messages and supervisor crashes, bounded ``Actor.stop``, a trace
digest computed only for a checkpoint, and the conservation property —
every request recorded exactly once under *any* generated chaos
schedule.
"""

import asyncio
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.mllm import get_mllm
from repro.serving import (
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    build_trace,
)
from repro.models.mllm import InferenceRequest
from repro.serving.queue import ServingRequest
from repro.serving.runtime import Checkpoint, run_live
from repro.serving.runtime import service
from repro.serving.runtime.actors import Actor
from repro.serving.runtime.chaos import (
    ChaosSchedule,
    crash_actor,
    delay_message,
    drop_message,
    generate_chaos_schedule,
    hang_actor,
)
from repro.serving.runtime.messages import ActorCrashed, Heartbeat
from repro.serving.runtime.supervision import (
    INCIDENT_KINDS,
    ActorIncident,
    SupervisionConfig,
    SupervisorActor,
    backoff_s,
)

#: Millisecond-scale timeouts so recovery paths run in test time.
FAST = SupervisionConfig(
    job_deadline_s=0.5,
    stall_deadline_s=0.15,
    tick_s=0.01,
    backoff_base_s=0.005,
    backoff_cap_s=0.05,
    max_retries=3,
    quarantine_after=2,
    checkpoint_every=4,
    seed=7,
)


@pytest.fixture(scope="module")
def model():
    return get_mllm("sphinx-tiny")


def _trace(seed, n=12):
    return build_trace(
        PoissonArrivals(6.0, seed=seed).generate(n),
        RequestSampler(seed=seed).sample(n),
    )


def _run(fleet, trace, chaos, **kwargs):
    return run_live(
        fleet,
        trace,
        chaos=chaos,
        supervision=FAST,
        batch_size=4,
        hang_unit_s=0.02,
        **kwargs,
    )


class TestConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("job_deadline_s", 0.0),
            ("stall_deadline_s", 0.0),
            ("tick_s", 0.0),
            ("backoff_base_s", -1.0),
            ("backoff_cap_s", -1.0),
            ("max_retries", -1),
            ("quarantine_after", 0),
            ("checkpoint_every", 0),
            ("max_ingest_restarts", 0),
            ("max_sessions", 0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError, match="backoff|" + field):
            SupervisionConfig(**{field: value})

    def test_cap_must_cover_base(self):
        with pytest.raises(ValueError, match="backoff_cap_s"):
            SupervisionConfig(backoff_base_s=0.5, backoff_cap_s=0.1)


class TestBackoff:
    def test_deterministic(self):
        config = SupervisionConfig(seed=3)
        assert backoff_s(config, 5, 2) == backoff_s(config, 5, 2)

    def test_varies_with_job_and_seed(self):
        config = SupervisionConfig(seed=3)
        assert backoff_s(config, 5, 2) != backoff_s(config, 6, 2)
        assert backoff_s(config, 5, 2) != backoff_s(
            SupervisionConfig(seed=4), 5, 2
        )

    def test_capped(self):
        config = SupervisionConfig(backoff_base_s=0.1, backoff_cap_s=0.3)
        for attempt in range(1, 12):
            assert backoff_s(config, 0, attempt) <= 0.3

    def test_attempt_gate(self):
        with pytest.raises(ValueError, match="attempt"):
            backoff_s(SupervisionConfig(), 0, 0)


class TestIncidents:
    def test_kind_gate(self):
        with pytest.raises(ValueError, match="kind"):
            ActorIncident(session=1, actor="chip-0", kind="mystery", detail="")
        with pytest.raises(ValueError, match="session"):
            ActorIncident(session=0, actor="chip-0", kind="crash", detail="")

    def test_dict_is_minimal(self):
        bare = ActorIncident(
            session=1, actor="supervisor", kind="stall", detail="x"
        )
        assert set(bare.to_dict()) == {"session", "actor", "kind", "detail"}
        full = ActorIncident(
            session=2,
            actor="chip-1",
            kind="retry",
            detail="x",
            job_id=3,
            attempt=2,
        )
        assert set(full.to_dict()) == {
            "session",
            "actor",
            "kind",
            "detail",
            "job_id",
            "attempt",
        }

    def test_all_kinds_constructible(self):
        for kind in INCIDENT_KINDS:
            ActorIncident(session=1, actor="supervisor", kind=kind, detail="")


class TestUndisturbed:
    def test_identity_with_batch(self, model):
        trace = _trace(41)
        fleet = FleetSimulator(model, n_chips=2)
        batch = fleet.run(trace)
        run = _run(fleet, trace, chaos=None)
        assert run.result == batch
        assert run.incidents == ()
        assert run.n_sessions == 1

    def test_empty_trace_rejected(self, model):
        fleet = FleetSimulator(model, n_chips=2)
        with pytest.raises(ValueError, match="empty"):
            run_live(fleet, [])


class TestRecoveryPaths:
    def test_chip_crash_restart(self, model):
        trace = _trace(43)
        fleet = FleetSimulator(model, n_chips=2)
        batch = fleet.run(trace)
        run = _run(
            fleet, trace, ChaosSchedule(events=(crash_actor("chip", 0),))
        )
        assert run.result == batch
        kinds = {incident.kind for incident in run.incidents}
        assert "crash" in kinds and "restart" in kinds and "retry" in kinds

    def test_quarantine_then_inline_fallback(self, model):
        # A 1-chip fleet whose only chip crashes twice: two strikes
        # quarantine it, and with no survivors the supervisor runs the
        # job inline — degraded, never wrong.
        trace = _trace(47)
        fleet = FleetSimulator(model, n_chips=1)
        batch = fleet.run(trace)
        run = _run(
            fleet,
            trace,
            ChaosSchedule(
                events=(crash_actor("chip", 0), crash_actor("chip", 1))
            ),
        )
        assert run.result == batch
        kinds = [incident.kind for incident in run.incidents]
        assert "quarantine" in kinds
        assert "inline_fallback" in kinds

    def test_hang_triggers_redispatch(self, model):
        trace = _trace(53)
        fleet = FleetSimulator(model, n_chips=2)
        batch = fleet.run(trace)
        # Hang long enough to blow the 0.5s deadline: 30 * 0.02s.
        run = _run(
            fleet, trace, ChaosSchedule(events=(hang_actor("chip", 0, 30),))
        )
        assert run.result == batch
        kinds = {incident.kind for incident in run.incidents}
        assert "hang" in kinds and "retry" in kinds

    def test_supervisor_crash_restores_from_ring(self, model):
        trace = _trace(59, n=16)
        fleet = FleetSimulator(model, n_chips=2)
        batch = fleet.run(trace)
        run = _run(
            fleet,
            trace,
            ChaosSchedule(events=(crash_actor("supervisor", 3),)),
        )
        assert run.result == batch
        assert run.n_sessions == 2
        restarts = [
            incident
            for incident in run.incidents
            if incident.kind == "supervisor_restart"
        ]
        assert len(restarts) == 1
        assert restarts[0].session == 1

    def test_ingestion_crash_restarts_stream(self, model):
        trace = _trace(61)
        fleet = FleetSimulator(model, n_chips=2)
        batch = fleet.run(trace)
        run = _run(
            fleet,
            trace,
            ChaosSchedule(events=(crash_actor("ingestion", 1),)),
        )
        assert run.result == batch
        assert any(
            incident.kind == "stall" for incident in run.incidents
        )

    def test_retry_budget_gives_up(self, model):
        # max_retries=0: the first crash exhausts the budget and the
        # run fails with the original cause instead of looping.
        trace = _trace(79)
        fleet = FleetSimulator(model, n_chips=2)
        config = SupervisionConfig(
            job_deadline_s=0.5,
            stall_deadline_s=0.15,
            tick_s=0.01,
            max_retries=0,
            checkpoint_every=4,
            seed=7,
        )
        from repro.serving.runtime.chaos import ChaosCrash

        with pytest.raises(ChaosCrash):
            run_live(
                fleet,
                trace,
                chaos=ChaosSchedule(events=(crash_actor("chip", 0),)),
                supervision=config,
                batch_size=4,
            )

    def test_ingest_restart_cap_gives_up(self, model):
        # The stream dies on every restart: the watchdog's restart
        # budget runs out and the run fails instead of spinning.
        trace = _trace(83)
        fleet = FleetSimulator(model, n_chips=2)
        config = SupervisionConfig(
            job_deadline_s=0.5,
            stall_deadline_s=0.1,
            tick_s=0.01,
            max_ingest_restarts=1,
            checkpoint_every=4,
            seed=7,
        )
        chaos = ChaosSchedule(
            events=(
                crash_actor("ingestion", 0),
                crash_actor("ingestion", 1),
                crash_actor("ingestion", 2),
            )
        )
        with pytest.raises(RuntimeError, match="giving up"):
            run_live(
                fleet,
                trace,
                chaos=chaos,
                supervision=config,
                batch_size=4,
            )

    def test_session_cap_gives_up(self, model):
        trace = _trace(67)
        fleet = FleetSimulator(model, n_chips=2)
        config = SupervisionConfig(
            job_deadline_s=0.5,
            stall_deadline_s=0.15,
            tick_s=0.01,
            checkpoint_every=4,
            max_sessions=1,
            seed=7,
        )
        with pytest.raises(RuntimeError, match="session"):
            run_live(
                fleet,
                trace,
                chaos=ChaosSchedule(events=(crash_actor("supervisor", 0),)),
                supervision=config,
                batch_size=4,
            )


class TestCleanFailure:
    def test_real_ingestion_error_fails_cleanly(self, model):
        # A genuine (non-chaos) crash report from any actor must fail
        # the run with the original cause, not hang the supervisor.
        trace = _trace(71, n=4)
        fleet = FleetSimulator(model, n_chips=1)

        async def session():
            from repro.serving.controllers import controller_for, sorted_order

            controller = controller_for(fleet, trace)
            supervisor = SupervisorActor(
                controller,
                1,
                arrivals=[(i, trace[i]) for i in sorted_order(trace)],
                config=FAST,
                incidents=[],
                ring=deque(maxlen=1),
            )
            supervisor.start()
            supervisor.post(
                ActorCrashed(
                    actor="ingestion",
                    error="ValueError('bad line')",
                    cause=ValueError("bad line"),
                )
            )
            try:
                await asyncio.wait_for(supervisor.outcome, timeout=5.0)
            finally:
                await supervisor.stop()

        with pytest.raises(ValueError, match="bad line"):
            asyncio.run(session())


class TestPacing:
    def test_long_gaps_are_not_stalls(self, model):
        # Arrivals 2 s apart at pace 10 leave the stream quiet for 0.2 s
        # between posts, past the 0.15 s stall deadline: waiting for the
        # next due arrival must not count as a stall.
        trace = [
            ServingRequest(
                request_id=i,
                arrival_s=2.0 * i,
                request=InferenceRequest(
                    images=0, prompt_text_tokens=16, output_tokens=4
                ),
            )
            for i in range(12)
        ]
        fleet = FleetSimulator(model, n_chips=2)
        run = _run(fleet, trace, chaos=None, pace=10.0)
        assert run.result == fleet.run(trace)
        assert run.incidents == ()


class TestPause:
    def _pause_and_resume(self, fleet, trace, pause_after, chaos):
        checkpoint = _run(fleet, trace, chaos, pause_after=pause_after)
        assert isinstance(checkpoint, Checkpoint)
        assert checkpoint.cursor == pause_after
        undisturbed = _run(fleet, trace, None, pause_after=pause_after)
        assert checkpoint == undisturbed
        resumed = run_live(
            fleet,
            trace,
            checkpoint=Checkpoint.from_json(checkpoint.to_json()),
            supervision=FAST,
            batch_size=4,
        )
        assert resumed.result == fleet.run(trace)

    def test_pause_waits_for_a_delayed_batch(self, model):
        # Batch 1 arrives after PauseStream: the pause must still hold
        # every arrival before its cursor.
        trace = _trace(89)
        fleet = FleetSimulator(model, n_chips=2)
        chaos = ChaosSchedule(
            events=(delay_message("ArrivalBatch", 1, 0.05),)
        )
        self._pause_and_resume(fleet, trace, 10, chaos)

    def test_lost_pause_message_restarts_into_the_pause(self, model):
        trace = _trace(97)
        fleet = FleetSimulator(model, n_chips=2)
        chaos = ChaosSchedule(events=(drop_message("PauseStream", 0),))
        self._pause_and_resume(fleet, trace, 10, chaos)

    def test_supervisor_crash_at_the_pause_cursor(self, model):
        # With checkpoint_every=4 the ring holds cursor 8 = pause_after
        # when the supervisor dies on its third message (PauseStream):
        # the rebuilt session starts at the pause and resolves it.
        trace = _trace(101)
        fleet = FleetSimulator(model, n_chips=2)
        chaos = ChaosSchedule(events=(crash_actor("supervisor", 2),))
        self._pause_and_resume(fleet, trace, 8, chaos)


class TestTraceDigest:
    """The run loop hashes the trace only to check, write or restore a checkpoint."""

    @pytest.fixture
    def digests(self, monkeypatch):
        calls = []
        original = service.trace_digest

        def counting(trace):
            calls.append(len(trace))
            return original(trace)

        monkeypatch.setattr(service, "trace_digest", counting)
        return calls

    def test_undisturbed_run_computes_none(self, model, digests):
        trace = _trace(103)
        fleet = FleetSimulator(model, n_chips=2)
        run = _run(fleet, trace, None)
        assert run.result == fleet.run(trace)
        assert run.n_sessions == 1
        assert digests == []

    def test_pause_computes_one(self, model, digests):
        paused = _run(
            FleetSimulator(model, n_chips=2), _trace(103), None, pause_after=8
        )
        assert isinstance(paused, Checkpoint)
        assert digests == [12]

    def test_resume_computes_one(self, model, digests):
        trace = _trace(103)
        fleet = FleetSimulator(model, n_chips=2)
        paused = _run(fleet, trace, None, pause_after=8)
        digests.clear()
        resumed = run_live(
            fleet, trace, checkpoint=paused, supervision=FAST, batch_size=4
        )
        assert resumed.result == fleet.run(trace)
        assert digests == [12]

    def test_supervisor_restart_computes_one(self, model, digests):
        # checkpoint_every=4 and batches of 4: the ring holds a cursor
        # past 0 when the supervisor dies on its fourth message.
        trace = _trace(103)
        fleet = FleetSimulator(model, n_chips=2)
        run = _run(
            fleet, trace, ChaosSchedule(events=(crash_actor("supervisor", 3),))
        )
        assert run.result == fleet.run(trace)
        assert run.n_sessions == 2
        [restart] = [i for i in run.incidents if i.kind == "supervisor_restart"]
        assert not restart.detail.endswith("from cursor 0")
        assert digests == [12]


class _Stuck(Actor):
    """Test double: blocks forever on its first message."""

    async def on_message(self, message):
        await asyncio.Event().wait()


class TestBoundedStop:
    def test_stop_times_out_and_cancels(self):
        async def session():
            actor = _Stuck("stuck")
            actor.start()
            actor.post(Heartbeat(actor="x", n_done=0))
            await asyncio.sleep(0)  # let it enter on_message
            stopped = await actor.stop(timeout_s=0.05)
            return stopped, actor._task.cancelled()

        stopped, cancelled = asyncio.run(session())
        assert stopped is False
        assert cancelled

    def test_stop_is_clean_for_idle_actor(self):
        async def session():
            actor = _Stuck("idle")
            actor.start()
            return await actor.stop(timeout_s=1.0)

        assert asyncio.run(session()) is True


class TestConservation:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_crashes=st.integers(min_value=0, max_value=2),
        n_drops=st.integers(min_value=0, max_value=1),
        n_hangs=st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=6, deadline=None)
    def test_every_request_recorded_exactly_once(
        self, seed, n_crashes, n_drops, n_hangs
    ):
        model = get_mllm("sphinx-tiny")
        trace = _trace(73, n=10)
        fleet = FleetSimulator(model, n_chips=2)
        batch = fleet.run(trace)
        chaos = generate_chaos_schedule(
            seed,
            n_chips=2,
            n_batches=3,
            n_crashes=n_crashes,
            n_drops=n_drops,
            n_hangs=n_hangs,
            hang_shards=5,
        )
        run = _run(fleet, trace, chaos)
        recorded = sorted(record.request_id for record in run.result.records)
        expected = sorted(request.request_id for request in trace)
        assert recorded == expected
        assert run.result == batch
