"""Unit tests of the live runtime's actors, sources and guard rails.

The differential and checkpoint suites prove the headline equivalences;
this file pins the mechanics underneath them: ingestion batching and
validation, the JSON-line trace source, supervisor arrival accounting
and error propagation, and the ``runtime=`` plumbing on the fleet entry
points.
"""

import asyncio
import json
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.mllm import InferenceRequest, get_mllm
from repro.serving import (
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    ServingRequest,
    build_trace,
)
from repro.serving.controllers import controller_for, sorted_order
from repro.serving.faults import FaultEvent, FaultSchedule
from repro.serving.metrics import RequestRecord
from repro.serving.trace import request_from_state, request_to_state
from repro.serving.runtime import (
    ArrivalBatch,
    IngestionActor,
    StreamEnded,
    SupervisionConfig,
    SupervisorActor,
    TraceIngestError,
    requests_from_lines,
    run_live,
)
from repro.serving.runtime.actors import Actor


@pytest.fixture(scope="module")
def model():
    return get_mllm("sphinx-tiny")


def _trace(seed, n=24):
    return build_trace(
        PoissonArrivals(6.0, seed=seed).generate(n),
        RequestSampler(seed=seed).sample(n),
    )


class _Collector(Actor):
    """Test double: records every message it receives."""

    def __init__(self):
        super().__init__("collector")
        self.received = []

    async def on_message(self, message):
        self.received.append(message)


def _ingest(arrivals, **kwargs):
    async def session():
        collector = _Collector()
        collector.start()
        ingestion = IngestionActor(arrivals, collector, **kwargs)
        ingestion.start()
        await ingestion._task
        await collector.stop()
        return collector.received

    return asyncio.run(session())


class TestIngestion:
    def test_batching_and_terminal_message(self, model):
        trace = _trace(3, n=10)
        arrivals = [(index, trace[index]) for index in sorted_order(trace)]
        received = _ingest(arrivals, batch_size=4)
        batches = [m for m in received if isinstance(m, ArrivalBatch)]
        assert [len(b.arrivals) for b in batches] == [4, 4, 2]
        flattened = [pair for b in batches for pair in b.arrivals]
        assert flattened == arrivals
        assert received[-1] == StreamEnded(total=10)

    def test_pacing_forces_batches_of_one(self, model):
        trace = _trace(3, n=6)
        arrivals = [(index, trace[index]) for index in sorted_order(trace)]
        received = _ingest(arrivals, batch_size=4, pace=1e9)
        batches = [m for m in received if isinstance(m, ArrivalBatch)]
        assert [len(b.arrivals) for b in batches] == [1] * 6

    def test_validation(self, model):
        trace = _trace(3, n=6)
        arrivals = [(index, trace[index]) for index in sorted_order(trace)]
        collector = object()
        with pytest.raises(ValueError, match="batch_size"):
            IngestionActor(arrivals, collector, batch_size=0)
        with pytest.raises(ValueError, match="pace"):
            IngestionActor(arrivals, collector, pace=0.0)
        with pytest.raises(ValueError, match="start_at"):
            IngestionActor(arrivals, collector, start_at=7)
        with pytest.raises(ValueError, match="pause_after"):
            IngestionActor(arrivals, collector, start_at=3, pause_after=3)
        with pytest.raises(ValueError, match="pause_after"):
            IngestionActor(arrivals, collector, pause_after=7)


class TestSources:
    def test_requests_from_lines_round_trip(self, model):
        trace = _trace(5, n=8)
        lines = [json.dumps(request_to_state(r)) for r in trace]
        lines.insert(3, "")  # blank lines are skipped
        lines.append("   ")
        assert requests_from_lines(lines) == list(trace)

    def test_request_state_round_trip(self, model):
        for request in _trace(5, n=4):
            assert request_from_state(request_to_state(request)) == request

    @given(
        fields=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**63),
                st.floats(min_value=0.0, max_value=1e9),
                st.integers(min_value=0, max_value=64),
                st.integers(min_value=0, max_value=100_000),
                st.integers(min_value=1, max_value=100_000),
            ).filter(lambda f: f[2] or f[3]),  # an image or a prompt token
            max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_lines_round_trip_any_request(self, fields):
        # Beyond sampled traces: image-only shapes, huge ids and any
        # arrival double (subnormals included) come back exactly.
        trace = [
            ServingRequest(
                request_id=request_id,
                arrival_s=arrival_s,
                request=InferenceRequest(
                    images=images,
                    prompt_text_tokens=prompt,
                    output_tokens=output,
                ),
            )
            for request_id, arrival_s, images, prompt, output in fields
        ]
        lines = [json.dumps(request_to_state(r)) for r in trace]
        assert requests_from_lines(lines) == trace

    def test_bad_json_names_the_line(self, model):
        lines = [json.dumps(request_to_state(r)) for r in _trace(5, n=3)]
        lines.insert(1, "{not json")
        with pytest.raises(TraceIngestError, match="line 2") as excinfo:
            requests_from_lines(lines)
        assert excinfo.value.line_no == 2
        assert excinfo.value.field is None

    def test_non_object_line_rejected(self, model):
        lines = [json.dumps(request_to_state(r)) for r in _trace(5, n=2)]
        lines.append("[1, 2, 3]")
        with pytest.raises(TraceIngestError, match="line 3"):
            requests_from_lines(lines)

    def test_missing_field_names_line_and_field(self, model):
        states = [request_to_state(r) for r in _trace(5, n=3)]
        del states[2]["output_tokens"]
        lines = [json.dumps(state) for state in states]
        with pytest.raises(TraceIngestError, match="output_tokens") as excinfo:
            requests_from_lines(lines)
        assert excinfo.value.line_no == 3
        assert excinfo.value.field == "output_tokens"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("arrival_s", "soon"),
            # Python's json reads NaN and Infinity literals; they must
            # not reach the controllers as arrival times.
            ("arrival_s", float("nan")),
            ("arrival_s", float("inf")),
            ("arrival_s", float("-inf")),
            ("arrival_s", -0.5),
            ("images", -1),
            ("prompt_text_tokens", -1),
            ("output_tokens", 0),
            # Coerced like a spec file: no truncation, booleans, strings
            # or unknown keys.
            ("output_tokens", 3.7),
            ("request_id", 0.9),
            ("images", True),
            ("prompt_text_tokens", "32"),
            ("arrival_s", "0.5"),
            ("priority", 2.0),
        ],
    )
    def test_bad_field_names_line_and_field(self, model, field, value):
        states = [request_to_state(r) for r in _trace(5, n=2)]
        states[0][field] = value
        lines = [json.dumps(state) for state in states]
        with pytest.raises(TraceIngestError, match=field) as excinfo:
            requests_from_lines(lines)
        assert excinfo.value.line_no == 1
        assert excinfo.value.field == field

    def test_ingest_error_is_a_value_error(self, model):
        # Callers may keep catching ValueError for any bad trace input.
        with pytest.raises(ValueError):
            requests_from_lines(["nope"])

    def test_lines_drive_a_live_run(self, model):
        trace = _trace(5, n=12)
        lines = [json.dumps(request_to_state(r)) for r in trace]
        fleet = FleetSimulator(model, n_chips=2)
        batch = fleet.run(trace)
        live = run_live(fleet, requests_from_lines(lines))
        assert live.result == batch


class TestSupervisor:
    def test_error_propagates_like_batch(self, model):
        # Chip 0 of a 1-chip fleet goes down and never returns: parked
        # requests make both planes raise the same error.
        trace = _trace(7, n=10)
        schedule = FaultSchedule(
            events=(FaultEvent(time_s=0.0, kind="chip_down", chip_id=0),)
        )
        fleet = FleetSimulator(model, n_chips=1)
        with pytest.raises(ValueError, match="never dispatched"):
            fleet.run(trace, faults=schedule)
        with pytest.raises(ValueError, match="never dispatched"):
            fleet.run(trace, faults=schedule, runtime="live")

    def test_supervisor_counts_arrivals(self, model):
        # A hand-posted sequenced batch races the supervisor's own
        # ingestion of the same arrivals: each is applied exactly once.
        trace = _trace(7, n=10)
        arrivals = [(index, trace[index]) for index in sorted_order(trace)]

        async def session():
            controller = controller_for(
                FleetSimulator(model, n_chips=2), trace
            )
            supervisor = SupervisorActor(
                controller,
                2,
                arrivals=arrivals,
                config=SupervisionConfig(),
                incidents=[],
                ring=deque(maxlen=1),
                batch_size=4,
            )
            supervisor.start()
            supervisor.post(ArrivalBatch(arrivals=tuple(arrivals), start=0))
            supervisor.post(StreamEnded(total=len(arrivals)))
            result = await supervisor.outcome
            await supervisor.stop()
            return controller.n_seen, result

        seen, result = asyncio.run(session())
        assert seen == 10
        assert len(result.records) == 10


class TestRuntimePlumbing:
    def test_invalid_runtime_rejected(self, model):
        trace = _trace(11, n=6)
        fleet = FleetSimulator(model, n_chips=2)
        with pytest.raises(ValueError, match="runtime"):
            fleet.run(trace, runtime="warp")

    def test_one_session_precomputes_once(self, model, monkeypatch):
        # The session's controller seeds the fleet; the driver must not
        # price the whole trace a second time before it.
        calls = []
        precompute = FleetSimulator.precompute_service_times

        def counted(fleet, trace):
            calls.append(len(trace))
            return precompute(fleet, trace)

        monkeypatch.setattr(FleetSimulator, "precompute_service_times", counted)
        trace = _trace(11, n=6)
        run_live(FleetSimulator(model, n_chips=2), trace)
        assert calls == [len(trace)]

    def test_empty_trace_rejected(self, model):
        fleet = FleetSimulator(model, n_chips=2)
        with pytest.raises(ValueError, match="empty"):
            run_live(fleet, [])

    def test_pause_cursor_must_lie_ahead(self, model):
        trace = _trace(11, n=6)
        fleet = FleetSimulator(model, n_chips=2)
        for pause_after in (0, 7):
            with pytest.raises(ValueError, match="pause_after"):
                run_live(fleet, trace, pause_after=pause_after)
        checkpoint = run_live(fleet, trace, pause_after=3)
        with pytest.raises(ValueError, match="pause_after"):
            run_live(fleet, trace, checkpoint=checkpoint, pause_after=3)

    def test_live_run_never_formats_its_records(self, model, monkeypatch):
        # asyncio.run on Python 3.11/3.12 formats repr(main_task), result
        # included, while restoring the SIGINT handler; the session must
        # hand its outcome back another way than its return value.
        calls = []
        original = RequestRecord.__repr__

        def counting_repr(record):
            calls.append(record.request_id)
            return original(record)

        monkeypatch.setattr(RequestRecord, "__repr__", counting_repr)
        trace = _trace(11, n=12)
        fleet = FleetSimulator(model, n_chips=2)
        result = fleet.run(trace, runtime="live")
        assert len(result.records) == 12
        assert calls == []

    def test_cli_runtime_flag(self, capsys):
        from repro.scenarios.__main__ import main

        assert main(["run", "chat-poisson", "--json"]) == 0
        batch = capsys.readouterr().out
        assert (
            main(["run", "chat-poisson", "--json", "--runtime", "live"])
            == 0
        )
        live = capsys.readouterr().out
        assert live == batch
