"""Corruption matrix: every way a checkpoint file can be bad, one error.

A checkpoint is the one artifact that crosses process boundaries, so
every failure mode — truncation, garbage bytes, a foreign JSON shape,
an unsupported version (including a file in the retired version-1
format), missing or mistyped fields, an embedded scenario spec that
does not decode, a wrong trace digest, tampered pins, a fleet of
another size — must surface as a single
:class:`~repro.serving.runtime.checkpoint.CheckpointError` whose
message names what was wrong, never a hang, a KeyError leak or a
silently wrong resume.  ``Checkpoint.load`` additionally prefixes the
offending path, also for bytes that are not UTF-8 text.  The ``engine`` key older builds wrote is no failure
mode: nothing reads it, whatever engine it names.
"""

import json
from pathlib import Path

import pytest

from repro.models.mllm import InferenceRequest, get_mllm
from repro.scenarios.registry import get_scenario
from repro.scenarios import resume_scenario, run_scenario_live, runner
from repro.scenarios.runner import build_fleet, run_scenario
from repro.serving import (
    AutoscalerSpec,
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    build_trace,
)
from repro.serving.runtime import (
    Checkpoint,
    CheckpointError,
    run_live,
)

#: A version-1 checkpoint, written by the retired plain static
#: controller (whose synthetic ids were trace positions) after two
#: arrivals of :func:`_version_1_trace` on a two-chip fleet.
VERSION_1_CHECKPOINT = {
    "controller": {
        "assignments": [[0, 0], [1, 1]],
        "heap": [[0.0, 0], [0.0, 1]],
        "kind": "static",
        "position": 2,
    },
    "cursor": 2,
    "kind": "static",
    "trace_sha256": (
        "2ba5b8d8e7bcf8796ab3c7d0cda44e5da333bc74e7cc00a33e82be06079d53ca"
    ),
    "version": 1,
}


def _version_1_trace():
    shape = InferenceRequest(images=0, prompt_text_tokens=16, output_tokens=4)
    return build_trace([0.0, 0.5, 1.0, 1.5], [shape] * 4)


def _chip_count_trace():
    return build_trace(
        PoissonArrivals(5.0, seed=3).generate(60), RequestSampler(seed=3).sample(60)
    )


def _static_fleet(n_chips, policy="least_loaded"):
    return FleetSimulator(get_mllm("sphinx-tiny"), n_chips=n_chips, policy=policy)


def _autoscaled_fleet(n_chips):
    return FleetSimulator(
        get_mllm("sphinx-tiny"),
        autoscaler=AutoscalerSpec(target_p99_ttft_s=1.0, max_chips=n_chips),
    )


@pytest.fixture(scope="module")
def checkpoint():
    """A genuine mid-run scenario checkpoint to corrupt."""
    return run_scenario_live(get_scenario("chat-poisson"), pause_after=10)


def _truncate(text):
    return text[: len(text) // 2]


def _garbage(text):
    return "\x00\xff this was never json"


def _array(text):
    return "[1, 2, 3]"


def _mutate(field, value):
    def corrupt(text):
        data = json.loads(text)
        data[field] = value
        return json.dumps(data)

    return corrupt


def _mutate_scenario(field, value):
    def corrupt(text):
        data = json.loads(text)
        data["scenario"][field] = value
        return json.dumps(data)

    return corrupt


def _mutate_arrival(field, value):
    def corrupt(text):
        data = json.loads(text)
        data["scenario"]["arrival"][field] = value
        return json.dumps(data)

    return corrupt


def _mutate_fleet(field, value):
    def corrupt(text):
        data = json.loads(text)
        data["scenario"]["fleet"][field] = value
        return json.dumps(data)

    return corrupt


def _drop(field):
    def corrupt(text):
        data = json.loads(text)
        del data[field]
        return json.dumps(data)

    return corrupt


CORRUPTIONS = [
    pytest.param(_truncate, "not valid JSON", id="truncated"),
    pytest.param(_garbage, "not valid JSON", id="garbage-bytes"),
    pytest.param(_array, "JSON object", id="wrong-json-shape"),
    pytest.param(
        _mutate("version", 99), "unsupported checkpoint version", id="future-version"
    ),
    pytest.param(
        _mutate("version", "one"), "version must be an integer", id="non-int-version"
    ),
    # Top-level integers read like a spec file's: an integer-valued JSON
    # number, never a string, a boolean or a fraction; strings stay strings.
    pytest.param(
        _mutate("version", "3"), "version must be an integer", id="string-version"
    ),
    pytest.param(
        _mutate("version", 3.9), "version must be an integer", id="fractional-version"
    ),
    pytest.param(
        _mutate("cursor", 60.7), "cursor must be an integer", id="fractional-cursor"
    ),
    pytest.param(
        _mutate("cursor", "60"), "cursor must be an integer", id="string-cursor"
    ),
    pytest.param(
        _mutate("cursor", True), "cursor must be an integer", id="boolean-cursor"
    ),
    pytest.param(_mutate("kind", 5), "kind must be a string", id="numeric-kind"),
    pytest.param(_mutate("kind", None), "kind must be a string", id="null-kind"),
    pytest.param(
        _mutate("trace_sha256", 7),
        "trace_sha256 must be a string",
        id="numeric-digest",
    ),
    pytest.param(_drop("kind"), "missing required field", id="missing-kind"),
    pytest.param(_drop("cursor"), "missing required field", id="missing-cursor"),
    pytest.param(
        _drop("controller"), "missing required field", id="missing-controller"
    ),
    pytest.param(
        _drop("trace_sha256"), "missing required field", id="missing-digest"
    ),
    pytest.param(
        _mutate("controller", "not a dict"), "wrong type", id="mistyped-controller"
    ),
    pytest.param(
        _mutate("scenario", {"name": 5}), r"scenario\.name: ", id="malformed-scenario"
    ),
    pytest.param(
        _mutate_scenario("n_requests", "many"),
        r"scenario\.n_requests: ",
        id="mistyped-scenario-field",
    ),
    pytest.param(
        _mutate_arrival("rate_rps", float("nan")),
        r"scenario\.arrival\.rate_rps: expected a finite number, got nan",
        id="non-finite-scenario-field",
    ),
    pytest.param(
        _mutate_fleet("policy", "bogus"),
        r"scenario\.fleet: policy",
        id="unknown-fleet-policy",
    ),
]


class TestParseMatrix:
    @pytest.mark.parametrize("corrupt, match", CORRUPTIONS)
    def test_from_json_rejects(self, checkpoint, corrupt, match):
        with pytest.raises(CheckpointError, match=match):
            Checkpoint.from_json(corrupt(checkpoint.to_json()))

    @pytest.mark.parametrize("corrupt, match", CORRUPTIONS)
    def test_load_names_the_file(self, checkpoint, corrupt, match, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(corrupt(checkpoint.to_json()), encoding="utf-8")
        with pytest.raises(CheckpointError, match=match) as excinfo:
            Checkpoint.load(path)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize(
        "encode",
        [
            pytest.param(
                lambda text: b"\xff\xfe\x00" + text.encode("utf-8"), id="stray-bytes"
            ),
            pytest.param(lambda text: text.encode("utf-16"), id="utf-16"),
        ],
    )
    def test_load_names_the_file_for_non_utf8_bytes(
        self, checkpoint, encode, tmp_path
    ):
        path = tmp_path / "bad.json"
        path.write_bytes(encode(checkpoint.to_json()))
        with pytest.raises(CheckpointError, match="not UTF-8 text") as excinfo:
            Checkpoint.load(path)
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_integral_float_cursor_reads_as_an_integer(self, checkpoint):
        # The spec files' integer rule accepts an integer-valued number.
        text = _mutate("cursor", 10.0)(checkpoint.to_json())
        assert Checkpoint.from_json(text) == checkpoint

    def test_errors_are_value_errors(self, checkpoint):
        # One catchable family: callers may keep catching ValueError.
        with pytest.raises(ValueError):
            Checkpoint.from_json("{")


class TestRetiredVersion:
    def test_version_1_file_is_rejected_by_name(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(VERSION_1_CHECKPOINT), encoding="utf-8")
        with pytest.raises(
            CheckpointError, match="unsupported checkpoint version 1"
        ) as excinfo:
            Checkpoint.load(path)
        assert str(path) in str(excinfo.value)

    def test_version_1_payload_never_reaches_a_controller(self):
        # Same trace and fleet as the file was taken against: only the
        # version gate stands between it and a silently wrong resume.
        trace = _version_1_trace()
        fleet = FleetSimulator(get_mllm("sphinx-tiny"), n_chips=2)
        with pytest.raises(CheckpointError, match="version 1"):
            run_live(
                fleet, trace, checkpoint=Checkpoint.from_dict(VERSION_1_CHECKPOINT)
            )


class TestResumeGuards:
    def test_wrong_trace_digest(self, checkpoint):
        data = checkpoint.to_dict()
        digest = data["trace_sha256"]
        data["trace_sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        with pytest.raises(CheckpointError, match="digest"):
            resume_scenario(Checkpoint.from_dict(data))

    def test_tampered_controller_state(self, checkpoint):
        # The controller object holds only pins; a mistyped one is
        # rejected by its path as the file loads.
        data = json.loads(checkpoint.to_json())
        data["controller"]["n_chips"] = "two"
        with pytest.raises(CheckpointError, match=r"controller\.n_chips: "):
            Checkpoint.from_dict(data)

    @pytest.mark.parametrize(
        "cursor", [3, 11], ids=["behind-state", "ahead-of-state"]
    )
    def test_cursor_inside_the_trace_resumes_exactly(self, checkpoint, cursor):
        # The fixture paused at 10, but a resume replays whatever prefix
        # the cursor names: there is no stored state to disagree with.
        data = checkpoint.to_dict()
        data["cursor"] = cursor
        report = resume_scenario(Checkpoint.from_dict(data))
        assert report.to_json() == run_scenario(get_scenario("chat-poisson")).to_json()

    @pytest.mark.parametrize("cursor", [-1, 10**9], ids=["negative", "past-trace"])
    def test_cursor_must_lie_in_the_trace(self, checkpoint, cursor):
        data = checkpoint.to_dict()
        data["cursor"] = cursor
        with pytest.raises(CheckpointError, match="'cursor'"):
            resume_scenario(Checkpoint.from_dict(data))

    @pytest.mark.parametrize("engine", ["macro", "warp"])
    def test_unknown_engine_never_reaches_the_fleet(
        self, checkpoint, engine, tmp_path, monkeypatch
    ):
        # Older builds refused an unknown engine named in the file; now
        # the key is never read, so the resume builds its fleet on the
        # wave engine and finishes the uninterrupted run.
        path = tmp_path / "engine.json"
        path.write_text(
            _mutate("engine", engine)(checkpoint.to_json()), encoding="utf-8"
        )
        fleets = []

        def recording_build_fleet(spec, **kwargs):
            fleets.append(build_fleet(spec, **kwargs))
            return fleets[-1]

        monkeypatch.setattr(runner, "build_fleet", recording_build_fleet)
        report = resume_scenario(Checkpoint.load(path))
        assert len(fleets) == 1
        assert {chip.engine for chip in fleets[0].chips} == {"wave"}
        assert report.to_json() == run_scenario(get_scenario("chat-poisson")).to_json()

    @pytest.mark.parametrize("n_chips", [2, 4])
    @pytest.mark.parametrize(
        "fleet", [_static_fleet, _autoscaled_fleet], ids=["static", "autoscaled"]
    )
    def test_fleet_of_another_size(self, fleet, n_chips):
        # Paused on three chips: a smaller fleet must not drop the
        # requests of the missing chip, nor a larger one index past the
        # stored chips.
        trace = _chip_count_trace()
        paused = run_live(fleet(3), trace, pause_after=30)
        with pytest.raises(
            CheckpointError,
            match=f"'n_chips' holds 3 chips, but this fleet has {n_chips}",
        ):
            run_live(fleet(n_chips), trace, checkpoint=paused)

    @pytest.mark.parametrize(
        "paused_on, resumed_on",
        [("least_loaded", "round_robin"), ("round_robin", "least_loaded")],
    )
    def test_fleet_of_another_policy(self, paused_on, resumed_on):
        # The static controller's kind is the same for both policies, so
        # only the stored policy tells the two dispatch states apart.
        trace = _chip_count_trace()
        paused = run_live(_static_fleet(3, paused_on), trace, pause_after=30)
        with pytest.raises(
            CheckpointError,
            match=f"'policy' is '{paused_on}', but this fleet dispatches "
            f"'{resumed_on}'",
        ):
            run_live(_static_fleet(3, resumed_on), trace, checkpoint=paused)

    def test_state_without_a_policy_still_resumes(self):
        # Pins without a policy (version-2 files written before it was
        # recorded) resume unchecked, as before.
        trace = _chip_count_trace()
        data = run_live(_static_fleet(3), trace, pause_after=30).to_dict()
        del data["controller"]["policy"]
        resumed = run_live(
            _static_fleet(3), trace, checkpoint=Checkpoint.from_dict(data)
        )
        assert resumed.result == _static_fleet(3).run(trace)

    def test_round_trip_still_resumes(self, checkpoint, tmp_path):
        # Control leg: the uncorrupted file resumes fine.
        path = checkpoint.save(tmp_path / "good.json")
        report = resume_scenario(Checkpoint.load(path))
        assert report.n_completed == get_scenario("chat-poisson").n_requests
