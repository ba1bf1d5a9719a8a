"""A checkpoint is a cursor: resume replays, and version-2 files still load.

A version-3 checkpoint holds the cursor and the configuration pins,
never controller state; a resume builds a fresh controller and replays
the arrivals before the cursor.  The fixtures under
``tests/golden/checkpoints/v2`` were written by the version-2 format,
whose ``controller`` object held the whole controller state next to the
same pins: a static faulted run paused after a closed era
(``chat-chipfail`` at 120), an autoscaled run (``edge-kiosk-overload``
at 100) and a round-robin run (``trace-spike`` at 40).  Each must load,
resume to the uninterrupted report, and ignore every key of its
``controller`` object but the pins.  The fixtures under
``tests/golden/checkpoints/v3`` pin the version-3 bytes, one per fleet
kind, at the cursors of the first two: this build must write them
byte for byte, and each must resume to the uninterrupted report.
Earlier version-2 and version-3 files also named the decode engine
(``"engine": "wave"``, after ``cursor``); nothing reads that key any
more, so such a file, whichever engine it names (the retired
``"macro"`` and a mistyped name included), loads to the checkpoint the
fixture holds and resumes on the wave engine to the same report.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.models.mllm import get_mllm
from repro.scenarios.registry import get_scenario
from repro.scenarios import resume_scenario, run_scenario_live
from repro.scenarios.runner import run_scenario
from repro.serving import (
    AutoscalerConfig,
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    build_trace,
)
from repro.serving.controllers import (
    AutoscaleController,
    StaticController,
    sorted_order,
)
from repro.serving.faults import FaultEvent, FaultSchedule
from repro.serving.runtime import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    run_live,
)

V2_DIR = Path(__file__).resolve().parents[1] / "golden" / "checkpoints" / "v2"
V3_DIR = V2_DIR.parent / "v3"

#: Fixture file → the scenario it paused.
V2_FIXTURES = {
    "chat-chipfail-120.json": "chat-chipfail",
    "edge-kiosk-overload-100.json": "edge-kiosk-overload",
    "trace-spike-40.json": "trace-spike",
}
STATIC_FIXTURES = ("chat-chipfail-120.json", "trace-spike-40.json")
#: Version-3 fixture file → the scenario it paused, one per fleet kind.
V3_FIXTURES = {
    "chat-chipfail-120.json": "chat-chipfail",
    "edge-kiosk-overload-100.json": "edge-kiosk-overload",
}


@functools.lru_cache(maxsize=None)
def batch_json(name):
    return run_scenario(get_scenario(name)).to_json()


def _drop_last_assignment(controller):
    controller["ledger"]["assignments"].pop()


def _event_pos(controller):
    controller["event_pos"] = -1


def _n_seen(controller):
    controller["n_seen"] = -1


def _closed_eras(controller):
    for chip in controller["ledger"]["chips"]:
        chip["closed"] = "gone"


class TestVersion2Fixtures:
    def test_every_fixture_is_version_2(self):
        assert sorted(path.name for path in V2_DIR.glob("*.json")) == sorted(
            V2_FIXTURES
        )
        for file in V2_FIXTURES:
            assert json.loads((V2_DIR / file).read_text())["version"] == 2

    @pytest.mark.parametrize("file", sorted(V2_FIXTURES))
    def test_resumes_to_the_uninterrupted_report(self, file):
        report = resume_scenario(Checkpoint.load(V2_DIR / file))
        assert report.to_json() == batch_json(V2_FIXTURES[file])

    @pytest.mark.parametrize("file", sorted(V2_FIXTURES))
    def test_loads_as_the_checkpoint_this_build_writes(self, file):
        loaded = Checkpoint.load(V2_DIR / file)
        spec = get_scenario(V2_FIXTURES[file])
        assert loaded == run_scenario_live(spec, pause_after=loaded.cursor)
        assert loaded.to_dict()["version"] == CHECKPOINT_VERSION

    @pytest.mark.parametrize("file", STATIC_FIXTURES)
    def test_without_a_policy_still_resumes(self, file):
        data = json.loads((V2_DIR / file).read_text())
        del data["controller"]["policy"]
        report = resume_scenario(Checkpoint.from_dict(data))
        assert report.to_json() == batch_json(V2_FIXTURES[file])

    @pytest.mark.parametrize(
        "corrupt",
        [_drop_last_assignment, _event_pos, _n_seen, _closed_eras],
        ids=["assignments", "event_pos", "n_seen", "closed-eras"],
    )
    @pytest.mark.parametrize("file", sorted(V2_FIXTURES))
    def test_dynamic_state_is_never_read(self, file, corrupt):
        data = json.loads((V2_DIR / file).read_text())
        corrupt(data["controller"])
        report = resume_scenario(Checkpoint.from_dict(data))
        assert report.to_json() == batch_json(V2_FIXTURES[file])

    @pytest.mark.parametrize("file", sorted(V2_FIXTURES))
    def test_the_engine_it_names_is_ignored(self, file):
        data = json.loads((V2_DIR / file).read_text())
        assert data["engine"] == "wave"
        data["engine"] = "step"
        loaded = Checkpoint.from_dict(data)
        assert loaded == Checkpoint.load(V2_DIR / file)
        report = resume_scenario(loaded)
        assert report.to_json() == batch_json(V2_FIXTURES[file])

    def test_version_2_pins_are_still_checked(self):
        data = json.loads((V2_DIR / "chat-chipfail-120.json").read_text())
        data["controller"]["horizons"].append(0.0)
        with pytest.raises(CheckpointError, match="'n_chips' holds 3 chips"):
            resume_scenario(Checkpoint.from_dict(data))

    def test_version_2_without_horizons_is_rejected(self):
        data = json.loads((V2_DIR / "trace-spike-40.json").read_text())
        del data["controller"]["horizons"]
        with pytest.raises(CheckpointError, match=r"controller\.horizons"):
            Checkpoint.from_dict(data)


class TestVersion3Fixtures:
    def test_one_fixture_per_fleet_kind(self):
        assert sorted(path.name for path in V3_DIR.glob("*.json")) == sorted(
            V3_FIXTURES
        )
        data = [json.loads((V3_DIR / file).read_text()) for file in V3_FIXTURES]
        assert {entry["version"] for entry in data} == {3}
        assert {entry["kind"] for entry in data} == {"fault_fleet", "fault_autoscale"}

    @pytest.mark.parametrize("file", sorted(V3_FIXTURES))
    def test_this_build_writes_the_same_bytes(self, file, tmp_path):
        cursor = json.loads((V3_DIR / file).read_text())["cursor"]
        paused = run_scenario_live(get_scenario(V3_FIXTURES[file]), pause_after=cursor)
        written = paused.save(tmp_path / file)
        assert written.read_bytes() == (V3_DIR / file).read_bytes()

    @pytest.mark.parametrize("file", sorted(V3_FIXTURES))
    def test_resumes_to_the_uninterrupted_report(self, file):
        report = resume_scenario(Checkpoint.load(V3_DIR / file))
        assert report.to_json() == batch_json(V3_FIXTURES[file])

    @pytest.mark.parametrize("engine", ["wave", "step", "macro", "wavee"])
    @pytest.mark.parametrize("file", sorted(V3_FIXTURES))
    def test_an_engine_key_is_ignored(self, file, engine, tmp_path):
        fixture = (V3_DIR / file).read_text(encoding="utf-8")
        older = fixture.replace(
            '\n  "kind": ', f'\n  "engine": "{engine}",\n  "kind": ', 1
        )
        assert older.count('"engine"') == 1
        path = tmp_path / file
        path.write_text(older, encoding="utf-8")
        loaded = Checkpoint.load(path)
        assert loaded.save(tmp_path / "again.json").read_text(
            encoding="utf-8"
        ) == fixture
        report = resume_scenario(Checkpoint.load(V3_DIR / file))
        assert resume_scenario(loaded).to_json() == report.to_json()


class TestVersion3:
    @pytest.mark.parametrize("name", ["chat-chipfail", "edge-kiosk-overload"])
    def test_length_does_not_depend_on_the_cursor(self, name):
        spec = get_scenario(name)
        cursors = (1, 40, spec.n_requests - 1)
        lengths = {
            len(run_scenario_live(spec, pause_after=cursor).to_json())
            - len(str(cursor))
            for cursor in cursors
        }
        assert len(lengths) == 1

    def test_controller_object_holds_only_pins(self):
        checkpoint = run_scenario_live(get_scenario("trace-spike"), pause_after=40)
        assert set(checkpoint.to_dict()["controller"]) == {
            "schedule",
            "n_chips",
            "policy",
        }

    def test_unknown_pin_is_rejected(self):
        data = run_scenario_live(get_scenario("trace-spike"), pause_after=40).to_dict()
        data["controller"]["ledger"] = {}
        with pytest.raises(CheckpointError, match=r"controller\.ledger: unknown key"):
            Checkpoint.from_dict(data)


def _trace():
    return build_trace(
        PoissonArrivals(5.0, seed=3).generate(40), RequestSampler(seed=3).sample(40)
    )


def _static(n_chips=2, policy="least_loaded"):
    return FleetSimulator(get_mllm("sphinx-tiny"), n_chips=n_chips, policy=policy)


def _autoscaled():
    return FleetSimulator(
        get_mllm("sphinx-tiny"),
        autoscaler=AutoscalerConfig(target_p99_ttft_s=1.0, max_chips=2),
    )


_OUTAGE = FaultSchedule(events=(FaultEvent(time_s=1.0, kind="chip_down", chip_id=0),))


class TestGuardsRunBeforeReplay:
    @pytest.mark.parametrize(
        "fleet, faults, cursor, match",
        [
            (lambda: _static(policy="round_robin"), None, 20, "'policy'"),
            (_static, _OUTAGE, 20, "'schedule'"),
            (lambda: _static(n_chips=3), None, 20, "'n_chips'"),
            (_autoscaled, None, 20, "'kind'"),
            (_static, None, -1, "'cursor'"),
            (_static, None, 41, "'cursor'"),
        ],
        ids=["policy", "schedule", "n_chips", "kind", "negative", "past-trace"],
    )
    def test_no_arrival_is_replayed(self, monkeypatch, fleet, faults, cursor, match):
        trace = _trace()
        paused = run_live(_static(), trace, pause_after=20)
        data = paused.to_dict()
        data["cursor"] = cursor
        replayed = []
        for cls in (StaticController, AutoscaleController):
            monkeypatch.setattr(
                cls, "on_arrival", lambda self, *args: replayed.append(args)
            )
        with pytest.raises(CheckpointError, match=match):
            run_live(
                fleet(),
                trace,
                checkpoint=Checkpoint.from_dict(data),
                faults=faults,
            )
        assert replayed == []

    def test_resume_replays_exactly_the_cursor(self, monkeypatch):
        trace = _trace()
        fleet = _static()
        paused = run_live(fleet, trace, pause_after=20)
        calls = []
        original = StaticController.on_arrival

        def counting(self, index, request):
            calls.append(index)
            return original(self, index, request)

        monkeypatch.setattr(StaticController, "on_arrival", counting)
        resumed = run_live(fleet, trace, checkpoint=paused)
        # The replayed prefix, then the live tail: each arrival once.
        assert calls == sorted_order(trace)
        monkeypatch.undo()
        assert resumed.result == fleet.run(trace)
