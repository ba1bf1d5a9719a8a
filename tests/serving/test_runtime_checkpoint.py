"""Checkpoint/restore property suite: pause anywhere, resume exactly.

The hypothesis properties pause a live scenario run at a randomized
arrival boundary, restore — in-process, chained through a second pause,
or in a **fresh subprocess with a different ``PYTHONHASHSEED``** — and
assert the final report is byte-identical to the uninterrupted batch
run's canonical JSON.  The subprocess leg is the strong claim: nothing
in a checkpoint depends on interpreter state, hash randomization or
memo caches; the JSON file alone reconstructs the computation.

Deterministic tests cover the checkpoint format itself (JSON round
trip, version gate) and the guard rails (trace digest mismatch, fault
schedule mismatch, fleet kind mismatch, scenario-less resume).
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.serving.faults import FaultEvent, FaultSchedule
from repro.serving.runtime import (
    Checkpoint,
    CheckpointError,
    run_live,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Each fleet kind with and without faults, all cheap on the wave engine.
POOL = (
    "chat-poisson",  # static
    "edge-kiosk-overload",  # autoscaled
    "chat-chipfail",  # static, faulted
    "tenant-tiers",  # autoscaled, faulted, tenant priorities
)

_BATCH_CACHE = {}


def batch_json(name):
    if name not in _BATCH_CACHE:
        _BATCH_CACHE[name] = run_scenario(get_scenario(name)).to_json()
    return _BATCH_CACHE[name]


def boundary(name, fraction):
    n = get_scenario(name).n_requests
    return max(1, min(n - 1, int(n * fraction)))


class TestScenarioProperties:
    @given(
        name=st.sampled_from(POOL),
        fraction=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=12, deadline=None)
    def test_pause_resume_equals_uninterrupted(self, name, fraction):
        spec = get_scenario(name)
        checkpoint = run_scenario_live(
            spec, pause_after=boundary(name, fraction)
        )
        assert isinstance(checkpoint, Checkpoint)
        # Force the full JSON round trip before resuming.
        reloaded = Checkpoint.from_json(checkpoint.to_json())
        assert reloaded == checkpoint
        report = resume_scenario(reloaded)
        assert report.to_json() == batch_json(name)

    @given(
        name=st.sampled_from(POOL),
        first=st.floats(min_value=0.1, max_value=0.45),
        second=st.floats(min_value=0.55, max_value=0.9),
    )
    @settings(max_examples=6, deadline=None)
    def test_chained_pauses(self, name, first, second):
        spec = get_scenario(name)
        k1 = boundary(name, first)
        k2 = max(k1 + 1, boundary(name, second))
        middle = run_scenario_live(spec, pause_after=k1)
        second_checkpoint = resume_scenario(middle, pause_after=k2)
        assert isinstance(second_checkpoint, Checkpoint)
        assert second_checkpoint.cursor == k2
        report = resume_scenario(second_checkpoint)
        assert report.to_json() == batch_json(name)

    @given(
        name=st.sampled_from(POOL),
        fraction=st.floats(min_value=0.1, max_value=0.9),
        hashseed=st.integers(min_value=1, max_value=4294967295),
    )
    @settings(max_examples=4, deadline=None)
    def test_subprocess_resume_different_hashseed(
        self, name, fraction, hashseed
    ):
        checkpoint = run_scenario_live(
            get_scenario(name), pause_after=boundary(name, fraction)
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "checkpoint.json"
            checkpoint.save(path)
            script = (
                "import sys\n"
                "from repro.scenarios import resume_scenario\n"
                "from repro.serving.runtime import Checkpoint\n"
                f"report = resume_scenario(Checkpoint.load({str(path)!r}))\n"
                "sys.stdout.write(report.to_json())\n"
            )
            env = dict(os.environ)
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            env["PYTHONHASHSEED"] = str(hashseed)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                cwd=REPO_ROOT,
                check=False,
            )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == batch_json(name)


class TestCheckpointFormat:
    def test_scenario_checkpoint_is_self_contained(self):
        spec = get_scenario("chat-poisson")
        checkpoint = run_scenario_live(spec, pause_after=10)
        assert checkpoint.scenario == spec.to_dict()
        assert checkpoint.cursor == 10
        data = json.loads(checkpoint.to_json())
        assert data["version"] == 3
        # A scenario resumes on the wave engine: the file names none.
        assert "engine" not in data
        assert Checkpoint.from_dict(data) == checkpoint

    def test_unsupported_version_rejected(self):
        checkpoint = run_scenario_live(
            get_scenario("chat-poisson"), pause_after=5
        )
        data = checkpoint.to_dict()
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            Checkpoint.from_dict(data)

    def test_pause_at_stream_end_resumes_cleanly(self):
        spec = get_scenario("chat-poisson")
        checkpoint = run_scenario_live(spec, pause_after=spec.n_requests)
        assert checkpoint.cursor == spec.n_requests
        report = resume_scenario(checkpoint)
        assert report.to_json() == batch_json("chat-poisson")


class TestFleetLevelGuards:
    @pytest.fixture(scope="class")
    def model(self):
        return get_mllm("sphinx-tiny")

    def _trace(self, seed, n=30):
        return build_trace(
            PoissonArrivals(6.0, seed=seed).generate(n),
            RequestSampler(seed=seed).sample(n),
        )

    def test_fleet_pause_resume(self, model):
        trace = self._trace(7)
        fleet = FleetSimulator(model, n_chips=2)
        batch = fleet.run(trace)
        checkpoint = run_live(fleet, trace, pause_after=12)
        assert isinstance(checkpoint, Checkpoint)
        assert run_live(fleet, trace, checkpoint=checkpoint).result == batch

    def test_fault_fleet_pause_mid_era(self, model):
        trace = self._trace(9, n=40)
        horizon = max(request.arrival_s for request in trace)
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    time_s=horizon * 0.3, kind="chip_down", chip_id=0
                ),
                FaultEvent(
                    time_s=horizon * 0.7, kind="chip_up", chip_id=0
                ),
            )
        )
        fleet = FleetSimulator(model, n_chips=2, policy="least_loaded")
        batch = fleet.run(trace, faults=schedule)
        for k in (1, 15, 39):
            checkpoint = run_live(
                fleet, trace, faults=schedule, pause_after=k
            )
            resumed = run_live(
                fleet, trace, checkpoint=checkpoint, faults=schedule
            )
            assert resumed.result == batch, f"divergence at boundary {k}"

    def test_digest_mismatch_rejected(self, model):
        trace = self._trace(7)
        fleet = FleetSimulator(model, n_chips=2)
        checkpoint = run_live(fleet, trace, pause_after=5)
        other = self._trace(8)
        with pytest.raises(ValueError, match="different trace"):
            run_live(fleet, other, checkpoint=checkpoint)

    def test_schedule_mismatch_rejected(self, model):
        trace = self._trace(7)
        fleet = FleetSimulator(model, n_chips=2)
        checkpoint = run_live(fleet, trace, pause_after=5)
        outage = FaultSchedule(
            events=(FaultEvent(time_s=1.0, kind="chip_down", chip_id=0),)
        )
        with pytest.raises(CheckpointError, match="'schedule'"):
            run_live(fleet, trace, checkpoint=checkpoint, faults=outage)

    def test_static_checkpoint_rejected_by_an_autoscaled_fleet(self, model):
        trace = self._trace(7)
        checkpoint = run_live(
            FleetSimulator(model, n_chips=2), trace, pause_after=5
        )
        autoscaled = FleetSimulator(
            model, autoscaler=AutoscalerConfig(target_p99_ttft_s=1.0)
        )
        with pytest.raises(CheckpointError, match="controller"):
            run_live(autoscaled, trace, checkpoint=checkpoint)

    def test_scenarioless_checkpoint_needs_run_live(self, model):
        trace = self._trace(7)
        fleet = FleetSimulator(model, n_chips=2)
        checkpoint = run_live(fleet, trace, pause_after=5)
        with pytest.raises(ValueError, match="no scenario spec.*run_live"):
            resume_scenario(checkpoint)
