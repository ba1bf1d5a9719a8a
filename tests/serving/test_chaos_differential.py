"""Chaos differential: supervised runs under fault injection ≡ batch.

The headline invariant of the supervision layer: for any chaos
schedule — crashed actors, hung actors, dropped and delayed messages,
even supervisor crashes recovered from the auto-checkpoint ring — the
final report is byte-identical to the undisturbed batch run, modulo
the conditional ``incidents`` block (whose content is timing-dependent
by nature; ``without_incidents()`` is the comparison surface).

Four legs: a pinned spec-derived schedule across **every** registered
scenario (on the wave engine: supervision never reads the decode
engine); a hypothesis leg drawing random schedules
on a per-controller-kind pool; a pause/resume leg whose chaos fires
after the resume; and a subprocess leg proving a supervisor crash
restored from a serialized ring checkpoint under a *different*
``PYTHONHASHSEED`` still lands on the same bytes.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import resume_scenario, run_scenario_live
from repro.scenarios.registry import available_scenarios, get_scenario
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ChaosSpec
from repro.serving.runtime.chaos import generate_chaos_schedule
from repro.serving.runtime import Checkpoint
from repro.serving.runtime.supervision import SupervisionConfig

REPO_ROOT = Path(__file__).resolve().parents[2]

SCENARIOS = available_scenarios()

#: One scenario per controller kind for the heavy and randomized legs.
POOL = (
    "chat-poisson",  # static
    "edge-kiosk-overload",  # autoscale
    "chat-chipfail",  # fault_fleet
    "tenant-tiers",  # fault_autoscale
)

#: Cheap pinned plan: two crash recoveries, no deadline waits.
LIGHT = ChaosSpec(n_crashes=1, n_supervisor_crashes=1)

#: Every fault family at once (drops cost one job-deadline wait each).
HEAVY = ChaosSpec(
    n_crashes=2, n_hangs=1, n_drops=2, n_delays=1, n_supervisor_crashes=1
)

#: Millisecond-scale supervision so recovery runs in test time.
FAST = SupervisionConfig(
    job_deadline_s=0.5,
    stall_deadline_s=0.15,
    tick_s=0.01,
    backoff_base_s=0.005,
    backoff_cap_s=0.05,
    checkpoint_every=4,
    seed=7,
)

_BATCH_CACHE = {}


def batch_json(spec):
    key = spec.spec_hash()
    if key not in _BATCH_CACHE:
        _BATCH_CACHE[key] = run_scenario(spec).to_json()
    return _BATCH_CACHE[key]


def supervised(spec, chaos=None):
    return run_scenario_live(
        spec, chaos=chaos, supervision=FAST, hang_unit_s=0.01
    )


class TestPinnedScheduleMatrix:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_every_scenario(self, name):
        spec = replace(get_scenario(name), chaos=LIGHT)
        report = supervised(spec)
        assert report.incidents is not None  # the schedule actually fired
        assert report.without_incidents().to_json() == batch_json(spec)

    @pytest.mark.parametrize("name", POOL)
    def test_heavy_schedule(self, name):
        spec = replace(get_scenario(name), chaos=HEAVY)
        report = supervised(spec)
        assert report.incidents is not None
        assert report.without_incidents().to_json() == batch_json(spec)

    def test_undisturbed_supervised_is_the_batch_report(self):
        # No chaos block, no injector: the supervised path must emit
        # the *exact* batch bytes — incidents block and all (absent).
        spec = get_scenario("chat-poisson")
        report = supervised(spec)
        assert report.incidents is None
        assert report.to_json() == batch_json(spec)


class TestRandomSchedules:
    @given(
        name=st.sampled_from(POOL),
        seed=st.integers(min_value=0, max_value=2**20),
        n_crashes=st.integers(min_value=0, max_value=2),
        n_hangs=st.integers(min_value=0, max_value=1),
        n_supervisor_crashes=st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=6, deadline=None)
    def test_any_schedule_lands_on_batch_bytes(
        self, name, seed, n_crashes, n_hangs, n_supervisor_crashes
    ):
        spec = get_scenario(name)
        n_chips = (
            spec.fleet.autoscaler.max_chips
            if spec.fleet.autoscaler is not None
            else spec.fleet.n_chips
        )
        chaos = generate_chaos_schedule(
            seed,
            n_chips=n_chips,
            n_batches=1,
            n_crashes=n_crashes,
            n_hangs=n_hangs,
            n_supervisor_crashes=n_supervisor_crashes,
            hang_shards=5,
        )
        report = supervised(spec, chaos=chaos)
        assert report.without_incidents().to_json() == batch_json(spec)


class TestPauseResume:
    def test_paused_chaotic_run_resumes_to_batch_bytes(self):
        # The chip crash can only fire once closing shards run, i.e.
        # after the resume; the checkpoint carries no incident timeline.
        spec = replace(
            get_scenario("chat-poisson"), chaos=ChaosSpec(n_crashes=1)
        )
        checkpoint = run_scenario_live(
            spec, pause_after=10, supervision=FAST, hang_unit_s=0.01
        )
        assert isinstance(checkpoint, Checkpoint)
        assert checkpoint.cursor == 10
        report = resume_scenario(Checkpoint.from_json(checkpoint.to_json()))
        assert report.incidents is not None
        assert report.without_incidents().to_json() == batch_json(spec)


class TestSubprocessRingRestore:
    @pytest.mark.parametrize("hashseed", ["1", "271828"])
    def test_supervisor_crash_recovers_identically(self, hashseed):
        # The crash-then-restore leg: the child process runs a chaotic
        # supervised scenario whose supervisor crashes mid-run, rebuilds
        # from the serialized ring checkpoint, and must print the batch
        # bytes — under a different hash seed than this process.
        spec = replace(get_scenario("chat-poisson"), chaos=LIGHT)
        script = (
            "import sys\n"
            "from dataclasses import replace\n"
            "from repro.scenarios import run_scenario_live\n"
            "from repro.scenarios.registry import get_scenario\n"
            "from repro.scenarios.spec import ChaosSpec\n"
            "from repro.serving.runtime.supervision import SupervisionConfig\n"
            "spec = replace(get_scenario('chat-poisson'),\n"
            "               chaos=ChaosSpec(n_crashes=1, n_supervisor_crashes=1))\n"
            "config = SupervisionConfig(job_deadline_s=0.5, stall_deadline_s=0.15,\n"
            "                           tick_s=0.01, backoff_base_s=0.005,\n"
            "                           backoff_cap_s=0.05, checkpoint_every=4,\n"
            "                           seed=7)\n"
            "report = run_scenario_live(spec, supervision=config,\n"
            "                           hang_unit_s=0.01)\n"
            "kinds = {i['kind'] for i in report.incidents.to_dict()['timeline']}\n"
            "assert 'supervisor_restart' in kinds, kinds\n"
            "sys.stdout.write(report.without_incidents().to_json())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONHASHSEED"] = hashseed
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == batch_json(spec)
