"""Scenario-layer chaos plumbing: specs, compilation, reports, CLI.

The runtime suites prove chaos cannot change a result; this file pins
how chaos enters and leaves the scenario layer: ``ChaosSpec``
validation and serialization, the backward-compatible spec hash (a
chaos-free spec serializes — and hashes — exactly as before the field
existed), deterministic schedule compilation with the CLI seed
override, the conditional ``incidents`` report block, and the
``--chaos-seed``/``--max-retries`` command-line hooks.
"""

import json
from dataclasses import replace

import pytest

from repro.scenarios import run_scenario_live
from repro.scenarios.__main__ import main
from repro.scenarios.compile import compile_chaos_schedule, compile_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.report import IncidentSummary, format_scenario_report
from repro.scenarios.runner import scenario_report
from repro.scenarios.spec import ChaosSpec, ScenarioSpec
from repro.serving.runtime.supervision import ActorIncident, SupervisionConfig

FAST = SupervisionConfig(
    job_deadline_s=0.5,
    stall_deadline_s=0.15,
    tick_s=0.01,
    backoff_base_s=0.005,
    backoff_cap_s=0.05,
    checkpoint_every=4,
    seed=7,
)


class TestChaosSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match=">= 0"):
            ChaosSpec(n_crashes=-1)
        with pytest.raises(ValueError, match="at least one fault"):
            ChaosSpec(n_crashes=0)
        with pytest.raises(ValueError, match="hang_shards"):
            ChaosSpec(hang_shards=0)
        with pytest.raises(ValueError, match="delay_s"):
            ChaosSpec(delay_s=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            ChaosSpec(max_retries=-1)

    def test_round_trip(self):
        plan = ChaosSpec(
            n_crashes=2, n_hangs=1, n_drops=1, n_supervisor_crashes=1
        )
        assert ChaosSpec.from_dict(plan.to_dict()) == plan

    def test_spec_round_trip_with_chaos(self):
        spec = replace(get_scenario("chat-poisson"), chaos=ChaosSpec())
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestHashStability:
    def test_chaos_free_spec_serializes_as_before(self):
        # The chaos field must be invisible when unset, so every
        # existing spec hash — and every golden report — is unchanged.
        spec = get_scenario("chat-poisson")
        assert spec.chaos is None
        assert "chaos" not in spec.to_dict()

    def test_chaos_block_changes_the_hash(self):
        spec = get_scenario("chat-poisson")
        chaotic = replace(spec, chaos=ChaosSpec())
        assert chaotic.spec_hash() != spec.spec_hash()
        assert (
            replace(chaotic, chaos=None).spec_hash() == spec.spec_hash()
        )


class TestCompilation:
    def test_no_plan_means_empty_schedule(self):
        spec = get_scenario("chat-poisson")
        assert not compile_chaos_schedule(spec)
        assert compile_scenario(spec).chaos is None

    def test_deterministic_from_spec_hash(self):
        spec = replace(
            get_scenario("chat-poisson"),
            chaos=ChaosSpec(n_crashes=2, n_drops=1),
        )
        assert compile_chaos_schedule(spec) == compile_chaos_schedule(spec)
        assert compile_scenario(spec).chaos == compile_chaos_schedule(spec)

    def test_seed_override(self):
        spec = replace(
            get_scenario("chat-poisson"),
            chaos=ChaosSpec(n_crashes=2, n_drops=1),
        )
        derived = compile_chaos_schedule(spec)
        assert compile_chaos_schedule(spec, seed=12345) != derived
        assert compile_chaos_schedule(
            spec, seed=spec.derive_seed("chaos")
        ) == derived


def _incident(session, kind, **kwargs):
    return ActorIncident(
        session=session, actor="chip-0", kind=kind, detail="x", **kwargs
    )


class TestIncidentSummary:
    def test_from_incidents(self):
        summary = IncidentSummary.from_incidents(
            [
                _incident(1, "crash"),
                _incident(1, "retry", job_id=0, attempt=1),
                _incident(2, "crash"),
            ]
        )
        assert summary.n_sessions == 2
        assert summary.counts == {"crash": 2, "retry": 1}
        data = summary.to_dict()
        assert data["n_sessions"] == 2
        assert len(data["timeline"]) == 3

    def test_report_block_is_conditional(self):
        from repro.scenarios.runner import build_fleet, scenario_run_kwargs

        spec = get_scenario("chat-poisson")
        compiled = compile_scenario(spec)
        fleet = build_fleet(spec)
        result = fleet.run(
            list(compiled.trace), **scenario_run_kwargs(compiled, fleet)
        )
        plain = scenario_report(spec, compiled, result)
        assert plain.incidents is None
        assert "incidents" not in plain.to_dict()
        # An empty timeline attaches nothing: undisturbed supervised
        # runs emit the exact batch bytes.
        empty = scenario_report(spec, compiled, result, incidents=[])
        assert empty.to_json() == plain.to_json()
        attached = scenario_report(
            spec, compiled, result, incidents=[_incident(1, "crash")]
        )
        assert attached.incidents is not None
        assert "incidents" in attached.to_dict()
        assert attached.without_incidents().to_json() == plain.to_json()

    def test_format_line(self):
        spec = replace(
            get_scenario("chat-poisson"),
            chaos=ChaosSpec(n_crashes=1, n_supervisor_crashes=1),
        )
        report = run_scenario_live(
            spec, supervision=FAST, hang_unit_s=0.01
        )
        assert report.incidents is not None
        text = format_scenario_report(report)
        assert "incidents" in text
        assert "supervisor session(s)" in text


class TestCLI:
    def test_chaos_seed_flag(self, capsys):
        assert (
            main(["run", "chat-poisson", "--json", "--chaos-seed", "3"]) == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["name"] == "chat-poisson"
        # The default plan's single chip crash always fires on the
        # 1-chip fleet, so the incidents block must be present.
        assert "incidents" in report
        assert report["incidents"]["counts"].get("crash", 0) >= 1

    def test_max_retries_flag(self, capsys):
        assert (
            main(
                [
                    "run",
                    "chat-poisson",
                    "--json",
                    "--chaos-seed",
                    "3",
                    "--max-retries",
                    "5",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["name"] == "chat-poisson"

    def test_plain_run_is_unaffected(self, capsys):
        assert main(["run", "chat-poisson", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "incidents" not in report
