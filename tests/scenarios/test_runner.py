"""Scenario runner and CLI: end-to-end runs, reports, command surface."""

import json

import pytest

from repro.scenarios import (
    ArrivalSpec,
    AutoscalerSpec,
    FleetSpec,
    ScenarioSpec,
    SLOSpec,
    TEXT_CHAT,
    autoscaler_config,
    build_fleet,
    format_scenario_report,
    get_scenario,
    run_scenario,
)
from repro.scenarios.__main__ import main as cli_main
from repro.serving.fleet import FleetSimulator

FAST = ScenarioSpec(
    name="fast",
    description="tiny scenario for runner tests",
    n_requests=12,
    mix=(TEXT_CHAT,),
    arrival=ArrivalSpec(kind="poisson", rate_rps=5.0),
    fleet=FleetSpec(n_chips=1, max_batch_size=8),
    slo=SLOSpec(ttft_p99_s=5.0),
)


class TestRunScenario:
    def test_report_accounts_every_request(self):
        report = run_scenario(FAST)
        assert report.n_completed == report.n_requests == 12
        assert report.component_counts == {"text_chat": 12}
        assert report.spec_hash == FAST.spec_hash()
        assert report.makespan_s > 0
        assert report.pricing.unique_shapes >= 1
        assert report.pricing.batch1_chip_seconds > 0

    def test_slo_checks_cover_stated_targets_only(self):
        report = run_scenario(FAST)
        assert [check.metric for check in report.slo] == ["ttft_p99_s"]
        assert report.slo[0].attained_s == report.ttft.p99

    def test_repeated_runs_are_bit_identical(self):
        assert run_scenario(FAST).to_json() == run_scenario(FAST).to_json()

    def test_json_round_trips_and_has_sorted_keys(self):
        text = run_scenario(FAST).to_json()
        data = json.loads(text)
        assert text.endswith("\n")
        assert list(data) == sorted(data)
        assert data["slo_met"] in (True, False)


class TestBuildFleet:
    def test_static_spec_builds_static_fleet(self):
        fleet = build_fleet(FAST)
        assert type(fleet) is FleetSimulator
        assert fleet.autoscaler is None
        assert fleet.n_chips == 1

    def test_autoscaled_spec_builds_autoscaling_fleet(self):
        spec = ScenarioSpec(
            name="auto",
            n_requests=5,
            mix=(TEXT_CHAT,),
            fleet=FleetSpec(autoscaler=AutoscalerSpec(min_chips=1, max_chips=3)),
            slo=SLOSpec(ttft_p99_s=1.0),
        )
        fleet = build_fleet(spec)
        assert type(fleet) is FleetSimulator
        assert fleet.autoscaler.target_p99_ttft_s == 1.0
        assert fleet.n_chips == 3  # full max_chips fleet instantiated
        assert fleet.policy == "least_loaded"

    def test_autoscaler_without_ttft_slo_is_rejected(self):
        spec = ScenarioSpec(
            name="auto-bad",
            n_requests=5,
            mix=(TEXT_CHAT,),
            fleet=FleetSpec(autoscaler=AutoscalerSpec()),
        )
        with pytest.raises(ValueError, match="states no"):
            autoscaler_config(spec)


class TestCLI:
    def test_list_names_every_scenario(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mixed-rush-hour" in out and "video-stream" in out

    def test_run_single_scenario_human_readable(self, capsys):
        assert cli_main(["run", "chat-poisson"]) == 0
        out = capsys.readouterr().out
        assert "Scenario: chat-poisson" in out
        assert "SLO" in out

    def test_run_json_is_canonical(self, capsys):
        assert cli_main(["run", "chat-poisson", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == run_scenario(get_scenario("chat-poisson")).to_json()

    def test_run_requires_exactly_one_target(self, capsys):
        assert cli_main(["run"]) == 2
        assert cli_main(["run", "chat-poisson", "--all"]) == 2

    def test_write_golden_round_trips(self, tmp_path, capsys):
        assert cli_main(
            ["write-golden", "--dir", str(tmp_path), "chat-poisson"]
        ) == 0
        written = tmp_path / "chat-poisson.json"
        assert written.read_text(encoding="utf-8") == run_scenario(
            get_scenario("chat-poisson")
        ).to_json()

    def test_format_report_mentions_rejections_only_when_autoscaled(self):
        text = format_scenario_report(run_scenario(FAST))
        assert "autoscaler" not in text
