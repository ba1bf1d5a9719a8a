"""PlanReport serialization, identity hashing and the CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.planner import (
    GOLDEN_PLAN_SCENARIOS,
    ChipDesign,
    PlannerConfig,
    PlanReport,
    format_plan_report,
    plan_hash,
    plan_scenario,
)
from repro.planner.__main__ import main
from repro.scenarios import available_scenarios, get_scenario

SMALL_CONFIG = PlannerConfig(
    chip_grid=(ChipDesign(1, 1, 1), ChipDesign(1, 2, 2)),
    min_chips=1,
    max_chips=2,
)


@pytest.fixture(scope="module")
def report():
    return plan_scenario(get_scenario("chat-poisson"), SMALL_CONFIG)


def test_plan_report_json_round_trips_byte_identically(report):
    text = report.to_json()
    assert PlanReport.from_json(text).to_json() == text


def test_round_trip_preserves_every_field(report):
    rebuilt = PlanReport.from_json(report.to_json())
    assert rebuilt == report


def test_canonical_json_is_key_sorted_with_trailing_newline(report):
    text = report.to_json()
    assert text.endswith("\n")
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


def test_plan_hash_moves_with_every_identity_input(report):
    spec = get_scenario("chat-poisson")
    base = plan_hash(spec.spec_hash(), SMALL_CONFIG, dict(report.slo_targets))
    assert report.plan_hash == base
    other_config = PlannerConfig(
        chip_grid=SMALL_CONFIG.chip_grid, min_chips=1, max_chips=3
    )
    assert plan_hash(spec.spec_hash(), other_config, dict(report.slo_targets)) != base
    assert plan_hash(spec.spec_hash(), SMALL_CONFIG, {"ttft_p99_s": 9.0}) != base
    assert plan_hash("0" * 64, SMALL_CONFIG, dict(report.slo_targets)) != base


def test_planner_config_round_trips(report):
    config = report.planner
    assert PlannerConfig.from_dict(json.loads(config.canonical_json())) == config


def test_format_plan_report_mentions_the_headline_facts(report):
    text = format_plan_report(report)
    assert report.scenario in text
    assert "Pareto frontier" in text
    if report.best is not None:
        assert report.best.design.name in text


def test_golden_plan_scenarios_are_registered():
    assert set(GOLDEN_PLAN_SCENARIOS) <= set(available_scenarios())


def test_cli_plan_emits_canonical_json(capsys):
    exit_code = main(
        ["plan", "chat-poisson", "--max-chips", "1", "--static-only", "--json"]
    )
    out = capsys.readouterr().out
    parsed = PlanReport.from_json(out)
    assert parsed.scenario == "chat-poisson"
    assert exit_code == (0 if parsed.feasible else 1)
    assert parsed.to_json() == out


def test_cli_plan_rejects_a_job_count_below_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["plan", "chat-poisson", "--jobs", "-3", "--json"])
    assert excinfo.value.code == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["chat-poisson", "--policies", "bogus"], "policy must be one of"),
        (["chat-poisson", "--min-chips", "0"], "min_chips must be >= 1"),
        (["chat-poisson", "--keep-fractions", "1.5"], "keep_fraction must be in"),
        (["chat-poisson", "--slo-p99-ttft", "-1"], "ttft_p99_s must be positive"),
        (["bogus"], "unknown scenario 'bogus'"),
    ],
)
def test_cli_plan_rejects_a_bad_value_as_usage(argv, message, capsys):
    # Exit 1 means "no feasible plan"; a bad value is a usage error.
    with pytest.raises(SystemExit) as excinfo:
        main(["plan", *argv, "--json"])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_plan_human_rendering(capsys):
    main(["plan", "chat-poisson", "--max-chips", "1", "--static-only",
          "--slo-p99-ttft", "30.0", "--slo-p95-latency", "30.0"])
    out = capsys.readouterr().out
    assert "Capacity plan: chat-poisson" in out
    assert "best plan" in out


def test_cli_write_golden_round_trips(tmp_path, capsys):
    assert main(["write-golden", "--dir", str(tmp_path), "chat-poisson"]) == 0
    written = (tmp_path / "chat-poisson.json").read_text(encoding="utf-8")
    assert PlanReport.from_json(written).to_json() == written
