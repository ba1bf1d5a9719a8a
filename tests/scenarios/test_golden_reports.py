"""Golden-report regression suite: canonical JSON, byte for byte.

Every registered scenario has a committed reference report under
``tests/golden/``; running the scenario must reproduce it *byte*
identically — the serving engine, the autoscaler, the batch-priced cost
summary and the spec-hash seed derivation are all deterministic, so any
diff is a behaviour change.  ``run_scenario`` runs the wave engine, and
a fleet built on the per-step oracle (``build_fleet(spec,
engine="step")``) must reproduce the same bytes.  Regenerate deliberately with::

    PYTHONPATH=src python -m repro.scenarios write-golden

and commit the diff with the change that caused it (the same discipline
as the fig11 byte-identity check of the batch engine).
"""

from pathlib import Path

import pytest

from repro.scenarios import available_scenarios, get_scenario, run_scenario
from repro.scenarios.report import ScenarioReport

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


def test_every_registered_scenario_has_a_golden_report():
    missing = [
        name
        for name in available_scenarios()
        if not (GOLDEN_DIR / f"{name}.json").exists()
    ]
    assert not missing, (
        f"missing golden reports for {missing}; run "
        "`python -m repro.scenarios write-golden` and commit the files"
    )


def test_no_stale_golden_reports():
    known = {f"{name}.json" for name in available_scenarios()}
    stale = [
        path.name for path in GOLDEN_DIR.glob("*.json") if path.name not in known
    ]
    assert not stale, f"golden reports without a registered scenario: {stale}"


def test_catalogue_is_large_enough_for_the_regression_net():
    assert len(available_scenarios()) >= 6


@pytest.mark.parametrize("name", available_scenarios())
def test_scenario_report_is_byte_identical_to_golden(name):
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert run_scenario(get_scenario(name)).to_json() == golden


@pytest.mark.parametrize("name", available_scenarios())
def test_step_oracle_reproduces_the_golden_report(name, report_on):
    # run_scenario plays the wave engine; the per-step oracle must land
    # on the same bytes when the fleet is built on it.
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert report_on(get_scenario(name), "step").to_json() == golden


@pytest.mark.parametrize("name", available_scenarios())
def test_golden_report_round_trips_through_the_codec(name):
    # Faulted reports included: their impacts inline each event's keys.
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert ScenarioReport.from_json(golden).to_json() == golden
