"""Golden-plan regression suite: canonical JSON, byte for byte.

Every scenario in :data:`repro.planner.__main__.GOLDEN_PLAN_SCENARIOS` has
a committed reference plan under ``tests/golden/planner/``; planning it
with the default config must reproduce the file *byte* identically — the
bound pass, the exact simulations, the Pareto fold and the hashing are all
deterministic, so any diff is a behaviour change.  Regenerate deliberately
with::

    PYTHONPATH=src python -m repro.planner write-golden

and commit the diff with the change that caused it.  Each committed plan
also decodes through :meth:`PlanReport.from_json` and re-encodes to the
same bytes, and ``python -m repro.planner plan <name> --json`` prints it.
"""

import json
from pathlib import Path

import pytest

from repro.planner import GOLDEN_PLAN_SCENARIOS, PlanReport, plan_scenario
from repro.planner.__main__ import main
from repro.scenarios import get_scenario

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden" / "planner"


def test_every_golden_plan_scenario_has_a_committed_report():
    missing = [
        name
        for name in GOLDEN_PLAN_SCENARIOS
        if not (GOLDEN_DIR / f"{name}.json").exists()
    ]
    assert not missing, (
        f"missing golden plans for {missing}; run "
        "`python -m repro.planner write-golden` and commit the files"
    )


def test_no_stale_golden_plans():
    known = {f"{name}.json" for name in GOLDEN_PLAN_SCENARIOS}
    stale = [
        path.name for path in GOLDEN_DIR.glob("*.json") if path.name not in known
    ]
    assert not stale, f"golden plans without a planned scenario: {stale}"


def test_at_least_one_golden_plan_exercises_analytic_pruning():
    """The regression net must cover the pruning path, not just simulation."""
    pruned = 0
    for name in GOLDEN_PLAN_SCENARIOS:
        report = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
        pruned += report["n_pruned_designs"]
    assert pruned >= 1


@pytest.mark.parametrize("name", GOLDEN_PLAN_SCENARIOS)
def test_plan_report_is_byte_identical_to_golden(name):
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert plan_scenario(get_scenario(name)).to_json() == golden


@pytest.mark.parametrize("name", GOLDEN_PLAN_SCENARIOS)
def test_golden_plan_round_trips_through_the_codec(name):
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert PlanReport.from_json(golden).to_json() == golden


@pytest.mark.parametrize("name", GOLDEN_PLAN_SCENARIOS)
def test_cli_plan_json_is_byte_identical_to_golden(name, capsys):
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert main(["plan", name, "--json"]) == 0
    assert capsys.readouterr().out == golden
