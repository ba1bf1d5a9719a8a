"""Golden candidate outcomes: every planner candidate's exact simulation.

Plan reports keep only the Pareto frontier and the best plan, so an
autoscaled candidate that lands on neither is covered by no plan golden.
This suite pins :func:`~repro.planner.evaluate.evaluate_candidate` for
every (design, option) pair of the default :class:`PlannerConfig`, with
the autoscaled option included and the spec's own SLO targets, on three
scenarios that stress the fleet each candidate is built from:

* ``mixed-rush-hour`` — an autoscaler block with queue admission, whose
  tuning the autoscaled candidates inherit;
* ``edge-kiosk-overload`` — an autoscaler block with ``reject``
  admission, which the candidates override to ``queue``;
* ``tenant-tiers`` — per-tenant priorities.

Each committed file under ``tests/golden/planner/candidates/`` must be
reproduced byte for byte.  Regenerate deliberately with::

    PYTHONPATH=src python tests/planner/test_candidate_goldens.py

and commit the diff with the change that caused it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

import pytest

from repro.planner import PlannerConfig
from repro.planner.evaluate import evaluate_candidate
from repro.scenarios import get_scenario
from repro.scenarios.compile import compile_scenario

GOLDEN_DIR = (
    Path(__file__).resolve().parent.parent / "golden" / "planner" / "candidates"
)

CANDIDATE_GOLDEN_SCENARIOS = (
    "mixed-rush-hour",
    "edge-kiosk-overload",
    "tenant-tiers",
)


def candidate_outcomes(name: str) -> List[dict]:
    """``evaluate_candidate(...).to_dict()`` of every default candidate of ``name``."""
    spec = get_scenario(name)
    trace = compile_scenario(spec).trace
    targets = spec.slo.targets()
    config = PlannerConfig()
    return [
        evaluate_candidate(spec, trace, design, option, targets).to_dict()
        for design in config.chip_grid
        for option in config.fleet_options(with_autoscaled=True)
    ]


def candidate_golden_text(name: str) -> str:
    """The golden file's text: the outcomes as indented, key-sorted JSON."""
    return json.dumps(candidate_outcomes(name), indent=2, sort_keys=True) + "\n"


def test_no_stale_candidate_goldens():
    known = {f"{name}.json" for name in CANDIDATE_GOLDEN_SCENARIOS}
    stale = [path.name for path in GOLDEN_DIR.glob("*.json") if path.name not in known]
    assert not stale, f"candidate goldens without a scenario: {stale}"


@pytest.mark.parametrize("name", CANDIDATE_GOLDEN_SCENARIOS)
def test_golden_covers_autoscaled_candidates(name):
    outcomes = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    config = PlannerConfig()
    autoscaled = [entry for entry in outcomes if entry["option"].get("autoscaled")]
    assert len(outcomes) == len(config.chip_grid) * len(
        config.fleet_options(with_autoscaled=True)
    )
    assert len(autoscaled) == len(config.chip_grid)


@pytest.mark.parametrize("name", CANDIDATE_GOLDEN_SCENARIOS)
def test_candidate_outcomes_are_byte_identical_to_golden(name):
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert candidate_golden_text(name) == golden


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for scenario in sys.argv[1:] or CANDIDATE_GOLDEN_SCENARIOS:
        path = GOLDEN_DIR / f"{scenario}.json"
        path.write_text(candidate_golden_text(scenario), encoding="utf-8")
        print(f"wrote {path}")
