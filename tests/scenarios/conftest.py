"""Shared fixtures of the scenario suites."""

from __future__ import annotations

import pytest

from repro.scenarios.compile import compile_scenario
from repro.scenarios.runner import build_fleet, scenario_report, scenario_run_kwargs


@pytest.fixture(scope="session")
def report_on():
    """Play a scenario spec on one decode engine, as ``run_scenario`` plays it.

    ``run_scenario`` always runs the wave engine: the engine is chosen
    where the fleet is built, so a spec's report on the step oracle is
    ``build_fleet(spec, engine="step")``'s run folded by
    ``scenario_report``.
    """

    def play(spec, engine):
        compiled = compile_scenario(spec)
        fleet = build_fleet(spec, engine=engine)
        result = fleet.run(
            list(compiled.trace), **scenario_run_kwargs(compiled, fleet)
        )
        return scenario_report(spec, compiled, result)

    return play
