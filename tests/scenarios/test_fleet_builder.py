"""One autoscaler type and one fleet builder.

:class:`~repro.serving.autoscale.AutoscalerSpec` is both a scenario's
``fleet.autoscaler`` block and the fleet's controller config, and
:func:`~repro.scenarios.runner.build_fleet` is the one place a
:class:`~repro.scenarios.spec.FleetSpec` becomes a
:class:`~repro.serving.fleet.FleetSimulator`: scenario runs, the live
plane and the planner's candidates all build there.
"""

import ast
import inspect
from dataclasses import fields, replace
from pathlib import Path

import pytest

import repro.planner
import repro.scenarios
import repro.serving
from repro.planner import evaluate, space
from repro.planner.space import ChipDesign, FleetOption
from repro.scenarios import get_scenario, runner, spec
from repro.scenarios.compile import compile_scenario
from repro.serving import autoscale
from repro.serving.autoscale import AutoscalerSpec

SRC = Path(repro.scenarios.__file__).resolve().parent.parent


class _FleetCalls(ast.NodeVisitor):
    """Collects the enclosing function of every ``FleetSimulator(...)`` call."""

    def __init__(self) -> None:
        self.scope = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "FleetSimulator":
            self.found.append(self.scope[-1])
        self.generic_visit(node)


def test_one_fleet_simulator_call_above_serving_inside_build_fleet():
    calls = []
    for package in ("scenarios", "planner"):
        for path in sorted((SRC / package).rglob("*.py")):
            visitor = _FleetCalls()
            visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
            calls += [
                (path.relative_to(SRC).as_posix(), scope) for scope in visitor.found
            ]
    assert calls == [("scenarios/runner.py", "build_fleet")]


def test_the_second_type_and_builder_are_gone():
    for module, name in (
        (autoscale, "AutoscalerConfig"),
        (autoscale, "check_tuning"),
        (repro.serving, "AutoscalerConfig"),
        (runner, "autoscaler_config"),
        (repro.scenarios, "autoscaler_config"),
        (evaluate, "candidate_fleet"),
        (repro.planner, "candidate_fleet"),
        (space, "default_chip_grid"),
        (repro.planner, "default_chip_grid"),
    ):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert "AutoscalerSpec" in repro.serving.__all__
    assert spec.AutoscalerSpec is repro.scenarios.AutoscalerSpec is AutoscalerSpec
    assert AutoscalerSpec.__module__ == "repro.serving.autoscale"


def test_the_autoscaler_has_ten_settable_values():
    assert len(fields(AutoscalerSpec)) == 10


def test_build_fleet_takes_only_the_engine_and_the_simulator():
    parameters = inspect.signature(runner.build_fleet).parameters
    assert list(parameters) == ["spec", "engine", "simulator"]


class TestFleetOptionFleetSpec:
    BASE = get_scenario("edge-kiosk-overload").fleet

    def test_static_option_takes_its_chips_and_policy(self):
        option = FleetOption(n_chips=3, policy="round_robin")
        assert option.fleet_spec(self.BASE) == replace(
            self.BASE, n_chips=3, policy="round_robin", autoscaler=None
        )

    def test_autoscaled_option_keeps_the_tuning_with_its_bounds(self):
        option = FleetOption(n_chips=4, autoscaled=True, min_chips=2)
        tuning = option.fleet_spec(self.BASE).autoscaler
        assert self.BASE.autoscaler.admission == "reject"
        assert tuning == replace(
            self.BASE.autoscaler, min_chips=2, max_chips=4, admission="queue"
        )

    def test_autoscaled_option_without_tuning_takes_the_defaults(self):
        option = FleetOption(n_chips=3, autoscaled=True)
        base = replace(self.BASE, autoscaler=None)
        assert option.fleet_spec(base).autoscaler == AutoscalerSpec(
            min_chips=1, max_chips=3
        )


def test_candidates_build_through_build_fleet(monkeypatch):
    built = []

    def recording(candidate, **kwargs):
        built.append(candidate)
        return runner.build_fleet(candidate, **kwargs)

    monkeypatch.setattr(evaluate, "build_fleet", recording)
    chipfail = get_scenario("chat-chipfail")
    scenario = replace(chipfail, faults=replace(chipfail.faults, outage_s=None))
    trace = compile_scenario(scenario).trace[:20]
    option = FleetOption(n_chips=1)
    design = ChipDesign(n_groups=2, cc_per_group=1, mc_per_group=1)
    # A permanent chip failure would refuse a 1-chip fleet; a candidate
    # plans the fault-free run, so it drops the fault plan.
    with pytest.raises(ValueError, match="at least one chip alive"):
        replace(scenario, fleet=option.fleet_spec(scenario.fleet))
    evaluate.evaluate_candidate(scenario, trace, design, option, {"ttft_p99_s": 2.0})
    (candidate,) = built
    assert candidate.faults is None
    assert candidate.fleet.n_chips == 1
    assert candidate.slo.targets() == {"ttft_p99_s": 2.0}
