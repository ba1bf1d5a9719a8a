"""One live entry per layer.

A resume is a run given a checkpoint, at both layers: the runtime's
one entry is ``run_live(fleet, trace, *, checkpoint=None, ...)``, and
the scenario layer's live entries, ``run_scenario_live`` and
``resume_scenario``, sit beside ``run_scenario`` in
``repro.scenarios.runner``.  The serving package reads the scenario
layer in one place only: checkpoint validation of an embedded spec.
"""

import ast
import inspect
from pathlib import Path

import repro
import repro.scenarios
import repro.serving
import repro.serving.runtime
from repro.scenarios import get_scenario, runner
from repro.serving.runtime import service

SRC = Path(repro.__file__).resolve().parent.parent
SERVING = Path(repro.serving.__file__).resolve().parent


def _imported_modules(path: Path) -> set:
    """Every absolute module name ``path`` imports, relative ones resolved."""
    package = path.relative_to(SRC).with_suffix("").parts[:-1]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join((*base, *(node.module or "").split("."))).rstrip(".")
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_the_second_doors_are_gone():
    for name in ("resume_live", "_drive", "_play_scenario"):
        assert not hasattr(service, name), name
    for package in (repro.serving, repro.serving.runtime):
        assert "resume_live" not in package.__all__
        assert not hasattr(package, "resume_live")


def test_run_live_takes_the_checkpoint_by_keyword():
    parameter = inspect.signature(service.run_live).parameters["checkpoint"]
    assert parameter.kind is inspect.Parameter.KEYWORD_ONLY
    assert parameter.default is None
    assert repro.serving.run_live is repro.serving.runtime.run_live is service.run_live


def test_the_scenario_layer_owns_its_live_entries():
    for name in ("run_scenario_live", "resume_scenario"):
        assert name in repro.scenarios.__all__, name
        assert getattr(repro.scenarios, name) is getattr(runner, name)
        assert name not in repro.serving.runtime.__all__, name
        assert not hasattr(repro.serving.runtime, name), name
        assert not hasattr(service, name), name
    parameter = inspect.signature(runner.run_scenario_live).parameters["checkpoint"]
    assert parameter.kind is inspect.Parameter.KEYWORD_ONLY
    assert parameter.default is None


def test_run_scenario_live_plays_through_the_runner_entry(monkeypatch):
    # No lazy import bypasses the module's own run_scenario_live.
    calls = []
    monkeypatch.setattr(
        runner, "run_scenario_live", lambda spec: calls.append(spec) or "live"
    )
    spec = get_scenario("chat-poisson")
    assert runner.run_scenario(spec, runtime="live") == "live"
    assert calls == [spec]


def test_serving_imports_the_scenario_layer_only_to_check_a_spec():
    importers = {
        path.relative_to(SERVING).as_posix()
        for path in SERVING.rglob("*.py")
        if any(
            name == "repro.scenarios" or name.startswith("repro.scenarios.")
            for name in _imported_modules(path)
        )
    }
    assert importers == {"runtime/checkpoint.py"}
