"""Scenario compilation: determinism, mix accounting, arrival wiring."""

import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.scenarios import (
    ArrivalSpec,
    ScenarioSpec,
    WorkloadComponent,
    available_scenarios,
    build_arrival_process,
    compile_scenario,
    get_scenario,
)
from repro.scenarios.compile import component_sampler
from repro.serving import build_trace
from repro.serving.arrival import (
    BurstyArrivals,
    PoissonArrivals,
    RequestSampler,
    TraceArrivals,
)

MIX = (
    WorkloadComponent(name="chat", weight=3.0, images=0),
    WorkloadComponent(name="vision", weight=1.0, images=2),
)
SPEC = ScenarioSpec(
    name="compile-test",
    n_requests=200,
    mix=MIX,
    arrival=ArrivalSpec(kind="poisson", rate_rps=5.0),
)


class TestDeterminism:
    def test_identical_specs_compile_identical_traces(self):
        first = compile_scenario(SPEC)
        second = compile_scenario(ScenarioSpec.from_json(SPEC.to_json()))
        assert first.trace == second.trace
        assert first.components == second.components

    def test_different_salt_changes_the_trace(self):
        salted = compile_scenario(replace(SPEC, seed_salt=1))
        assert salted.trace != compile_scenario(SPEC).trace

    def test_component_rename_changes_only_that_stream(self):
        # Renaming a component re-derives its seed; the arrival stream's
        # seed also moves because the spec hash moves — both stay
        # deterministic functions of the spec content.
        renamed = replace(
            SPEC, mix=(replace(MIX[0], name="chat2"), MIX[1])
        )
        compiled = compile_scenario(renamed)
        assert len(compiled.trace) == SPEC.n_requests


class TestTraceShape:
    def test_arrivals_are_nondecreasing_and_ids_sequential(self):
        compiled = compile_scenario(SPEC)
        times = [request.arrival_s for request in compiled.trace]
        assert times == sorted(times)
        assert [r.request_id for r in compiled.trace] == list(range(len(times)))

    def test_component_counts_follow_weights(self):
        compiled = compile_scenario(SPEC)
        counts = compiled.component_counts
        assert counts["chat"] + counts["vision"] == 200
        # 3:1 weights — chat should clearly dominate.
        assert counts["chat"] > 2 * counts["vision"]

    def test_component_shapes_match_their_spec(self):
        compiled = compile_scenario(SPEC)
        for request, name in zip(compiled.trace, compiled.components):
            component = {c.name: c for c in MIX}[name]
            assert request.request.images == component.images
            lo, hi = component.prompt_token_range
            assert lo <= request.request.prompt_text_tokens <= hi
            assert request.request.output_tokens in component.output_token_choices

    def test_unique_shapes_deduplicate(self):
        compiled = compile_scenario(SPEC)
        shapes = compiled.unique_shapes
        assert len(shapes) == len(set(shapes))
        assert set(shapes) == {r.request for r in compiled.trace}

    def test_single_component_needs_no_selection_stream(self):
        single = ScenarioSpec(
            name="single", n_requests=5, mix=(MIX[0],)
        )
        compiled = compile_scenario(single)
        assert compiled.components == ("chat",) * 5


THREE = ScenarioSpec(
    name="three-component-draws",
    n_requests=300,
    mix=(
        WorkloadComponent(name="chat", weight=3.0, images=0),
        WorkloadComponent(name="vision", weight=1.0, images=2),
        WorkloadComponent(
            name="long", weight=1.0, images=1, prompt_token_range=(200, 400)
        ),
    ),
    arrival=ArrivalSpec(kind="bursty", rate_rps=5.0),
)


def _eager_reference(spec):
    """The trace the spec's streams define, drawn eagerly per component.

    Every component draws ``n_requests`` shapes up front and each slot
    takes the next one of its component: the spec's streams by their
    definition, independent of how the compiler interleaves them.
    """
    n = spec.n_requests
    times = build_arrival_process(
        spec.arrival, seed=spec.derive_seed("arrival")
    ).generate(n)
    streams = {
        c.name: iter(
            component_sampler(c, seed=spec.derive_seed(f"component:{c.name}")).sample(n)
        )
        for c in spec.mix
    }
    selection = random.Random(spec.derive_seed("mix"))
    names = [c.name for c in spec.mix]
    weights = [c.weight for c in spec.mix]
    chosen = [
        names[0] if len(names) == 1 else selection.choices(names, weights=weights)[0]
        for _ in range(n)
    ]
    return build_trace(times, [next(streams[name]) for name in chosen]), chosen


def _assert_equals_the_eager_reference(spec):
    trace, chosen = _eager_reference(spec)
    compiled = compile_scenario(spec)
    assert compiled.trace == tuple(trace)
    assert compiled.components == tuple(chosen)


class TestLazyDraws:
    """Each component draws only the shapes of the slots it fills."""

    def test_each_component_draws_exactly_its_count(self, monkeypatch):
        draws = Counter()
        original = RequestSampler.iter_shapes

        def counting(sampler):
            for shape in original(sampler):
                draws[sampler.seed] += 1
                yield shape

        monkeypatch.setattr(RequestSampler, "iter_shapes", counting)
        components = compile_scenario(THREE).components
        counts = Counter(components)
        assert sum(counts.values()) == THREE.n_requests
        assert all(counts[c.name] > 0 for c in THREE.mix)
        assert {
            c.name: draws[THREE.derive_seed(f"component:{c.name}")] for c in THREE.mix
        } == {c.name: counts[c.name] for c in THREE.mix}

    def test_one_request_object_per_distinct_shape(self):
        compiled = compile_scenario(THREE)
        assert len({id(r.request) for r in compiled.trace}) == len(
            compiled.unique_shapes
        )
        assert len(compiled.unique_shapes) < THREE.n_requests

    @pytest.mark.parametrize("salt", [0, 1, 7919])
    def test_trace_equals_the_eager_reference(self, salt):
        _assert_equals_the_eager_reference(replace(THREE, seed_salt=salt))

    @pytest.mark.parametrize("name", available_scenarios())
    def test_registered_scenario_equals_the_eager_reference(self, name):
        # The registry spans every arrival kind (trace replays included)
        # and single- and multi-component mixes.
        _assert_equals_the_eager_reference(get_scenario(name))


class TestArrivalWiring:
    def test_builds_the_matching_process(self):
        assert isinstance(
            build_arrival_process(ArrivalSpec(kind="poisson")), PoissonArrivals
        )
        assert isinstance(
            build_arrival_process(ArrivalSpec(kind="bursty")), BurstyArrivals
        )
        assert isinstance(
            build_arrival_process(ArrivalSpec(kind="trace", times=(0.0, 1.0))),
            TraceArrivals,
        )

    def test_trace_times_replay_verbatim(self):
        times = tuple(round(i * 0.5, 6) for i in range(10))
        spec = ScenarioSpec(
            name="replay",
            n_requests=10,
            mix=(MIX[0],),
            arrival=ArrivalSpec(kind="trace", times=times),
        )
        compiled = compile_scenario(spec)
        assert tuple(r.arrival_s for r in compiled.trace) == times
