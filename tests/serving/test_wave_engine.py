"""Wave engine: bit-identity against the per-step oracle.

The wave engine compresses constant-composition runs of decode steps
and folds each run in closed form, but its contract is exact ``==``
equivalence with the per-step oracle.  Every test here asserts equality
of ``RequestRecord`` tuples and peak-batch/decode-step counters between
``wave`` and ``step`` — on randomized composition-churning traces over
batch sizes, bucket widths and fleet sizes, and on deterministic edge
traces whose runs are short, long, cut by admissions, cross a power of
two or start binades apart — plus scale-event equality when the
autoscaler drives fleets under ``engine="wave"``.  The closed-form fold
(:func:`~repro.serving.engine.fold_run`) is pinned against the plain
step-by-step walk, and the CC-pipeline recurrence both the wave engine
and the fault era split share
(:func:`~repro.serving.engine.prefill_windows`) against the oracle's
prefill windows directly.
"""

import inspect
from dataclasses import fields
from math import inf, nextafter, ulp

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.batch import context_bucket_for
from repro.core.simulator import PerformanceSimulator
from repro.models.mllm import InferenceRequest, get_mllm
from repro.planner.__main__ import _build_parser as planner_parser
from repro.planner.evaluate import (
    candidate_fleet,
    candidate_survives_chip_loss,
    evaluate_candidate,
    simulate_candidate,
)
from repro.planner.plan import plan_scenario
from repro.planner.space import ChipDesign
from repro.scenarios.__main__ import _build_parser as scenarios_parser
from repro.scenarios.runner import build_fleet, run_scenario
from repro.serving import (
    AutoscalerConfig,
    BurstyArrivals,
    ContinuousBatchingSimulator,
    ENGINES,
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    build_trace,
)
from repro.serving.engine import fold_run, prefill_windows
from repro.serving.runtime import Checkpoint
from repro.serving.runtime.service import run_scenario_live

MODEL = get_mllm("sphinx-tiny")

#: A pruned, compute-bound chip: its buckets' compute cycles carry
#: fractions, so its step latencies depend on how the per-stream compute
#: is summed (``None`` below stands for the default system).
PRUNED = ChipDesign(
    n_groups=1, cc_per_group=1, mc_per_group=1, dram_gbps=204.8, keep_fraction=0.4
)

#: One simulator per chip design: every chip of a design prices the same
#: model on the same system, so chips of one bucket width read (and
#: fill) one shared serving-cost memo.  Sharing moves work, never
#: values, so both engines of a comparison read identical costs.
_SIMULATORS = {
    design: PerformanceSimulator(None if design is None else design.system())
    for design in (None, PRUNED)
}


def _chip(engine, *, max_batch_size=8, context_bucket=32, design=None):
    return ContinuousBatchingSimulator(
        _SIMULATORS[design],
        model=MODEL,
        max_batch_size=max_batch_size,
        context_bucket=context_bucket,
        engine=engine,
    )


def run_both(trace, *, max_batch_size=8, context_bucket=32, design=None):
    """(wave result, step result) of the same trace on twin chips."""
    results = []
    for engine in ("wave", "step"):
        chip = _chip(
            engine,
            max_batch_size=max_batch_size,
            context_bucket=context_bucket,
            design=design,
        )
        results.append(chip.run(trace))
    return results


def assert_identical(result, reference):
    """Every observable of the two runs is ``==``-identical."""
    assert result.records == reference.records
    assert result.peak_batch_size == reference.peak_batch_size
    assert result.decode_steps == reference.decode_steps


def make_trace(
    n,
    *,
    seed,
    rate=4.0,
    bursty=False,
    images=1,
    prompt_range=(4, 64),
    output_choices=(1, 2, 8, 16, 64),
):
    arrivals = (
        BurstyArrivals(rate, burst_multiplier=6.0, seed=seed)
        if bursty
        else PoissonArrivals(rate, seed=seed)
    )
    sampler = RequestSampler(
        seed=seed,
        images=images,
        prompt_token_range=prompt_range,
        output_token_choices=output_choices,
        output_token_weights=tuple(1.0 for _ in output_choices),
    )
    return build_trace(arrivals.generate(n), sampler.sample(n))


def simultaneous_arrivals():
    """Eight requests at t=0, then pairs arriving together each second."""
    base = make_trace(24, seed=3, rate=6.0)
    times = [0.0] * 8 + [t for t in range(1, 9) for _ in (0, 1)]
    return build_trace(
        [float(t) for t in times], [r.request for r in base[: len(times)]]
    )


def power_of_two_crossing():
    """Long decodes admitted just below 4 s: their runs cross 4 s and 8 s."""
    times = [3.5 + 0.05 * i for i in range(8)]
    return build_trace(
        times,
        [
            InferenceRequest(
                images=1, prompt_text_tokens=16, output_tokens=200 + 8 * i
            )
            for i in range(8)
        ],
    )


def binade_jumps():
    """Bursts of three whose idle gaps move the clock binades apart."""
    starts = (0.01, 0.3, 3.0, 40.0, 700.0, 9000.0, 2.0**17 - 0.1)
    outputs = (1, 16, 40)
    return build_trace(
        [start + 0.01 * i for start in starts for i in range(3)],
        [
            InferenceRequest(
                images=0, prompt_text_tokens=8, output_tokens=outputs[i % 3]
            )
            for i in range(3 * len(starts))
        ],
    )


class TestEngineSelection:
    def test_engines_tuple_and_default(self):
        assert ENGINES == ("step", "wave")
        assert ContinuousBatchingSimulator(model=MODEL).engine == "wave"

    @pytest.mark.parametrize("engine", ["macro", "warp"])
    def test_rejects_unknown_engine(self, engine):
        with pytest.raises(ValueError, match="engine"):
            ContinuousBatchingSimulator(model=MODEL, engine=engine)

    def test_fleet_forwards_engine_to_chips(self):
        fleet = FleetSimulator(MODEL, n_chips=2, engine="step")
        assert all(chip.engine == "step" for chip in fleet.chips)
        assert FleetSimulator(MODEL, n_chips=1).chips[0].engine == "wave"

    def test_every_entry_point_defaults_to_wave(self):
        # Only the chip, the fleet and build_fleet choose the engine;
        # every layer above them always plays the wave default.
        for entry in (ContinuousBatchingSimulator, FleetSimulator, build_fleet):
            engine = inspect.signature(entry).parameters["engine"]
            assert engine.default == "wave", entry.__name__
        for entry in (
            run_scenario,
            run_scenario_live,
            candidate_fleet,
            evaluate_candidate,
            candidate_survives_chip_loss,
            simulate_candidate,
            plan_scenario,
        ):
            assert "engine" not in inspect.signature(entry).parameters, (
                entry.__name__
            )
        assert "engine" not in {field.name for field in fields(Checkpoint)}

    @pytest.mark.parametrize(
        "parser, argv",
        [(scenarios_parser, ["run", "chat-poisson"]),
         (planner_parser, ["plan", "chat-poisson"])],
        ids=["scenarios", "planner"],
    )
    def test_clis_take_no_engine(self, parser, argv, capsys):
        with pytest.raises(SystemExit):
            parser().parse_args(argv + ["--engine", "step"])
        assert "unrecognized arguments: --engine step" in capsys.readouterr().err


class TestInlinedBucketArithmetic:
    def test_matches_the_canonical_quantizer(self):
        # The engine inlines context_bucket_for's arithmetic in its hot
        # loop; the two definitions must never drift.
        for width in (1, 2, 3, 7, 16, 32, 64, 131):
            for context in list(range(0, 4 * width + 2)) + [10**6, 10**6 + 1]:
                inlined = ((max(context, 1) + width - 1) // width) * width
                assert inlined == context_bucket_for(context, width)


class TestPropertyEquivalence:
    @given(
        n=st.integers(min_value=1, max_value=90),
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.2, max_value=40.0),
        bursty=st.booleans(),
        max_batch=st.integers(min_value=1, max_value=12),
        bucket=st.sampled_from((1, 4, 16, 32, 64, 96)),
        images=st.integers(min_value=0, max_value=2),
        design=st.sampled_from((None, PRUNED)),
    )
    @settings(max_examples=30, deadline=None)
    def test_wave_equals_step(
        self, n, seed, rate, bursty, max_batch, bucket, images, design
    ):
        # Mixed output lengths churn the batch composition constantly —
        # the regime where an unsound admission cutoff or composition
        # update would diverge fastest.
        trace = make_trace(
            n, seed=seed, rate=rate, bursty=bursty, images=images
        )
        assert_identical(
            *run_both(
                trace,
                max_batch_size=max_batch,
                context_bucket=bucket,
                design=design,
            )
        )


#: Deterministic edge traces: (trace factory, chip kwargs).
EDGE_TRACES = [
    pytest.param(lambda: make_trace(1, seed=0), {}, id="single-request"),
    pytest.param(
        lambda: make_trace(40, seed=1, rate=20.0, output_choices=(1,)),
        {},
        id="single-token-outputs",
    ),
    pytest.param(
        lambda: make_trace(30, seed=2, rate=8.0),
        {"max_batch_size": 1},
        id="serial-batch-of-one",
    ),
    pytest.param(
        simultaneous_arrivals, {"max_batch_size": 3}, id="simultaneous-arrivals"
    ),
    # build_trace assigns ids positionally; feed the simulator a trace
    # whose list order disagrees with arrival order.
    pytest.param(
        lambda: list(reversed(make_trace(30, seed=4, rate=10.0))),
        {},
        id="unsorted-trace-positions",
    ),
    # A slow trickle of medium outputs: runs of roughly 12 to 47 steps.
    pytest.param(
        lambda: make_trace(12, seed=6, rate=0.2, output_choices=(24, 40)),
        {},
        id="medium-runs",
    ),
    # Bucket width 256 with a slow trickle of arrivals produces runs of
    # hundreds of steps.
    pytest.param(
        lambda: make_trace(8, seed=5, rate=0.05, output_choices=(200, 256)),
        {"context_bucket": 256},
        id="long-runs",
    ),
    # A slow trickle of long decodes: admissions land mid-run, so the
    # cutoff, not the composition, ends most runs.
    pytest.param(
        lambda: make_trace(10, seed=5, rate=0.05, output_choices=(200, 256)),
        {"context_bucket": 256},
        id="mid-run-admissions",
    ),
    # Runs from just below 4 s that end past it (one cut by an
    # admission, one not) and a run that crosses 8 s: the fold leaves
    # its binade's rounding grid mid-run.
    pytest.param(
        power_of_two_crossing, {"context_bucket": 256}, id="power-of-two-crossing"
    ),
    # Idle gaps restart decode binades apart, up to just below 2**17 s.
    pytest.param(binade_jumps, {}, id="binade-jumps"),
]


class TestDeterministicEdges:
    @pytest.mark.parametrize("make, chip_kwargs", EDGE_TRACES)
    def test_wave_equals_step(self, make, chip_kwargs):
        assert_identical(*run_both(make(), **chip_kwargs))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_records_reuse_the_trace_requests(self, engine):
        # A record holds its request's own InferenceRequest, never a copy.
        trace = make_trace(40, seed=7, rate=10.0)
        chip = _chip(engine)
        result = chip.run(trace)
        requests = {item.request_id: item.request for item in trace}
        assert all(r.request is requests[r.request_id] for r in result.records)

    def test_empty_trace_rejected(self):
        chip = _chip("wave")
        with pytest.raises(ValueError, match="empty"):
            chip.run([])


def walk(now, dt, k, limit):
    """The oracle's left fold, one step at a time."""
    first = boundary = now + dt
    steps = 1
    while steps < k and boundary < limit:
        boundary += dt
        steps += 1
    return first, boundary, steps


#: Times just below a power of two, where a run soonest leaves its binade.
BELOW_POWER_OF_TWO = st.builds(
    lambda exponent, units: 2.0**exponent - units * ulp(2.0 ** (exponent - 1)),
    st.integers(min_value=-20, max_value=40),
    st.integers(min_value=1, max_value=2**12),
)


@st.composite
def fold_cases(draw):
    """``(now, dt, k, limit)`` around every branch of :func:`fold_run`.

    Each kind is drawn by name, so the common closed-form cases (a
    normal ``now``, a ``dt`` off the tie, a limit inside the run) are not
    crowded out by the edge cases that walk.
    """
    now_kind = draw(
        st.sampled_from(("zero", "subnormal", "below-2^n", "normal"))
    )
    if now_kind == "zero":
        now = 0.0
    elif now_kind == "subnormal":
        now = draw(st.integers(min_value=1, max_value=2**52 - 1)) * 5e-324
    elif now_kind == "below-2^n":
        now = draw(BELOW_POWER_OF_TWO)
    else:
        now = draw(st.floats(min_value=1e-6, max_value=1e6))
    u = ulp(now)
    top = u * 2.0**53 if now > 0.0 else 1.0
    dt_kind = draw(
        st.sampled_from(("tie", "below-half-ulp", "past-top", "grid", "any"))
    )
    if dt_kind == "tie":
        # The rounding of every step depends on the parity of ``t``.
        dt = draw(st.integers(min_value=0, max_value=2**20)) * u + u / 2
    elif dt_kind == "below-half-ulp":
        # Every step rounds back to ``now``: delta is 0.
        half = u / 2  # 0.0 when u is the smallest subnormal
        dt = draw(st.floats(min_value=0.0, max_value=half, exclude_max=half > 0))
    elif dt_kind == "past-top":
        # The first step already leaves the binade.
        dt = (top - now) * draw(st.floats(min_value=1.0, max_value=4.0))
    elif dt_kind == "grid":
        units = draw(st.integers(min_value=1, max_value=2**30))
        part = draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
        dt = units * u + part * u
    else:
        # 1 to 10**-9 of ``now``: runs of up to ~10**9 steps fit the binade.
        scale = now if now > 0.0 else 1.0
        dt = scale * 10 ** -draw(st.floats(min_value=0.0, max_value=9.0))
    k = draw(
        st.one_of(
            st.just(1),
            st.integers(min_value=2, max_value=64),
            st.integers(min_value=65, max_value=10**4),
            st.integers(min_value=10**4 + 1, max_value=10**6),
        )
    )
    limit_kind = draw(
        st.sampled_from(
            ("inf", "inside", "on", "ulp-above", "ulp-below", "at-or-before")
        )
    )
    if limit_kind == "inf":
        return now, dt, k, inf
    if limit_kind == "at-or-before":
        return now, dt, k, now - draw(st.floats(min_value=0.0, max_value=1.0))
    if limit_kind == "inside":
        end = walk(now, dt, min(k, 10**4), inf)[1]
        fraction = draw(
            st.one_of(st.sampled_from((0.01, 0.5, 0.99)), st.floats(0.0, 1.0))
        )
        return now, dt, k, now + (end - now) * fraction
    step = draw(st.integers(min_value=1, max_value=k))
    boundary = walk(now, dt, step, inf)[1]
    if limit_kind == "on":
        return now, dt, k, boundary
    toward = inf if limit_kind == "ulp-above" else -inf
    return now, dt, k, nextafter(boundary, toward)


class TestFoldRun:
    @given(case=fold_cases())
    @example(case=(1.0, 0.25, 4, inf))  # exact binary fractions
    @example(case=(1.0, 3 * ulp(1.0) / 2, 64, inf))  # ties alternate
    @example(case=(1.0, ulp(1.0) / 4, 10, 1.0))  # delta 0, limit at now
    @example(case=(1.0, ulp(1.0) / 4, 10, 0.5))  # delta 0, limit below
    @example(case=(1.0, 0.01, 90, 1.5))  # cut inside the binade
    @example(case=(3.99, 0.021, 200, 4.5))  # crosses 4 s, then cut
    @example(case=(5e-324, 5e-324, 10**6, inf))  # subnormal
    @settings(max_examples=500, deadline=None)
    def test_equals_the_walk(self, case):
        assert fold_run(*case) == walk(*case)

    def test_hand_worked_runs(self):
        # Quarter steps from 1.0 are exact: the run ends after k steps
        # with no limit, and at the first boundary at or past one.
        assert fold_run(1.0, 0.25, 4, inf) == (1.25, 2.0, 4)
        assert fold_run(1.0, 0.25, 4, 1.5) == (1.25, 1.5, 2)
        assert fold_run(1.0, 0.25, 4, 1.6) == (1.25, 1.75, 3)
        assert fold_run(1.0, 0.25, 4, 0.5) == (1.25, 1.25, 1)
        # 0.1 is not a binary fraction: its steps round, as in the loop.
        assert fold_run(1.0, 0.1, 3, inf) == (1.1, 1.1 + 0.1 + 0.1, 3)


class TestPrefillWindows:
    def test_hand_worked_windows(self):
        # An idle pipeline starts at the arrival, a busy one at the
        # previous end; tied arrivals queue behind each other.
        starts, ends = prefill_windows(
            [0.0, 0.5, 5.0, 5.0], [1.0, 1.0, 0.25, 0.25]
        )
        assert starts == [0.0, 1.0, 5.0, 5.25]
        assert ends == [1.0, 2.0, 5.25, 5.5]

    def test_empty_columns(self):
        assert prefill_windows([], []) == ([], [])

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(simultaneous_arrivals, id="simultaneous-arrivals"),
            pytest.param(
                lambda: list(reversed(make_trace(30, seed=4, rate=10.0))),
                id="unsorted-trace-positions",
            ),
            pytest.param(
                lambda: make_trace(80, seed=11, rate=12.0, bursty=True),
                id="bursty-backlog",
            ),
            pytest.param(
                lambda: make_trace(20, seed=9, rate=0.1), id="idle-gaps"
            ),
        ],
    )
    def test_matches_the_oracle_windows(self, make):
        # Columns in dispatch order, as both callers pass them.
        trace = make()
        chip = _chip("step")
        result = chip.run(trace)
        pending = sorted(trace, key=lambda r: (r.arrival_s, r.request_id))
        starts, ends = prefill_windows(
            [item.arrival_s for item in pending],
            [chip.cc_latency_s(item.request) for item in pending],
        )
        by_id = {record.request_id: record for record in result.records}
        records = [by_id[item.request_id] for item in pending]
        assert starts == [record.prefill_start_s for record in records]
        assert ends == [record.prefill_end_s for record in records]


class TestFleetEquivalence:
    @pytest.mark.parametrize("policy", ["round_robin", "least_loaded"])
    @pytest.mark.parametrize("n_chips", [1, 3])
    def test_fleet_traces_identical(self, policy, n_chips):
        trace = make_trace(80, seed=11, rate=12.0, bursty=True)
        results = []
        for engine in ("wave", "step"):
            fleet = FleetSimulator(
                MODEL, n_chips=n_chips, policy=policy, engine=engine
            )
            results.append(fleet.run(trace))
        wave, step = results
        assert wave.assignments == step.assignments
        assert wave.records == step.records
        for chip_wave, chip_step in zip(wave.per_chip, step.per_chip):
            assert chip_wave.records == chip_step.records
            assert chip_wave.peak_batch_size == chip_step.peak_batch_size
            assert chip_wave.decode_steps == chip_step.decode_steps


class TestAutoscalerEquivalence:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=8, deadline=None)
    def test_scale_events_and_records_identical(self, seed):
        trace = make_trace(
            120, seed=seed, rate=8.0, bursty=True, output_choices=(8, 16, 64)
        )
        config = AutoscalerConfig(
            target_p99_ttft_s=2.0,
            min_chips=1,
            max_chips=3,
            window=24,
            min_observations=8,
            cooldown_s=0.5,
            scale_up_ratio=0.5,
            max_queue_depth=16,
        )
        results = []
        for engine in ("wave", "step"):
            fleet = FleetSimulator(
                MODEL, autoscaler=config, engine=engine
            )
            results.append(fleet.run(trace))
        wave, step = results
        assert wave.events == step.events
        assert wave.assignments == step.assignments
        assert wave.rejected_ids == step.rejected_ids
        assert wave.records == step.records
        assert wave.final_chips == step.final_chips
