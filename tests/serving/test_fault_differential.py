"""Differential suite: the era controllers against independent oracles.

Both families assert ``==`` on the full record tuples (no tolerances —
the era path is bit-identical or broken):

* **dispatch oracle** — a fault-free fleet's records equal bare
  :class:`~repro.serving.queue.ContinuousBatchingSimulator` runs over
  the canonical-order shards of its own assignments (one bare run of the
  whole trace on a one-chip fleet), for traces with shuffled and
  duplicate caller ids and tied arrivals, across every engine and both
  dispatch policies.  Uniform priorities must equal no priorities on the
  autoscaled fleet, whose admission reads them.
* **engine equivalence under faults** — runs of the same faulted trace
  on every engine produce identical records, assignments and scaling
  events.  Era splits are computed from engine-independent prefill
  windows, so the equivalence the engines already guarantee per era
  extends to the whole faulted timeline.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.mllm import InferenceRequest, get_mllm
from repro.serving import (
    AutoscalerConfig,
    BurstyArrivals,
    ContinuousBatchingSimulator,
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    ServingRequest,
    build_trace,
)
from repro.serving.controllers import sorted_order
from repro.serving.faults import FaultEvent, FaultSchedule
from repro.serving.queue import ENGINES

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.fixture(scope="module")
def model():
    return get_mllm("sphinx-tiny")


def _trace(seed, n=40):
    return build_trace(
        PoissonArrivals(6.0, seed=seed).generate(n),
        RequestSampler(
            seed=seed,
            output_token_choices=(8, 16),
            output_token_weights=(0.6, 0.4),
        ).sample(n),
    )


def _bursty_trace(seed, n=60):
    return build_trace(
        BurstyArrivals(4.0, burst_multiplier=5.0, seed=seed).generate(n),
        RequestSampler(seed=seed).sample(n),
    )


def _config():
    return AutoscalerConfig(
        target_p99_ttft_s=2.0,
        min_chips=1,
        max_chips=3,
        window=16,
        min_observations=4,
        cooldown_s=0.5,
        max_queue_depth=16,
    )


def _schedule(seed, *, n_chips, span):
    rng = random.Random(seed)
    victim, slowpoke = rng.sample(range(n_chips), 2)
    down = round(rng.uniform(0.2, 0.5) * span, 6)
    up = round(down + rng.uniform(0.1, 0.3) * span, 6)
    degrade = round(rng.uniform(0.1, 0.8) * span, 6)
    events = sorted(
        [
            FaultEvent(time_s=down, kind="chip_down", chip_id=victim),
            FaultEvent(time_s=up, kind="chip_up", chip_id=victim),
            FaultEvent(
                time_s=degrade,
                kind="dram_degrade",
                chip_id=slowpoke,
                factor=round(rng.uniform(0.3, 0.9), 3),
            ),
        ],
        key=lambda e: (e.time_s, e.chip_id, e.kind),
    )
    policy = rng.choice(("drain", "abort"))
    return FaultSchedule(events=tuple(events), drain_policy=policy)


@st.composite
def tied_traces(draw):
    """Traces out of id order: shuffled or duplicate ids, arrivals tied."""
    n = draw(st.integers(min_value=2, max_value=18))
    slots = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    ids = draw(
        st.one_of(
            st.permutations(range(100, 100 + n)),
            st.lists(st.integers(0, n // 3), min_size=n, max_size=n),
        )
    )
    shapes = RequestSampler(
        seed=draw(seeds),
        output_token_choices=(4, 8, 16),
        output_token_weights=(0.4, 0.4, 0.2),
    ).sample(n)
    return [
        ServingRequest(request_id=rid, arrival_s=0.3 * slot, request=shape)
        for rid, slot, shape in zip(ids, slots, shapes)
    ]


def _bare_chip(model, engine, chip_id=0):
    return ContinuousBatchingSimulator(
        model=model, max_batch_size=8, chip_id=chip_id, engine=engine
    )


def _bare_per_chip_records(model, engine, trace, assignments, n_chips):
    """The dispatch oracle: a fleet as independent bare chip runs.

    Each chip runs the canonical-order shard of its assignments on a
    fresh bare simulator; the per-chip records merge in chip order and
    sort by request id.
    """
    shards = [[] for _ in range(n_chips)]
    for index in sorted_order(trace):
        shards[assignments[index]].append(trace[index])
    records = []
    for chip_id, shard in enumerate(shards):
        if shard:
            records.extend(_bare_chip(model, engine, chip_id).run(shard).records)
    records.sort(key=lambda record: record.request_id)
    return tuple(records)


def _countdown_trace():
    """12 requests, ids 100 down to 89, arrivals tied in threes."""
    shapes = RequestSampler(
        seed=3, output_token_choices=(4, 16), output_token_weights=(0.5, 0.5)
    ).sample(12)
    return [
        ServingRequest(
            request_id=100 - position,
            arrival_s=0.25 * (position // 3),
            request=shape,
        )
        for position, shape in enumerate(shapes)
    ]


class TestDispatchOracle:
    @given(trace=tied_traces(), engine=st.sampled_from(ENGINES))
    @settings(max_examples=12, deadline=None)
    def test_one_chip_fleet_is_a_bare_chip_run(self, model, trace, engine):
        policy = "least_loaded" if len(trace) % 2 else "round_robin"
        fleet = FleetSimulator(
            model, n_chips=1, policy=policy, max_batch_size=8, engine=engine
        )
        assert fleet.run(trace).records == (
            _bare_chip(model, engine).run(trace).records
        )

    @given(
        trace=tied_traces(),
        engine=st.sampled_from(ENGINES),
        policy=st.sampled_from(("round_robin", "least_loaded")),
        n_chips=st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=12, deadline=None)
    def test_fleet_is_bare_per_chip_runs(
        self, model, trace, engine, policy, n_chips
    ):
        fleet = FleetSimulator(
            model, n_chips=n_chips, policy=policy, max_batch_size=8,
            engine=engine,
        )
        result = fleet.run(trace)
        assert result.records == _bare_per_chip_records(
            model, engine, trace, result.assignments, n_chips
        )
        assert result.fault_events == ()
        assert result.redispatched_ids == result.aborted_ids == ()

    @pytest.mark.parametrize("policy", ["round_robin", "least_loaded"])
    def test_tied_countdown_ids_break_ties_canonically(self, model, policy):
        trace = _countdown_trace()
        fleet = FleetSimulator(
            model, n_chips=2, policy=policy, max_batch_size=8
        )
        result = fleet.run(trace)
        assert result.records == _bare_per_chip_records(
            model, "wave", trace, result.assignments, 2
        )

    def test_duplicate_ids_keep_a_bare_chip_completion_order(self, model):
        # Two requests share id 7 on one chip; the later, shorter one
        # finishes first, and a bare chip emits it first.
        long = InferenceRequest(
            images=0, prompt_text_tokens=32, output_tokens=16
        )
        short = InferenceRequest(
            images=0, prompt_text_tokens=32, output_tokens=4
        )
        trace = [
            ServingRequest(request_id=7, arrival_s=0.0, request=long),
            ServingRequest(request_id=7, arrival_s=0.0, request=short),
            ServingRequest(request_id=3, arrival_s=0.1, request=short),
        ]
        records = FleetSimulator(model, n_chips=1, max_batch_size=8).run(
            trace
        ).records
        assert [r.request.output_tokens for r in records] == [4, 4, 16]
        assert records == _bare_chip(model, "wave").run(trace).records


class TestUniformPriorities:
    @given(seed=seeds)
    @settings(max_examples=6, deadline=None)
    def test_autoscaled_uniform_priorities_equal_none(self, model, seed):
        trace = _bursty_trace(seed)
        engine = random.Random(seed).choice(ENGINES)

        def run(**kwargs):
            fleet = FleetSimulator(
                model, autoscaler=_config(), max_batch_size=8, engine=engine
            )
            return fleet.run(trace, **kwargs)

        assert run(priorities=[2.0] * len(trace)) == run()


class TestEngineEquivalenceUnderFaults:
    @given(seed=seeds)
    @settings(max_examples=6, deadline=None)
    def test_static_fleet_engines_agree(self, model, seed):
        trace = _trace(seed, n=48)
        schedule = _schedule(seed, n_chips=3, span=trace[-1].arrival_s)
        results = {
            engine: FleetSimulator(
                model,
                n_chips=3,
                policy="least_loaded",
                max_batch_size=8,
                engine=engine,
            ).run(trace, faults=schedule)
            for engine in ENGINES
        }
        reference = results["step"]
        for engine in ENGINES:
            assert results[engine].records == reference.records, engine
            assert results[engine].assignments == reference.assignments, engine
            assert (
                results[engine].redispatched_ids == reference.redispatched_ids
            ), engine
            assert results[engine].aborted_ids == reference.aborted_ids, engine

    @given(seed=seeds)
    @settings(max_examples=4, deadline=None)
    def test_autoscaled_fleet_engines_agree(self, model, seed):
        trace = _bursty_trace(seed, n=48)
        schedule = _schedule(seed, n_chips=3, span=trace[-1].arrival_s)
        results = {
            engine: FleetSimulator(
                model, autoscaler=_config(), max_batch_size=8, engine=engine
            ).run(trace, faults=schedule)
            for engine in ENGINES
        }
        reference = results["step"]
        for engine in ENGINES:
            assert results[engine].records == reference.records, engine
            assert results[engine].assignments == reference.assignments, engine
            assert results[engine].rejected_ids == reference.rejected_ids, engine
            assert results[engine].events == reference.events, engine
