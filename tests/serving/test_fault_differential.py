"""Differential chaos suite: the fault path must hide when unused.

Two families of identity, both asserted with ``==`` on the full record
tuples (no tolerances — the fault path is bit-identical or broken):

* **fault-free identity** — an empty :class:`FaultSchedule` and uniform
  priorities must reproduce the legacy simulation exactly, across every
  engine, both dispatch policies and the autoscaled fleet.  This is what
  lets the fault machinery ship inside the serving engines without
  perturbing a single committed golden.
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

from repro.models.mllm import get_mllm
from repro.serving import (
    AutoscalerConfig,
    AutoscalingFleetSimulator,
    BurstyArrivals,
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    build_trace,
)
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


class TestFaultFreeIdentity:
    @given(seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_static_fleet_empty_schedule_is_the_legacy_run(self, model, seed):
        trace = _trace(seed)
        rng = random.Random(seed)
        policy = rng.choice(("round_robin", "least_loaded"))
        engine = rng.choice(ENGINES)
        legacy = FleetSimulator(
            model, n_chips=3, policy=policy, max_batch_size=8, engine=engine
        ).run(trace)
        faulted = FleetSimulator(
            model, n_chips=3, policy=policy, max_batch_size=8, engine=engine
        ).run(trace, faults=FaultSchedule())
        assert faulted.records == legacy.records
        assert faulted.assignments == legacy.assignments
        assert faulted.redispatched_ids == ()
        assert faulted.aborted_ids == ()

    @given(seed=seeds)
    @settings(max_examples=6, deadline=None)
    def test_autoscaled_empty_schedule_and_uniform_priorities(self, model, seed):
        trace = _bursty_trace(seed)
        engine = random.Random(seed).choice(ENGINES)

        def run(**kwargs):
            fleet = AutoscalingFleetSimulator(
                model, autoscaler=_config(), max_batch_size=8, engine=engine
            )
            return fleet.run(trace, **kwargs)

        legacy = run()
        for faulted in (
            run(faults=FaultSchedule()),
            run(priorities=[2.0] * len(trace)),
            run(faults=FaultSchedule(), priorities=[2.0] * len(trace)),
        ):
            assert faulted.records == legacy.records
            assert faulted.assignments == legacy.assignments
            assert faulted.rejected_ids == legacy.rejected_ids
            assert faulted.events == legacy.events
            assert faulted.final_chips == legacy.final_chips


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
            engine: AutoscalingFleetSimulator(
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
