"""Differential suite: live actor runs ≡ batch runs, byte for byte.

The headline equivalence proof of the live runtime: for **every**
registered scenario, ``run_scenario(..., runtime="live")`` must
reproduce the batch report — dataclass ``==`` and canonical JSON byte
identity, covering records, scale events, fault eras and tenant budgets
in one shot.  The control planes never read the decode engine (a job
is ``sim.run(shard)``), so the scenarios run on the wave engine; the
step oracle reproduces every golden report on its own
(``tests/scenarios/test_golden_reports.py``), and a fleet-level test
here runs both planes on each engine.  Below the scenario layer,
fleet-level tests assert full result-object equality (records,
per-chip results, assignments, events) for each controller kind,
including the pacing knob, which may only ever change wall-clock.

No tolerances anywhere: the live plane drives the exact stepwise
controllers the batch plane drives, so it is bit-identical or broken.
"""

import pytest

from repro.models.mllm import get_mllm
from repro.scenarios.registry import available_scenarios, get_scenario
from repro.scenarios.runner import run_scenario
from repro.serving import (
    AutoscalerSpec,
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    build_trace,
)
from repro.serving.faults import FaultEvent, FaultSchedule
from repro.serving.queue import ENGINES

SCENARIOS = available_scenarios()


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


class TestScenarioMatrix:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_live_equals_batch(self, name):
        batch = run_scenario(get_scenario(name))
        live = run_scenario(get_scenario(name), runtime="live")
        assert live == batch
        assert live.to_json() == batch.to_json()


class TestFleetLevel:
    @pytest.mark.parametrize("policy", ["round_robin", "least_loaded"])
    def test_static_fleet(self, model, policy):
        trace = _trace(11)
        fleet = FleetSimulator(model, n_chips=3, policy=policy)
        assert fleet.run(trace, runtime="live") == fleet.run(trace)

    @pytest.mark.parametrize("admission", ["queue", "reject"])
    def test_autoscale(self, model, admission):
        trace = _trace(13, n=60)
        fleet = FleetSimulator(
            model,
            autoscaler=AutoscalerSpec(
                target_p99_ttft_s=0.4,
                max_chips=3,
                window=8,
                min_observations=4,
                cooldown_s=0.2,
                max_queue_depth=2,
                admission=admission,
            ),
        )
        live = fleet.run(trace, runtime="live")
        batch = fleet.run(trace)
        assert live == batch
        assert live.events == batch.events
        assert live.rejected_ids == batch.rejected_ids

    @pytest.mark.parametrize("drain_policy", ["drain", "abort"])
    def test_static_faults(self, model, drain_policy):
        trace = _trace(17)
        horizon = max(request.arrival_s for request in trace)
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    time_s=horizon * 0.2, kind="chip_down", chip_id=0
                ),
                FaultEvent(
                    time_s=horizon * 0.4,
                    kind="dram_degrade",
                    chip_id=1,
                    factor=0.5,
                ),
                FaultEvent(
                    time_s=horizon * 0.7, kind="chip_up", chip_id=0
                ),
            ),
            drain_policy=drain_policy,
        )
        fleet = FleetSimulator(model, n_chips=3, policy="least_loaded")
        live = fleet.run(trace, runtime="live", faults=schedule)
        batch = fleet.run(trace, faults=schedule)
        assert live == batch
        assert live.fault_events == batch.fault_events
        assert live.redispatched_ids == batch.redispatched_ids
        assert live.aborted_ids == batch.aborted_ids

    def test_autoscale_faults_with_priorities(self, model):
        trace = _trace(19, n=60)
        horizon = max(request.arrival_s for request in trace)
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    time_s=horizon * 0.3, kind="chip_down", chip_id=1
                ),
                FaultEvent(
                    time_s=horizon * 0.8, kind="chip_up", chip_id=1
                ),
            )
        )
        priorities = [
            2.0 if index % 3 == 0 else 1.0 for index in range(len(trace))
        ]
        fleet = FleetSimulator(
            model,
            autoscaler=AutoscalerSpec(
                target_p99_ttft_s=0.4,
                max_chips=3,
                window=8,
                min_observations=4,
                cooldown_s=0.2,
                max_queue_depth=2,
            ),
        )
        live = fleet.run(
            trace, runtime="live", faults=schedule, priorities=priorities
        )
        batch = fleet.run(trace, faults=schedule, priorities=priorities)
        assert live == batch

    def test_priorities_only_autoscale(self, model):
        trace = _trace(23, n=50)
        priorities = [1.0 + (index % 2) for index in range(len(trace))]
        fleet = FleetSimulator(
            model,
            autoscaler=AutoscalerSpec(
                target_p99_ttft_s=0.4,
                max_chips=2,
                window=8,
                min_observations=4,
                max_queue_depth=2,
            ),
        )
        live = fleet.run(trace, runtime="live", priorities=priorities)
        batch = fleet.run(trace, priorities=priorities)
        assert live == batch

    def test_pacing_changes_nothing(self, model):
        from repro.serving.runtime import run_live

        trace = _trace(29, n=20)
        fleet = FleetSimulator(model, n_chips=2)
        batch = fleet.run(trace)
        # Enormous acceleration: real-time pacing, negligible wall-clock.
        paced = run_live(fleet, trace, pace=1e9)
        assert paced.result == batch

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engines_fleet_level(self, model, engine):
        trace = _trace(31)
        fleet = FleetSimulator(model, n_chips=2, engine=engine)
        assert fleet.run(trace, runtime="live") == fleet.run(trace)
