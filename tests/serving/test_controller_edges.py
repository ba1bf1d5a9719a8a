"""Edge-branch tests for the two era controllers.

Targeted at the branches the broad differential/property suites rarely
reach: autoscaler-config validation, the `FleetResult` helper properties
of an autoscaled run, autoscaled scale-downs, parked arrivals surviving
an outage (and a checkpoint taken mid-outage), and the guard rails on
`fleet.run`.  Together with the main suites these keep `repro.serving`
above the CI coverage floor.
"""

import pytest

from repro.models.mllm import get_mllm
from repro.serving import (
    AutoscalerConfig,
    FleetResult,
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    build_trace,
)
from repro.serving.faults import FaultEvent, FaultSchedule
from repro.serving.runtime import run_live


@pytest.fixture(scope="module")
def model():
    return get_mllm("sphinx-tiny")


def _trace(seed, n=24, rate=6.0):
    return build_trace(
        PoissonArrivals(rate, seed=seed).generate(n),
        RequestSampler(seed=seed).sample(n),
    )


def _burst_then_idle_trace(n_burst=30, n_tail=15):
    """A dense burst followed by sparse arrivals: scales up, then down."""
    times = [0.02 * i for i in range(n_burst)]
    times += [3.0 + 2.0 * i for i in range(n_tail)]
    return build_trace(
        times, RequestSampler(seed=11).sample(n_burst + n_tail)
    )


class TestAutoscalerConfigValidation:
    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"target_p99_ttft_s": 0.0}, "target_p99_ttft_s"),
            ({"min_chips": 0}, "min_chips"),
            ({"min_chips": 4, "max_chips": 2}, "max_chips"),
            ({"window": 0}, "window"),
            ({"min_observations": 0}, "window"),
            ({"cooldown_s": -1.0}, "cooldown_s"),
            ({"scale_up_ratio": 0.0}, "scale_up_ratio"),
            ({"scale_down_ratio": 2.0}, "scale_down_ratio"),
            ({"max_queue_depth": 0}, "max_queue_depth"),
            ({"admission": "tarpit"}, "admission"),
        ],
    )
    def test_invalid_knobs_rejected(self, overrides, match):
        kwargs = {"target_p99_ttft_s": 1.0, **overrides}
        with pytest.raises(ValueError, match=match):
            AutoscalerConfig(**kwargs)


class TestFleetResultProperties:
    def test_all_rejected_run_reports_zeroes(self):
        result = FleetResult(
            records=(),
            per_chip=(),
            assignments=(-1, -1),
            rejected_ids=(5, 7),
            events=(),
            final_chips=1,
        )
        assert result.report.n_requests == 0
        assert result.n_rejected == 2
        assert result.rejection_rate == 1.0
        assert result.peak_chips == 1
        assert result.requests_per_chip == ()

    def test_per_chip_request_counts(self, model):
        result = FleetResult(
            records=(),
            per_chip=(object(), object()),
            assignments=(0, 1, 1, -1),
            rejected_ids=(3,),
            events=(),
            final_chips=2,
        )
        assert result.requests_per_chip == (1, 2)
        assert result.rejection_rate == pytest.approx(1.0)


class TestAutoscaleRunGuards:
    def test_invalid_runtime_rejected(self, model):
        fleet = FleetSimulator(
            model, autoscaler=AutoscalerConfig(target_p99_ttft_s=1.0)
        )
        with pytest.raises(ValueError, match="runtime"):
            fleet.run(_trace(3), runtime="warp")

    def test_empty_trace_rejected(self, model):
        fleet = FleetSimulator(
            model, autoscaler=AutoscalerConfig(target_p99_ttft_s=1.0)
        )
        with pytest.raises(ValueError, match="empty"):
            fleet.run([])

    def test_fault_path_rejects_empty_trace(self, model):
        fleet = FleetSimulator(
            model, autoscaler=AutoscalerConfig(target_p99_ttft_s=1.0)
        )
        with pytest.raises(ValueError, match="empty"):
            fleet.run([], faults=FaultSchedule())


class TestFaultAutoscaleBranches:
    CONFIG = AutoscalerConfig(
        target_p99_ttft_s=1.0,
        min_chips=1,
        max_chips=3,
        window=5,
        min_observations=3,
        cooldown_s=0.1,
        scale_up_ratio=1.0,
        scale_down_ratio=0.5,
        max_queue_depth=16,
    )

    def test_scale_down_after_the_burst(self, model):
        trace = _burst_then_idle_trace()
        fleet = FleetSimulator(model, autoscaler=self.CONFIG)
        batch = fleet.run(trace, faults=FaultSchedule())
        downs = sum(
            1
            for event in batch.events
            if event.n_chips_after < event.n_chips_before
        )
        ups = sum(
            1
            for event in batch.events
            if event.n_chips_after > event.n_chips_before
        )
        assert ups >= 1 and downs >= 1
        assert fleet.run(
            trace, faults=FaultSchedule(), runtime="live"
        ) == batch

    def test_outage_parks_then_flushes(self, model):
        # A 1-chip autoscaled fleet loses its only chip mid-trace under
        # dense traffic: queued entries re-dispatch into the parked
        # queue, later arrivals park directly, the chip_up flushes them
        # all, nothing is lost.
        trace = _trace(5, n=30, rate=30.0)
        horizon = max(request.arrival_s for request in trace)
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    time_s=horizon * 0.3, kind="chip_down", chip_id=0
                ),
                FaultEvent(
                    time_s=horizon * 0.6, kind="chip_up", chip_id=0
                ),
            )
        )
        config = AutoscalerConfig(
            target_p99_ttft_s=0.5,
            min_chips=1,
            max_chips=1,
            window=4,
            min_observations=2,
            cooldown_s=0.1,
        )
        fleet = FleetSimulator(model, autoscaler=config)
        batch = fleet.run(trace, faults=schedule)
        assert len(batch.records) == len(trace)
        live = fleet.run(trace, faults=schedule, runtime="live")
        assert live == batch

    def test_checkpoint_mid_outage_with_parked_arrivals(self, model):
        # Pause while arrivals sit parked (the only chip is down) — the
        # parked queue must survive serialization and restore.
        trace = _trace(5, n=30)
        horizon = max(request.arrival_s for request in trace)
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    time_s=horizon * 0.2, kind="chip_down", chip_id=0
                ),
                FaultEvent(
                    time_s=horizon * 0.8, kind="chip_up", chip_id=0
                ),
            )
        )
        config = AutoscalerConfig(
            target_p99_ttft_s=0.5,
            min_chips=1,
            max_chips=1,
            window=4,
            min_observations=2,
            cooldown_s=0.1,
        )
        fleet = FleetSimulator(model, autoscaler=config)
        batch = fleet.run(trace, faults=schedule)
        checkpoint = run_live(
            fleet, trace, faults=schedule, pause_after=15
        )
        assert checkpoint.kind == "fault_autoscale"
        resumed = run_live(fleet, trace, checkpoint=checkpoint, faults=schedule)
        assert resumed.result == batch

    def test_trailing_chip_up_drains_parked_arrivals(self, model):
        # The only chip dies mid-trace and only recovers *after* the
        # last arrival: finish_events must apply the trailing chip_up
        # and flush the parked queue instead of raising.
        trace = _trace(5, n=20, rate=30.0)
        horizon = max(request.arrival_s for request in trace)
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    time_s=horizon * 0.5, kind="chip_down", chip_id=0
                ),
                FaultEvent(
                    time_s=horizon * 1.5, kind="chip_up", chip_id=0
                ),
            )
        )
        config = AutoscalerConfig(
            target_p99_ttft_s=0.5, min_chips=1, max_chips=1
        )
        fleet = FleetSimulator(model, autoscaler=config)
        batch = fleet.run(trace, faults=schedule)
        assert len(batch.records) == len(trace)
        live = fleet.run(trace, faults=schedule, runtime="live")
        assert live == batch

    def test_dying_chip_requeues_onto_survivors(self, model):
        # Scale up during the burst, then kill chip 0 while it still has
        # queued entries: they re-dispatch onto the surviving active
        # chips instead of parking.
        trace = _burst_then_idle_trace()
        schedule = FaultSchedule(
            events=(
                FaultEvent(time_s=0.4, kind="chip_down", chip_id=0),
            )
        )
        fleet = FleetSimulator(model, autoscaler=self.CONFIG)
        batch = fleet.run(trace, faults=schedule)
        assert len(batch.records) == len(trace)
        live = fleet.run(trace, faults=schedule, runtime="live")
        assert live == batch

    def test_permanent_outage_raises_on_both_planes(self, model):
        trace = _trace(7, n=8)
        schedule = FaultSchedule(
            events=(
                FaultEvent(time_s=0.0, kind="chip_down", chip_id=0),
            )
        )
        config = AutoscalerConfig(
            target_p99_ttft_s=0.5, min_chips=1, max_chips=1
        )
        fleet = FleetSimulator(model, autoscaler=config)
        with pytest.raises(ValueError, match="never dispatched"):
            fleet.run(trace, faults=schedule)
        with pytest.raises(ValueError, match="never dispatched"):
            fleet.run(trace, faults=schedule, runtime="live")


class TestFaultFleetParkedCheckpoint:
    def test_checkpoint_during_total_outage(self, model):
        # Both chips down over a window; pause inside it so the static
        # fault controller checkpoints with a non-empty parked queue.
        trace = _trace(13, n=30)
        horizon = max(request.arrival_s for request in trace)
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    time_s=horizon * 0.2, kind="chip_down", chip_id=0
                ),
                FaultEvent(
                    time_s=horizon * 0.2, kind="chip_down", chip_id=1
                ),
                FaultEvent(
                    time_s=horizon * 0.8, kind="chip_up", chip_id=0
                ),
                FaultEvent(
                    time_s=horizon * 0.8, kind="chip_up", chip_id=1
                ),
            )
        )
        fleet = FleetSimulator(model, n_chips=2, policy="least_loaded")
        batch = fleet.run(trace, faults=schedule)
        checkpoint = run_live(
            fleet, trace, faults=schedule, pause_after=15
        )
        assert checkpoint.kind == "fault_fleet"
        resumed = run_live(fleet, trace, checkpoint=checkpoint, faults=schedule)
        assert resumed.result == batch

    def test_trailing_events_apply_after_the_last_arrival(self, model):
        # A chip_up scheduled past the final arrival reaches the static
        # fault controller through finish_events, not on_arrival.
        trace = _trace(13, n=20)
        horizon = max(request.arrival_s for request in trace)
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    time_s=horizon * 0.5, kind="chip_down", chip_id=0
                ),
                FaultEvent(
                    time_s=horizon * 1.5, kind="chip_up", chip_id=0
                ),
            )
        )
        fleet = FleetSimulator(model, n_chips=2, policy="least_loaded")
        batch = fleet.run(trace, faults=schedule)
        assert len(batch.records) == len(trace)
        live = fleet.run(trace, faults=schedule, runtime="live")
        assert live == batch
