"""SLO-aware autoscaling fleet: control behaviour and the SLO guarantee.

The headline regression (`TestHoldsSLO`) is the PR's acceptance criterion:
on a bursty trace whose p99 TTFT a static single-chip fleet misses by a
wide margin, the autoscaler — starting from that same single chip — grows
the fleet against its rolling-percentile signal and *holds* the objective.
"""

import pytest

from repro.models.mllm import get_mllm
from repro.serving import (
    AutoscalerConfig,
    BurstyArrivals,
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    build_trace,
)

TARGET_P99_TTFT_S = 5.0


def bursty_trace(n=300, *, seed=7):
    arrivals = BurstyArrivals(3.0, burst_multiplier=6.0, seed=seed)
    return build_trace(
        arrivals.generate(n), RequestSampler(seed=seed).sample(n)
    )


def reactive_config(**overrides):
    defaults = dict(
        target_p99_ttft_s=TARGET_P99_TTFT_S,
        min_chips=1,
        max_chips=4,
        window=32,
        min_observations=8,
        cooldown_s=0.5,
        scale_up_ratio=0.5,
    )
    defaults.update(overrides)
    return AutoscalerConfig(**defaults)


class TestConfigValidation:
    def test_rejects_bad_bounds_and_policies(self):
        with pytest.raises(ValueError, match="target_p99_ttft_s"):
            AutoscalerConfig(target_p99_ttft_s=0.0)
        with pytest.raises(ValueError, match="max_chips"):
            AutoscalerConfig(target_p99_ttft_s=1.0, min_chips=3, max_chips=2)
        with pytest.raises(ValueError, match="admission"):
            AutoscalerConfig(target_p99_ttft_s=1.0, admission="never")
        with pytest.raises(ValueError, match="scale_down_ratio"):
            AutoscalerConfig(
                target_p99_ttft_s=1.0, scale_up_ratio=0.5, scale_down_ratio=0.5
            )


class TestAutoscaledFleetArguments:
    @pytest.mark.parametrize(
        "argument, value", [("n_chips", 4), ("policy", "least_loaded")]
    )
    def test_sizing_argument_beside_autoscaler_is_rejected(
        self, sphinx_tiny, argument, value
    ):
        with pytest.raises(ValueError, match=rf"^{argument} cannot be set"):
            FleetSimulator(
                sphinx_tiny, autoscaler=reactive_config(), **{argument: value}
            )

    def test_static_fleet_defaults(self, sphinx_tiny):
        fleet = FleetSimulator(sphinx_tiny)
        assert (fleet.n_chips, fleet.policy, fleet.autoscaler) == (
            2,
            "round_robin",
            None,
        )

    def test_former_constructor_name_builds_the_same_fleet(self, sphinx_tiny):
        # e2ebench's traced mode imports this name; it must stay a plain
        # function (no ``run`` of its own) returning a FleetSimulator.
        from repro.serving.autoscale import AutoscalingFleetSimulator

        config = reactive_config()
        fleet = AutoscalingFleetSimulator(
            sphinx_tiny, autoscaler=config, max_batch_size=4
        )
        assert type(fleet) is FleetSimulator
        assert fleet.autoscaler is config
        assert fleet.chips[0].max_batch_size == 4
        assert not hasattr(AutoscalingFleetSimulator, "run")


class TestHoldsSLO:
    """Acceptance: the autoscaler holds an SLO the static fleet misses."""

    def test_static_single_chip_misses_autoscaler_holds(self, sphinx_tiny):
        trace = bursty_trace()
        static_p99 = (
            FleetSimulator(sphinx_tiny, n_chips=1, max_batch_size=8)
            .run(trace)
            .report.ttft.p99
        )
        assert static_p99 > TARGET_P99_TTFT_S  # the static fleet misses

        fleet = FleetSimulator(
            sphinx_tiny, autoscaler=reactive_config(), max_batch_size=8
        )
        result = fleet.run(trace)
        assert result.report.ttft.p99 <= TARGET_P99_TTFT_S  # the SLO holds
        assert result.peak_chips > 1  # because the fleet actually grew
        assert result.n_rejected == 0  # by scaling, not by shedding load
        assert result.report.n_requests == len(trace)

    def test_scaling_events_are_well_formed(self, sphinx_tiny):
        result = FleetSimulator(
            sphinx_tiny, autoscaler=reactive_config(), max_batch_size=8
        ).run(bursty_trace())
        assert result.n_scale_ups >= 1
        config = reactive_config()
        previous_time = float("-inf")
        for event in result.events:
            assert abs(event.n_chips_after - event.n_chips_before) == 1
            assert config.min_chips <= event.n_chips_after <= config.max_chips
            assert event.time_s - previous_time >= config.cooldown_s
            previous_time = event.time_s

    def test_runs_are_deterministic(self, sphinx_tiny):
        trace = bursty_trace(120)
        first = FleetSimulator(
            sphinx_tiny, autoscaler=reactive_config(), max_batch_size=8
        ).run(trace)
        second = FleetSimulator(
            sphinx_tiny, autoscaler=reactive_config(), max_batch_size=8
        ).run(trace)
        assert first.records == second.records
        assert first.events == second.events
        assert first.assignments == second.assignments


class TestBounds:
    def test_never_exceeds_max_chips_nor_drops_below_min(self, sphinx_tiny):
        config = reactive_config(min_chips=2, max_chips=3)
        result = FleetSimulator(
            sphinx_tiny, autoscaler=config, max_batch_size=8
        ).run(bursty_trace(150))
        used = {chip for chip in result.assignments if chip >= 0}
        assert used <= set(range(config.max_chips))
        assert result.final_chips >= config.min_chips
        assert result.peak_chips <= config.max_chips

    def test_calm_traffic_never_scales(self, sphinx_tiny):
        trace = build_trace(
            PoissonArrivals(0.2, seed=3).generate(30),
            RequestSampler(seed=3).sample(30),
        )
        result = FleetSimulator(
            sphinx_tiny,
            autoscaler=reactive_config(target_p99_ttft_s=60.0, min_chips=1),
            max_batch_size=8,
        ).run(trace)
        assert result.events == ()
        assert result.final_chips == 1
        # All work lands on the one active chip.
        assert set(result.assignments) == {0}


class TestAdmissionControl:
    def overload_trace(self, n=120):
        # 20 rps of mixed requests against a single chip: far beyond
        # capacity, so the estimated in-flight depth climbs immediately.
        arrivals = PoissonArrivals(20.0, seed=11)
        return build_trace(
            arrivals.generate(n), RequestSampler(seed=11).sample(n)
        )

    def test_reject_policy_sheds_load_beyond_depth(self, sphinx_tiny):
        config = reactive_config(
            min_chips=1, max_chips=1, max_queue_depth=8, admission="reject"
        )
        result = FleetSimulator(
            sphinx_tiny, autoscaler=config, max_batch_size=8
        ).run(self.overload_trace())
        assert result.n_rejected > 0
        assert 0.0 < result.rejection_rate < 1.0
        assert len(result.records) + result.n_rejected == 120
        for request_id in result.rejected_ids:
            assert result.assignments[request_id] == -1

    def test_queue_policy_admits_everything_but_delays(self, sphinx_tiny):
        config = reactive_config(
            min_chips=1, max_chips=1, max_queue_depth=8, admission="queue"
        )
        trace = self.overload_trace()
        result = FleetSimulator(
            sphinx_tiny, autoscaler=config, max_batch_size=8
        ).run(trace)
        assert result.n_rejected == 0
        assert result.report.n_requests == len(trace)
        # Records keep the *true* arrival time: the admission delay shows
        # up as queue wait, not as a falsified arrival.
        by_id = {record.request_id: record for record in result.records}
        for request in trace:
            assert by_id[request.request_id].arrival_s == request.arrival_s

    def test_duplicate_request_ids_dispatch_positionally(self, sphinx_tiny):
        # The parent FleetSimulator documents positional dispatch for
        # traces carrying duplicate caller-supplied ids; the autoscaler
        # must honour the same contract (records map back by position).
        from repro.models.mllm import InferenceRequest
        from repro.serving.queue import ServingRequest

        shape = InferenceRequest(images=0, prompt_text_tokens=16, output_tokens=4)
        trace = [
            ServingRequest(request_id=5, arrival_s=0.0, request=shape),
            ServingRequest(request_id=5, arrival_s=10.0, request=shape),
        ]
        result = FleetSimulator(
            sphinx_tiny, autoscaler=reactive_config(), max_batch_size=8
        ).run(trace)
        assert len(result.records) == 2
        assert sorted(r.arrival_s for r in result.records) == [0.0, 10.0]
        assert all(r.request_id == 5 for r in result.records)

    def test_unbounded_depth_matches_least_loaded_fleet(self, sphinx_tiny):
        # With scaling pinned (min == max) and a depth no trace reaches,
        # the controller reduces to the static least-loaded dispatcher.
        trace = bursty_trace(80)
        static = FleetSimulator(
            sphinx_tiny, n_chips=2, policy="least_loaded", max_batch_size=8
        ).run(trace)
        auto = FleetSimulator(
            sphinx_tiny,
            autoscaler=reactive_config(
                min_chips=2, max_chips=2, max_queue_depth=10**6
            ),
            max_batch_size=8,
        ).run(trace)
        assert auto.records == static.records
        assert auto.assignments == static.assignments
