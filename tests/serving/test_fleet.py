"""Fleet-simulation tests: dispatch policies, merged reporting, one result type."""

import pytest

from repro.models.mllm import get_mllm
from repro.serving import (
    RUNTIMES,
    AutoscalerConfig,
    ContinuousBatchingSimulator,
    FaultEvent,
    FaultSchedule,
    FleetResult,
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    ServingRequest,
    build_trace,
)

N_REQUESTS = 48


@pytest.fixture(scope="module")
def model():
    return get_mllm("sphinx-tiny")


@pytest.fixture(scope="module")
def trace(model):
    return build_trace(
        PoissonArrivals(6.0, seed=2).generate(N_REQUESTS),
        RequestSampler(
            seed=2, output_token_choices=(8, 16), output_token_weights=(0.6, 0.4)
        ).sample(N_REQUESTS),
    )


class TestDispatch:
    def test_round_robin_cycles_chips(self, model, trace):
        fleet = FleetSimulator(model, n_chips=3, policy="round_robin")
        assignments = fleet.run(trace).assignments
        expected = tuple(index % 3 for index in range(len(trace)))
        assert assignments == expected

    def test_least_loaded_uses_every_chip(self, model, trace):
        fleet = FleetSimulator(model, n_chips=4, policy="least_loaded")
        assignments = fleet.run(trace).assignments
        assert set(assignments) == {0, 1, 2, 3}

    def test_duplicate_request_ids_still_dispatch_everywhere(self, model, trace):
        duplicated = [
            ServingRequest(request_id=0, arrival_s=r.arrival_s, request=r.request)
            for r in trace[:4]
        ]
        fleet = FleetSimulator(model, n_chips=2, policy="round_robin")
        assignments = fleet.run(duplicated).assignments
        assert sorted(assignments) == [0, 0, 1, 1]

    def test_rejects_unknown_policy(self, model):
        with pytest.raises(ValueError):
            FleetSimulator(model, policy="random")
        with pytest.raises(ValueError):
            FleetSimulator(model, n_chips=0)


class TestFleetRun:
    def test_every_request_served_once(self, model, trace):
        fleet = FleetSimulator(model, n_chips=3, policy="round_robin")
        result = fleet.run(trace)
        assert len(result.records) == len(trace)
        assert sorted(r.request_id for r in result.records) == list(
            range(len(trace))
        )
        assert sum(result.requests_per_chip) == len(trace)

    def test_fleet_reduces_latency_under_load(self, model, trace):
        single = ContinuousBatchingSimulator(model=model, max_batch_size=8).run(trace)
        fleet = FleetSimulator(
            model, n_chips=4, policy="least_loaded", max_batch_size=8
        ).run(trace)
        assert fleet.report.latency.mean < single.report.latency.mean
        assert fleet.report.ttft.p95 < single.report.ttft.p95

    def test_idle_chip_reports_do_not_crash(self, model, trace):
        # More chips than requests in the first arrivals: with only two
        # requests, chips 2 and 3 of a round-robin fleet stay idle.
        fleet = FleetSimulator(model, n_chips=4, policy="round_robin")
        result = fleet.run(trace[:2])
        reports = [chip_result.report for chip_result in result.per_chip]
        assert [report.n_requests for report in reports] == [1, 1, 0, 0]
        assert reports[2].tokens_per_second == 0.0
        assert reports[2].latency.p99 == 0.0

    @pytest.mark.parametrize(
        "priorities, match",
        [
            ([1.0] * (N_REQUESTS - 1), "entries"),
            ([1.0] * (N_REQUESTS - 1) + [0.0], "positive"),
            ([-1.0] * N_REQUESTS, "positive"),
        ],
        ids=["short", "zero", "negative"],
    )
    def test_priorities_are_validated_without_faults(
        self, model, trace, priorities, match
    ):
        # A static fleet's admission ignores priorities, but a malformed
        # list is still an error, not silently dropped.
        fleet = FleetSimulator(model, n_chips=2)
        with pytest.raises(ValueError, match=match):
            fleet.run(trace, priorities=priorities)

    def test_single_chip_fleet_matches_direct_simulation(self, model, trace):
        direct = ContinuousBatchingSimulator(model=model, max_batch_size=8).run(trace)
        fleet = FleetSimulator(
            model, n_chips=1, policy="round_robin", max_batch_size=8
        ).run(trace)
        assert fleet.records == direct.records


class TestEstimateMemo:
    def test_memoized_estimates_keep_assignments_trace_identical(
        self, model, trace
    ):
        # A fleet whose estimate memo is disabled (every probe recomputed)
        # must dispatch exactly like the memoized fleet.
        memoized = FleetSimulator(model, n_chips=3, policy="least_loaded")
        uncached = FleetSimulator(model, n_chips=3, policy="least_loaded")
        # Every chip of a fleet reads the fleet's one ChipCosts memo, so
        # one override disables it for all three.
        for fleet in (memoized, uncached):
            shared = fleet.chips[0].cost_model
            assert all(chip.cost_model is shared for chip in fleet.chips)
        chip = uncached.chips[0]

        def dispatch_terms(request):
            prefill = chip.cc_latency_s(request)
            context = uncached.model.prompt_tokens(request)
            per_token = chip.cost_model.step_latency_s([context])
            return prefill + per_token * request.output_tokens, prefill, per_token

        chip.cost_model.dispatch_terms = dispatch_terms
        assert memoized.run(trace).assignments == uncached.run(trace).assignments
        # The memo actually engaged, and only with shape keys: one entry
        # per request shape at most, however many chips read it.
        shapes = {
            (r.request.images, r.request.prompt_text_tokens,
             r.request.output_tokens)
            for r in trace
        }
        memo = memoized.chips[0].cost_model.dispatch
        assert 0 < len(memo) <= len(shapes)
        assert all(key in shapes for key in memo)

    def test_cached_estimate_equals_fresh_computation(self, model, trace):
        fleet = FleetSimulator(model, n_chips=2, policy="least_loaded")
        fleet.run(trace)
        chip = fleet.chips[0]
        for request in {r.request for r in trace}:
            cached = chip.cost_model.dispatch_terms(request)[0]
            fresh = (
                chip.cc_latency_s(request)
                + chip.cost_model.step_latency_s(
                    [model.prompt_tokens(request)]
                )
                * request.output_tokens
            )
            assert cached == fresh


class TestOneResult:
    @pytest.mark.parametrize(
        "policy, fault",
        [("round_robin", False), ("least_loaded", False), ("least_loaded", True)],
        ids=["round_robin", "least_loaded", "faulted"],
    )
    def test_a_static_fleet_reports_no_autoscaler_activity(
        self, model, trace, policy, fault
    ):
        schedule = None
        if fault:
            span = max(request.arrival_s for request in trace)
            schedule = FaultSchedule(
                events=(FaultEvent(time_s=0.25 * span, kind="chip_down", chip_id=0),)
            )
        result = FleetSimulator(model, n_chips=3, policy=policy).run(
            trace, faults=schedule
        )
        assert result.fault_events == (schedule.events if fault else ())
        assert result.events == ()
        assert result.rejected_ids == ()
        assert result.final_chips == result.peak_chips == 3
        assert result.rejection_rate == 0.0

    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize("kind", ["static", "autoscaled"])
    def test_every_fleet_kind_returns_a_fleet_result(
        self, model, trace, kind, runtime
    ):
        sizing = (
            {"n_chips": 2}
            if kind == "static"
            else {"autoscaler": AutoscalerConfig(target_p99_ttft_s=1.0, max_chips=3)}
        )
        result = FleetSimulator(model, **sizing).run(trace, runtime=runtime)
        assert type(result) is FleetResult
