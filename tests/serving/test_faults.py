"""Fault-injection unit and property tests.

Covers the schedule/event validation surface, the degraded-chip
construction, and the two properties the chaos harness leans on:

* **conservation** — across any valid fault schedule, no request is lost
  or duplicated: the merged records carry exactly the trace's ids, and
  every record was served by a chip that was alive at its service time;
* **recovery consistency** — the dent/time-to-recover metrics are a pure
  function of the raw records, re-derivable by a straight-line
  recomputation in this file.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import context_bucket_for
from repro.core.config import default_system, homo_mc_system
from repro.core.simulator import PerformanceSimulator
from repro.models.mllm import get_mllm
from repro.planner.space import ChipDesign
from repro.serving import (
    BurstyArrivals,
    ChipCosts,
    ContinuousBatchingSimulator,
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    build_trace,
    queue,
)
from repro.serving.metrics import percentile
from repro.serving.controllers import _degraded_chip, normalize_priorities
from repro.serving.faults import (
    RECOVERY_TOLERANCE,
    RECOVERY_WINDOW,
    FaultEvent,
    FaultSchedule,
    fault_recovery,
)
from repro.serving.runtime import Checkpoint, run_live

N_REQUESTS = 60
#: A pruned, compute-bound design (non-integer compute cycles).
PRUNED_SYSTEM = ChipDesign(
    n_groups=1, cc_per_group=1, mc_per_group=1, dram_gbps=204.8, keep_fraction=0.4
).system()


@pytest.fixture(scope="module")
def model():
    return get_mllm("sphinx-tiny")


@pytest.fixture(scope="module")
def trace(model):
    return build_trace(
        PoissonArrivals(6.0, seed=5).generate(N_REQUESTS),
        RequestSampler(
            seed=5, output_token_choices=(8, 16), output_token_weights=(0.6, 0.4)
        ).sample(N_REQUESTS),
    )


class TestEventValidation:
    def test_rejects_unknown_kind_and_bad_coordinates(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(time_s=1.0, kind="meteor_strike", chip_id=0)
        with pytest.raises(ValueError, match="time_s"):
            FaultEvent(time_s=-0.1, kind="chip_down", chip_id=0)
        with pytest.raises(ValueError, match="chip_id"):
            FaultEvent(time_s=1.0, kind="chip_down", chip_id=-1)

    def test_factor_only_applies_to_dram_degrade(self):
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(time_s=1.0, kind="chip_down", chip_id=0, factor=0.5)
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(time_s=1.0, kind="dram_degrade", chip_id=0, factor=0.0)
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(time_s=1.0, kind="dram_degrade", chip_id=0, factor=1.5)

    def test_round_trips_through_dict(self):
        event = FaultEvent(time_s=2.5, kind="dram_degrade", chip_id=1, factor=0.5)
        assert FaultEvent.from_dict(event.to_dict()) == event
        # chip_down omits the unused factor from its serialized form.
        down = FaultEvent(time_s=1.0, kind="chip_down", chip_id=0)
        assert "factor" not in down.to_dict()
        assert FaultEvent.from_dict(down.to_dict()) == down


class TestScheduleValidation:
    def test_rejects_bad_policy_and_unsorted_events(self):
        with pytest.raises(ValueError, match="drain_policy"):
            FaultSchedule(drain_policy="panic")
        with pytest.raises(ValueError, match="sorted"):
            FaultSchedule(
                events=(
                    FaultEvent(time_s=2.0, kind="chip_down", chip_id=0),
                    FaultEvent(time_s=1.0, kind="chip_up", chip_id=0),
                )
            )

    def test_rejects_inconsistent_alive_state(self):
        down = FaultEvent(time_s=1.0, kind="chip_down", chip_id=0)
        with pytest.raises(ValueError, match="down twice"):
            FaultSchedule(
                events=(down, FaultEvent(time_s=2.0, kind="chip_down", chip_id=0))
            )
        with pytest.raises(ValueError, match="without being down"):
            FaultSchedule(events=(FaultEvent(time_s=1.0, kind="chip_up", chip_id=0),))
        with pytest.raises(ValueError, match="degrade while down"):
            FaultSchedule(
                events=(
                    down,
                    FaultEvent(
                        time_s=2.0, kind="dram_degrade", chip_id=0, factor=0.5
                    ),
                )
            )

    def test_round_trips_through_dict(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent(time_s=1.0, kind="chip_down", chip_id=0),
                FaultEvent(
                    time_s=1.5, kind="dram_degrade", chip_id=1, factor=0.25
                ),
                FaultEvent(time_s=3.0, kind="chip_up", chip_id=0),
            ),
            drain_policy="abort",
        )
        assert FaultSchedule.from_dict(schedule.to_dict()) == schedule

    def test_targets_must_fit_the_fleet(self, model, trace):
        fleet = FleetSimulator(model, n_chips=2, policy="round_robin")
        schedule = FaultSchedule(
            events=(FaultEvent(time_s=1.0, kind="chip_down", chip_id=5),)
        )
        with pytest.raises(ValueError, match="chip"):
            fleet.run(list(trace), faults=schedule)


class TestDegradedChip:
    def test_scales_dram_and_prices_the_healthy_stream_pairs(self, model, trace):
        fleet = FleetSimulator(model, n_chips=1)
        fleet.precompute_service_times(trace)
        base = fleet.chips[0]
        degraded = _degraded_chip(base, 0.5, trace)
        healthy_bw = base.simulator.system.chip.dram.peak_bandwidth_bytes_per_s
        degraded_bw = degraded.simulator.system.chip.dram.peak_bandwidth_bytes_per_s
        assert degraded_bw == pytest.approx(healthy_bw * 0.5)
        # Decode stream pairs carry no bandwidth term: the degraded tier
        # prices exactly the healthy chip's.
        assert degraded.cost_model._stream_cost == base.cost_model._stream_cost
        assert degraded.cost_model._weight_bytes == base.cost_model._weight_bytes

    @pytest.mark.parametrize(
        "system", [default_system(), PRUNED_SYSTEM], ids=["default", "pruned"]
    )
    def test_stream_pairs_equal_lazy_ones_at_the_degraded_tier(self, model, system):
        n = 30
        long_trace = build_trace(
            PoissonArrivals(6.0, seed=7).generate(n),
            RequestSampler(
                seed=7,
                output_token_choices=(40, 90, 160),
                output_token_weights=(0.4, 0.4, 0.2),
            ).sample(n),
        )
        fleet = FleetSimulator(model, n_chips=1, simulator=PerformanceSimulator(system))
        fleet.precompute_service_times(long_trace)
        degraded = _degraded_chip(fleet.chips[0], 0.5, long_trace).cost_model
        lazy = ContinuousBatchingSimulator(
            PerformanceSimulator(degraded.simulator.system), model
        ).cost_model
        buckets = set()
        for item in long_trace:
            prompt = model.prompt_tokens(item.request)
            buckets.update(
                context_bucket_for(context, 32)
                for context in range(prompt, prompt + item.request.output_tokens)
            )
        assert len(buckets) > 3
        for bucket in sorted(buckets):
            # Read the covered pair directly: a missing one raises.
            assert degraded._stream_cost[bucket] == lazy.stream_cost(bucket), bucket
        assert degraded._weight_bytes == lazy._weight_bytes

    def test_factor_one_is_the_chip_itself(self, model, trace):
        base = FleetSimulator(model, n_chips=1).chips[0]
        assert _degraded_chip(base, 1.0, trace) is base

    @pytest.mark.parametrize(
        "system",
        [default_system(), homo_mc_system(), PRUNED_SYSTEM],
        ids=["default", "homo_mc", "pruned"],
    )
    def test_seeded_cc_latencies_equal_lazy_ones(self, model, trace, system):
        fleet = FleetSimulator(model, n_chips=1, simulator=PerformanceSimulator(system))
        fleet.precompute_service_times(trace)
        base = fleet.chips[0]
        degraded = _degraded_chip(base, 0.5, trace)
        lazy = ContinuousBatchingSimulator(
            PerformanceSimulator(degraded.simulator.system),
            model,
            cc_bandwidth_fraction=base.cc_bandwidth_fraction,
        ).cost_model
        seeded = degraded.cost_model.shapes
        healthy = base.cost_model.shapes
        assert seeded.keys() == healthy.keys()
        for request in trace:
            shape = (request.request.images, request.request.prompt_text_tokens)
            assert seeded[shape] == lazy.shape(*shape)
            assert seeded[shape][0] != healthy[shape][0]

    def test_degraded_eras_price_no_cc_stage_lazily(self, model, trace, monkeypatch):
        # Healthy chips and degraded ones cover the trace in a grid pass
        # of their own, so a DRAM degrade, cut live or restored from a
        # checkpoint, never reaches the scalar CC-stage or bucket pricer.
        horizon = trace[-1].arrival_s
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    time_s=0.3 * horizon, kind="dram_degrade", chip_id=1, factor=0.5
                ),
                FaultEvent(
                    time_s=0.6 * horizon, kind="dram_degrade", chip_id=0, factor=0.25
                ),
            )
        )

        def fleet():
            return FleetSimulator(model, n_chips=2, policy="least_loaded")

        expected = fleet().run(list(trace), faults=schedule)
        paused = run_live(fleet(), list(trace), faults=schedule, pause_after=50)
        assert isinstance(paused, Checkpoint)

        def scalar_cc_stage(*args, **kwargs):
            raise AssertionError("a CC-stage latency was priced lazily")

        def scalar_bucket(self, bucket):
            raise AssertionError(f"bucket {bucket} was priced lazily")

        monkeypatch.setattr(queue, "cc_stage_latency", scalar_cc_stage)
        monkeypatch.setattr(ChipCosts, "_cost", scalar_bucket)
        assert fleet().run(list(trace), faults=schedule) == expected
        resumed = run_live(fleet(), list(trace), checkpoint=paused, faults=schedule)
        assert resumed.result == expected

    def test_degraded_era_job_carries_its_replacement_sim(self, model, trace):
        # The job closing a DRAM-degraded era runs on the era's own
        # replacement chip, not the fleet chip, and executing every
        # closing job inline is exactly the fleet's run.
        span = trace[-1].arrival_s
        schedule = FaultSchedule(
            events=(
                FaultEvent(time_s=0.3 * span, kind="chip_down", chip_id=0),
                FaultEvent(
                    time_s=0.4 * span, kind="dram_degrade", chip_id=1, factor=0.5
                ),
                FaultEvent(time_s=0.6 * span, kind="chip_up", chip_id=0),
            )
        )

        def fleet():
            return FleetSimulator(
                model, n_chips=3, policy="least_loaded", max_batch_size=8
            )

        degraded = fleet()
        controller = degraded._dispatched(list(trace), faults=schedule)
        controller.finish_events()
        jobs = controller.final_jobs()
        replaced = [
            job for job in jobs if job.sim is not degraded.chips[job.chip_id]
        ]
        assert [job.chip_id for job in replaced] == [1]
        dram = replaced[0].sim.simulator.system.chip.dram
        healthy = degraded.chips[1].simulator.system.chip.dram
        assert dram.peak_bandwidth_bytes_per_s == pytest.approx(
            0.5 * healthy.peak_bandwidth_bytes_per_s
        )
        inline = controller.collect({job.chip_id: job.run() for job in jobs})
        assert inline == fleet().run(list(trace), faults=schedule)


class TestNormalizePriorities:
    def test_uniform_priorities_normalize_to_exactly_one(self):
        assert normalize_priorities((3.0, 3.0, 3.0), 3) == [1.0, 1.0, 1.0]
        assert normalize_priorities(None, 3) is None

    def test_weights_scale_against_the_maximum(self):
        assert normalize_priorities((1.0, 2.0, 4.0), 3) == [0.25, 0.5, 1.0]

    def test_validates_length_and_positivity(self):
        with pytest.raises(ValueError, match="entries"):
            normalize_priorities((1.0,), 2)
        with pytest.raises(ValueError, match="positive"):
            normalize_priorities((1.0, 0.0), 2)


def _random_schedule(rng, *, n_chips, span):
    """A valid random schedule: one outage plus one degrade."""
    victim, slowpoke = rng.sample(range(n_chips), 2)
    down = round(rng.uniform(0.2, 0.6) * span, 6)
    up = round(down + rng.uniform(0.1, 0.4) * span, 6)
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


def _down_intervals(schedule, chip_id):
    """[start, end) outage windows of ``chip_id`` (open-ended if final)."""
    intervals, start = [], None
    for event in schedule.events:
        if event.chip_id != chip_id:
            continue
        if event.kind == "chip_down":
            start = event.time_s
        elif event.kind == "chip_up" and start is not None:
            intervals.append((start, event.time_s))
            start = None
    if start is not None:
        intervals.append((start, float("inf")))
    return intervals


class TestConservation:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_no_request_lost_or_duplicated(self, model, trace, seed):
        import random

        rng = random.Random(seed)
        schedule = _random_schedule(rng, n_chips=3, span=trace[-1].arrival_s)
        policy = rng.choice(("round_robin", "least_loaded"))
        fleet = FleetSimulator(model, n_chips=3, policy=policy, max_batch_size=8)
        result = fleet.run(list(trace), faults=schedule)
        assert sorted(r.request_id for r in result.records) == list(
            range(len(trace))
        )
        assert len(result.assignments) == len(trace)
        assert sum(result.requests_per_chip) == len(trace)
        # Re-dispatched and aborted requests still ended in the records.
        served = {r.request_id for r in result.records}
        assert set(result.redispatched_ids) <= served
        assert set(result.aborted_ids) <= served
        if schedule.drain_policy == "drain":
            assert result.aborted_ids == ()

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_every_record_served_by_a_living_chip(self, model, trace, seed):
        import random

        rng = random.Random(seed)
        schedule = _random_schedule(rng, n_chips=3, span=trace[-1].arrival_s)
        fleet = FleetSimulator(
            model, n_chips=3, policy="least_loaded", max_batch_size=8
        )
        result = fleet.run(list(trace), faults=schedule)
        chip_of = dict(zip((r.request_id for r in trace), result.assignments))
        for record in result.records:
            outages = _down_intervals(schedule, chip_of[record.request_id])
            for start, end in outages:
                # Prefill never *starts* inside an outage of its chip;
                # under "drain" in-flight work may finish past `start`.
                assert not (start <= record.prefill_start_s < end), (
                    record.request_id,
                    record.prefill_start_s,
                    (start, end),
                )


class TestRecoveryMetrics:
    def test_metrics_rederive_from_the_raw_records(self, model):
        trace = build_trace(
            BurstyArrivals(5.0, burst_multiplier=4.0, seed=9).generate(120),
            RequestSampler(seed=9).sample(120),
        )
        span = trace[-1].arrival_s
        down = FaultEvent(time_s=round(0.3 * span, 6), kind="chip_down", chip_id=0)
        up = FaultEvent(time_s=round(0.5 * span, 6), kind="chip_up", chip_id=0)
        schedule = FaultSchedule(events=(down, up))
        fleet = FleetSimulator(
            model, n_chips=2, policy="least_loaded", max_batch_size=8
        )
        result = fleet.run(list(trace), faults=schedule)
        (metrics,) = fault_recovery(result.records, schedule.events)
        assert metrics.event == down  # chip_up is restorative, not measured

        ordered = sorted(result.records, key=lambda r: (r.arrival_s, r.request_id))
        pre = [r.ttft_s for r in ordered if r.arrival_s < down.time_s]
        post = [r for r in ordered if r.arrival_s >= down.time_s]
        baseline = percentile(pre, 99)
        assert metrics.baseline_p99_ttft_s == baseline
        dent, recover = 0.0, None
        for start in range(0, len(post), RECOVERY_WINDOW):
            chunk = post[start : start + RECOVERY_WINDOW]
            p99 = percentile([r.ttft_s for r in chunk], 99)
            dent = max(dent, p99 - baseline)
            if recover is None and p99 <= baseline * RECOVERY_TOLERANCE:
                recover = chunk[-1].arrival_s - down.time_s
        assert metrics.dent_depth_s == dent
        assert metrics.time_to_recover_s == recover

    def test_faultless_records_measure_no_dent(self, model, trace):
        fleet = FleetSimulator(model, n_chips=2, max_batch_size=8)
        result = fleet.run(list(trace))
        event = FaultEvent(
            time_s=trace[-1].arrival_s + 1.0, kind="chip_down", chip_id=0
        )
        (metrics,) = fault_recovery(result.records, (event,))
        assert metrics.dent_depth_s == 0.0
        assert metrics.time_to_recover_s is None  # nothing arrived after it


class TestTotalOutage:
    def test_parked_requests_flush_when_a_chip_returns(self, model, trace):
        span = trace[-1].arrival_s
        events = (
            FaultEvent(time_s=round(0.2 * span, 6), kind="chip_down", chip_id=0),
            FaultEvent(time_s=round(0.25 * span, 6), kind="chip_down", chip_id=1),
            FaultEvent(time_s=round(0.6 * span, 6), kind="chip_up", chip_id=0),
            FaultEvent(time_s=round(0.7 * span, 6), kind="chip_up", chip_id=1),
        )
        fleet = FleetSimulator(model, n_chips=2, max_batch_size=8)
        result = fleet.run(list(trace), faults=FaultSchedule(events))
        assert sorted(r.request_id for r in result.records) == list(
            range(len(trace))
        )
        # Requests arriving during the blackout waited for the chip_up.
        up = events[2].time_s
        blackout = [
            r
            for r in result.records
            if events[1].time_s <= r.arrival_s < up
        ]
        assert blackout
        assert all(r.prefill_start_s >= up for r in blackout)

    def test_unserved_requests_raise_instead_of_vanishing(self, model, trace):
        span = trace[-1].arrival_s
        events = (
            FaultEvent(time_s=round(0.2 * span, 6), kind="chip_down", chip_id=0),
            FaultEvent(time_s=round(0.3 * span, 6), kind="chip_down", chip_id=1),
        )
        fleet = FleetSimulator(model, n_chips=2, max_batch_size=8)
        with pytest.raises(ValueError, match="never dispatched"):
            fleet.run(list(trace), faults=FaultSchedule(events))

    def test_empty_trace_is_rejected(self, model):
        fleet = FleetSimulator(model, n_chips=2)
        with pytest.raises(ValueError, match="empty"):
            fleet.run([], faults=FaultSchedule())

    def test_recovery_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            fault_recovery((), (), window=0)


class TestAutoscaleUnderFaults:
    def _config(self, **overrides):
        from repro.serving import AutoscalerSpec

        defaults = dict(
            target_p99_ttft_s=1.0,
            min_chips=1,
            max_chips=3,
            window=16,
            min_observations=4,
            cooldown_s=0.5,
            max_queue_depth=8,
        )
        defaults.update(overrides)
        return AutoscalerSpec(**defaults)

    def _schedule(self, span):
        return FaultSchedule(
            events=(
                FaultEvent(
                    time_s=round(0.4 * span, 6), kind="chip_down", chip_id=0
                ),
                FaultEvent(
                    time_s=round(0.6 * span, 6), kind="chip_up", chip_id=0
                ),
            )
        )

    def test_scaling_continues_through_the_outage(self, model):
        from repro.serving import BurstyArrivals

        trace = build_trace(
            BurstyArrivals(6.0, burst_multiplier=6.0, seed=13).generate(150),
            RequestSampler(seed=13).sample(150),
        )
        fleet = FleetSimulator(
            model, autoscaler=self._config(), max_batch_size=8
        )
        result = fleet.run(trace, faults=self._schedule(trace[-1].arrival_s))
        assert result.n_scale_ups >= 1
        assert len(result.records) + len(result.rejected_ids) == len(trace)

    def test_reject_admission_sheds_load_during_the_outage(self, model):
        from repro.serving import BurstyArrivals

        trace = build_trace(
            BurstyArrivals(8.0, burst_multiplier=6.0, seed=13).generate(150),
            RequestSampler(seed=13).sample(150),
        )
        fleet = FleetSimulator(
            model,
            autoscaler=self._config(
                max_chips=2, max_queue_depth=2, admission="reject"
            ),
            max_batch_size=8,
        )
        result = fleet.run(trace, faults=self._schedule(trace[-1].arrival_s))
        assert result.rejected_ids
        served = {r.request_id for r in result.records}
        assert served.isdisjoint(result.rejected_ids)
        assert len(served) + len(result.rejected_ids) == len(trace)
