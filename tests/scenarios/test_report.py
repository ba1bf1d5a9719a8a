"""ScenarioReport rendering and summary structures."""

from dataclasses import fields

from repro.planner.evaluate import CandidateOutcome
from repro.scenarios import (
    ArrivalSpec,
    AutoscalerSpec,
    FleetSpec,
    ScenarioSpec,
    SLOSpec,
    TEXT_CHAT,
    format_scenario_report,
    get_scenario,
    attained_slo,
    run_scenario,
    slo_checks,
)
from repro.serving.metrics import PercentileStats, empty_report


def tiny_spec(**overrides):
    base = dict(
        name="report-test",
        n_requests=10,
        mix=(TEXT_CHAT,),
        arrival=ArrivalSpec(kind="poisson", rate_rps=4.0),
        fleet=FleetSpec(n_chips=1),
        slo=SLOSpec(),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestFormat:
    def test_no_slo_scenario_says_so(self):
        text = format_scenario_report(run_scenario(tiny_spec()))
        assert "none stated" in text
        assert "autoscaler" not in text

    def test_autoscaled_report_includes_controller_line(self):
        spec = tiny_spec(
            name="report-auto",
            fleet=FleetSpec(
                autoscaler=AutoscalerSpec(min_chips=1, max_chips=2)
            ),
            slo=SLOSpec(ttft_p99_s=10.0),
        )
        report = run_scenario(spec)
        assert report.autoscale is not None
        text = format_scenario_report(report)
        assert "autoscaler" in text
        assert "peak" in text

    def test_miss_verdict_renders(self):
        spec = tiny_spec(
            name="report-miss", slo=SLOSpec(ttft_p99_s=1e-6)
        )
        report = run_scenario(spec)
        assert not report.slo_met
        assert "SLO MISS" in format_scenario_report(report)

    def test_partial_completion_shows_fraction(self):
        # An overloaded reject-admission scenario completes fewer requests
        # than it received; the report shows completed/offered.
        spec = tiny_spec(
            name="report-reject",
            n_requests=40,
            arrival=ArrivalSpec(kind="poisson", rate_rps=50.0),
            fleet=FleetSpec(
                autoscaler=AutoscalerSpec(
                    min_chips=1,
                    max_chips=1,
                    max_queue_depth=2,
                    admission="reject",
                )
            ),
            slo=SLOSpec(ttft_p99_s=10.0),
        )
        report = run_scenario(spec)
        assert report.n_completed < report.n_requests
        assert f"{report.n_completed}/{report.n_requests}" in (
            format_scenario_report(report)
        )


class TestStructure:
    def test_slo_checks_are_metric_sorted(self):
        report = run_scenario(get_scenario("chat-poisson")).to_dict()
        metrics = [check["metric"] for check in report["slo"]]
        assert metrics == sorted(metrics)

    def test_slo_checks_helper_reads_the_right_percentiles(self):
        serving = run_scenario(tiny_spec())
        stats = PercentileStats(p50=0.1, p95=0.2, p99=0.3, mean=0.15, max=0.4)

        class FakeReport:
            latency = stats
            ttft = stats
            queue_wait = stats

        checks = slo_checks(
            {"ttft_p99_s": 1.0, "latency_p95_s": 0.1}, FakeReport()
        )
        by_metric = {check.metric: check for check in checks}
        assert by_metric["ttft_p99_s"].attained_s == 0.3
        assert by_metric["ttft_p99_s"].met
        assert by_metric["latency_p95_s"].attained_s == 0.2
        assert not by_metric["latency_p95_s"].met
        assert serving.slo == ()  # no objectives stated -> vacuously met
        assert serving.slo_met

    def test_every_slo_objective_is_mapped_to_a_percentile(self):
        # A new SLOSpec objective fails here until attained_slo maps it,
        # and a plan outcome needs a field to carry its attained value.
        objectives = {field.name for field in fields(SLOSpec)}
        assert set(attained_slo(empty_report())) == objectives
        assert objectives <= {field.name for field in fields(CandidateOutcome)}

    def test_with_fleet_rebases_topology_only(self):
        spec = tiny_spec()
        moved = spec.with_fleet(FleetSpec(n_chips=3))
        assert moved.fleet.n_chips == 3
        assert moved.mix == spec.mix
        assert moved.spec_hash() != spec.spec_hash()
