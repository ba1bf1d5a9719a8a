"""Fault and tenant scenarios: acceptance, determinism and reporting.

``chat-chipfail`` is the PR's acceptance scenario: a two-chip fleet
loses one chip mid-trace and gets it back, and the committed golden
report pins the measured p99-TTFT dent *and* a finite time-to-recover —
identically across every engine.  ``tenant-tiers``
exercises weighted admission: the premium tenant holds its SLO while the
free tier absorbs the queueing, all in one report.

Fault schedules are lowered from the spec hash alone, so the same spec
draws the same events in any process — asserted across interpreter
``PYTHONHASHSEED`` values the same way the arrival seeds are.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios import ScenarioSpec, get_scenario
from repro.scenarios.compile import compile_fault_schedule
from repro.scenarios.report import format_scenario_report
from repro.scenarios.spec import FaultsSpec, WorkloadComponent
from repro.serving.queue import ENGINES

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


class TestFaultsSpec:
    def test_round_trips_through_the_spec_dict(self):
        spec = ScenarioSpec(
            name="x",
            fleet=get_scenario("chat-chipfail").fleet,
            faults=FaultsSpec(n_chip_failures=1, outage_s=5.0),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_faultless_spec_serializes_without_a_faults_key(self):
        assert "faults" not in ScenarioSpec(name="x").to_dict()

    def test_fault_block_changes_the_spec_hash(self):
        plain = get_scenario("chat-poisson")
        from dataclasses import replace

        faulted = replace(
            plain,
            fleet=replace(plain.fleet, n_chips=2),
            faults=FaultsSpec(n_chip_failures=1, outage_s=2.0),
        )
        assert faulted.spec_hash() != plain.spec_hash()

    def test_validation_rejects_impossible_plans(self):
        with pytest.raises(ValueError):
            FaultsSpec()  # no faults at all
        with pytest.raises(ValueError):
            FaultsSpec(n_chip_failures=1, window=(0.8, 0.2))
        with pytest.raises(ValueError):
            FaultsSpec(n_dram_degrades=1, degrade_factor=0.0)
        with pytest.raises(ValueError):
            # A permanent failure of the only chip leaves nothing running.
            ScenarioSpec(name="x", faults=FaultsSpec(n_chip_failures=1))

    def test_tenant_and_priority_round_trip(self):
        component = WorkloadComponent(
            name="premium", tenant="premium", priority=2.0
        )
        data = component.to_dict()
        assert data["tenant"] == "premium" and data["priority"] == 2.0
        assert WorkloadComponent.from_dict(data) == component
        # Defaults stay out of the serialized form (spec-hash stability).
        plain = WorkloadComponent(name="chat").to_dict()
        assert "tenant" not in plain and "priority" not in plain


class TestChipFailAcceptance:
    """The committed 1-chip-loss trace pins dent and recovery time."""

    @pytest.fixture(scope="class")
    def reports(self, report_on):
        spec = get_scenario("chat-chipfail")
        return {engine: report_on(spec, engine) for engine in ENGINES}

    def test_identical_across_engines(self, reports):
        assert len({report.to_json() for report in reports.values()}) == 1

    def test_report_captures_dent_and_measured_recovery(self, reports):
        faults = reports["wave"].faults
        assert faults is not None
        kinds = [event.kind for event in faults.events]
        assert kinds == ["chip_down", "chip_up"]
        (impact,) = faults.impacts  # chip_up is restorative, not measured
        assert impact.event.kind == "chip_down"
        assert impact.dent_depth_s > 0.0
        assert impact.time_to_recover_s is not None
        assert 0.0 < impact.time_to_recover_s < reports["wave"].makespan_s

    def test_matches_the_committed_golden_bytes(self, reports):
        golden = (GOLDEN_DIR / "chat-chipfail.json").read_text(encoding="utf-8")
        assert reports["wave"].to_json() == golden

    def test_formatted_report_narrates_the_fault_timeline(self, reports):
        text = format_scenario_report(reports["wave"])
        assert "faults             : 2 events (drain)" in text
        assert "p99 TTFT dent" in text
        assert "recovered in" in text


class TestTenantTiers:
    @pytest.fixture(scope="class")
    def reports(self, report_on):
        spec = get_scenario("tenant-tiers")
        return {engine: report_on(spec, engine) for engine in ENGINES}

    @pytest.fixture(scope="class")
    def report(self, reports):
        return reports["wave"]

    def test_identical_across_engines(self, reports):
        assert len({report.to_json() for report in reports.values()}) == 1

    def test_per_tenant_attainment_is_reported(self, report):
        assert report.tenants is not None
        by_name = {tenant.tenant: tenant for tenant in report.tenants}
        assert set(by_name) == {"premium", "free"}
        premium, free = by_name["premium"], by_name["free"]
        assert premium.priority == 2.0 and free.priority == 1.0
        # Weighted admission protects the paying tier under the burst.
        assert premium.ttft.p99 < free.ttft.p99
        assert premium.slo_met and not free.slo_met

    def test_tenant_accounting_covers_every_offered_request(self, report):
        total = sum(tenant.n_requests for tenant in report.tenants)
        assert total == report.n_requests
        for tenant in report.tenants:
            assert tenant.n_completed + tenant.n_rejected <= tenant.n_requests

    def test_formatted_report_lists_both_tenants(self, report):
        text = format_scenario_report(report)
        assert "tenant MET " in text and "tenant MISS" in text


class TestScheduleDeterminism:
    def test_schedule_is_a_pure_function_of_the_spec(self):
        spec = get_scenario("chat-chipfail")
        first = compile_fault_schedule(spec, 40.0)
        second = compile_fault_schedule(spec, 40.0)
        assert first == second
        lo, hi = spec.faults.window
        down = first.events[0]
        assert lo * 40.0 <= down.time_s <= hi * 40.0

    def test_schedule_survives_hash_randomization(self):
        # The chaos analogue of the spec-seed guarantee: a subprocess
        # with a different PYTHONHASHSEED draws the exact same events.
        code = (
            "import sys, json; sys.path.insert(0, sys.argv[1])\n"
            "from repro.scenarios import get_scenario\n"
            "from repro.scenarios.compile import compile_fault_schedule\n"
            "spec = get_scenario('chat-chipfail')\n"
            "print(json.dumps(compile_fault_schedule(spec, 40.0).to_dict()))\n"
        )
        root = Path(__file__).resolve().parent.parent.parent
        out = subprocess.run(
            [sys.executable, "-c", code, str(root / "src")],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONHASHSEED": "12345", "PYTHONPATH": str(root / "src")},
        )
        local = compile_fault_schedule(get_scenario("chat-chipfail"), 40.0)
        assert json.loads(out.stdout) == local.to_dict()
