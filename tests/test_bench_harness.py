"""The benchmark harness writes a well-formed ``BENCH_results.json``."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

HARNESS_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "run.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("bench_harness", HARNESS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestDiscovery:
    def test_discovers_every_bench_module(self, harness):
        scenarios = harness.discover_scenarios()
        names = [name for name, _, _ in scenarios]
        assert "design_sweep_batch_1000" in names
        assert "design_sweep_scalar_100" in names
        assert "serving" in names
        assert names == sorted(names)

    def test_unknown_filter_exits(self, harness, tmp_path):
        with pytest.raises(SystemExit):
            harness.run_benchmarks(
                only="no-such-scenario", output=tmp_path / "out.json"
            )


class TestCheckMode:
    def _report(self, **seconds):
        return {
            "scenarios": {
                name: {"seconds": value} for name, value in seconds.items()
            }
        }

    def test_flags_scenarios_beyond_the_factor(self, harness):
        fresh = self._report(a=0.5, b=2.1, c=1.0)
        baseline = self._report(a=0.5, b=1.0, c=1.0)
        failures = harness.check_regressions(fresh, baseline)
        assert len(failures) == 1
        assert failures[0].startswith("b:")

    def test_within_budget_passes(self, harness):
        fresh = self._report(a=0.99, b=1.9)
        baseline = self._report(a=0.5, b=1.0)
        assert harness.check_regressions(fresh, baseline) == []

    def test_added_and_removed_scenarios_are_not_regressions(self, harness):
        fresh = self._report(new_one=100.0)
        baseline = self._report(gone=0.1)
        assert harness.check_regressions(fresh, baseline) == []

    def test_sub_floor_scenarios_are_exempt_from_the_factor(self, harness):
        # Sub-millisecond scenarios regress by scheduler jitter alone;
        # the floor keeps them out of the gate.
        floor = harness.MIN_CHECK_SECONDS
        fresh = self._report(noisy=floor * 0.9 * 10, real=floor * 4)
        baseline = self._report(noisy=floor * 0.9, real=floor * 1.5)
        failures = harness.check_regressions(fresh, baseline)
        assert len(failures) == 1
        assert failures[0].startswith("real:")

    def test_main_check_exits_nonzero_on_regression(
        self, harness, tmp_path, capsys, monkeypatch
    ):
        # fig6 runs in microseconds, so drop the noise floor to let the
        # synthetic baseline regress it deterministically.
        monkeypatch.setattr(harness, "MIN_CHECK_SECONDS", 0.0)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(self._report(fig6_bandwidth=1e-9))
        )
        with pytest.raises(SystemExit) as excinfo:
            harness.main(
                [
                    "--only", "fig6",
                    "--output", str(tmp_path / "fresh.json"),
                    "--baseline", str(baseline),
                    "--check",
                ]
            )
        capsys.readouterr()
        assert excinfo.value.code == 1

    def test_main_check_passes_against_generous_baseline(
        self, harness, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(self._report(fig6_bandwidth=1e9)))
        harness.main(
            [
                "--only", "fig6",
                "--output", str(tmp_path / "fresh.json"),
                "--baseline", str(baseline),
                "--check",
            ]
        )
        out = capsys.readouterr().out
        assert "--check passed" in out

    def test_new_scenarios_warn_instead_of_failing(self, harness):
        fresh = self._report(existing=1.0, just_added=100.0)
        baseline = self._report(existing=1.0)
        warnings = harness.baseline_warnings(fresh, baseline)
        assert len(warnings) == 1
        assert warnings[0].startswith("just_added:")
        # ... and the regression check itself must not flag the newcomer.
        assert harness.check_regressions(fresh, baseline) == []

    def test_fully_covered_run_produces_no_warnings(self, harness):
        fresh = self._report(a=1.0, b=2.0)
        baseline = self._report(a=1.0, b=2.0)
        assert harness.baseline_warnings(fresh, baseline) == []

    def test_removed_scenarios_warn_instead_of_rotting(self, harness):
        # A committed scenario the fresh run no longer produces is a
        # coverage gap too: its baseline entry would otherwise linger
        # forever, pretending the benchmark still runs.
        fresh = self._report(a=1.0)
        baseline = self._report(a=1.0, retired=0.5)
        warnings = harness.baseline_warnings(fresh, baseline)
        assert len(warnings) == 1
        assert warnings[0].startswith("retired:")
        assert "no longer produced" in warnings[0]
        # ... and the regression check itself must not flag it.
        assert harness.check_regressions(fresh, baseline) == []

    def test_warnings_list_names_sorted_deterministically(self, harness):
        # Each direction lists names in sorted order — fresh-side gaps
        # first, then baseline-side gaps — so successive CI logs diff
        # cleanly regardless of dict insertion order.
        fresh = self._report(zeta=1.0, alpha=1.0, shared=1.0)
        baseline = self._report(shared=1.0, omega=0.5, beta=0.5)
        warnings = harness.baseline_warnings(fresh, baseline)
        names = [warning.split(":", 1)[0] for warning in warnings]
        assert names == ["alpha", "zeta", "beta", "omega"]

    def test_only_filter_scopes_removed_scenario_warnings(self, harness):
        # A filtered run (--only) never produced the out-of-scope
        # scenarios, so committed entries outside the filter are not
        # "removed" — only matching names warn.
        fresh = self._report(planner_a=1.0)
        baseline = self._report(
            planner_a=1.0, planner_gone=0.5, serving=2.0
        )
        warnings = harness.baseline_warnings(fresh, baseline, only="planner")
        assert len(warnings) == 1
        assert warnings[0].startswith("planner_gone:")
        # Fresh-side gaps are never filtered: the run did produce them.
        fresh = self._report(planner_a=1.0, serving_new=1.0)
        warnings = harness.baseline_warnings(fresh, baseline, only="planner")
        assert any(w.startswith("serving_new:") for w in warnings)

    def test_main_check_warns_and_passes_without_a_baseline_file(
        self, harness, tmp_path, capsys
    ):
        harness.main(
            [
                "--only", "fig6",
                "--output", str(tmp_path / "fresh.json"),
                "--baseline", str(tmp_path / "missing.json"),
                "--check",
            ]
        )
        out = capsys.readouterr().out
        assert "warning: --check baseline not found" in out
        assert "--check passed: no committed baseline" in out
        # The fresh results file is still written for future gates.
        assert (tmp_path / "fresh.json").exists()

    def test_main_check_warns_about_uncommitted_scenarios(
        self, harness, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(self._report(other_scenario=1.0)))
        harness.main(
            [
                "--only", "fig6",
                "--output", str(tmp_path / "fresh.json"),
                "--baseline", str(baseline),
                "--check",
            ]
        )
        out = capsys.readouterr().out
        assert "warning: fig6_bandwidth: no committed baseline" in out
        assert "--check passed" in out

    def test_main_check_still_fails_on_a_real_regression(
        self, harness, tmp_path, capsys, monkeypatch
    ):
        # The warn-and-pass paths must not soften the genuine gate.
        monkeypatch.setattr(harness, "MIN_CHECK_SECONDS", 0.0)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(self._report(fig6_bandwidth=1e-9)))
        with pytest.raises(SystemExit) as excinfo:
            harness.main(
                [
                    "--only", "fig6",
                    "--output", str(tmp_path / "fresh.json"),
                    "--baseline", str(baseline),
                    "--check",
                ]
            )
        capsys.readouterr()
        assert excinfo.value.code == 1

    def test_metadata_drift_warns(self, harness):
        fresh = self._report(planner=1.0)
        baseline = self._report(planner=1.0)
        fresh["scenarios"]["planner"]["candidates"] = 50_000
        baseline["scenarios"]["planner"]["candidates"] = 124_416
        warnings = harness.metadata_warnings(fresh, baseline)
        assert len(warnings) == 1
        assert "candidates drifted from committed 124416 to 50000" in warnings[0]
        assert "seconds are not comparable" in warnings[0]
        # Drift warns; it must not enter the hard regression gate.
        assert harness.check_regressions(fresh, baseline) == []

    def test_metadata_matching_produces_no_warnings(self, harness):
        fresh = self._report(planner=1.0)
        baseline = self._report(planner=1.1)
        for report in (fresh, baseline):
            report["scenarios"]["planner"].update(
                candidates=124_416, pruned=124_404, simulated=12, store_hits=0
            )
        assert harness.metadata_warnings(fresh, baseline) == []

    def test_metadata_absent_on_either_side_warns(self, harness):
        # A key only one side records is itself a workload-shape change:
        # the benchmark started (or stopped) recording what it does, so
        # the baseline no longer describes the fresh run.
        fresh = self._report(planner=1.0, legacy=2.0)
        baseline = self._report(planner=1.0, legacy=2.0)
        fresh["scenarios"]["planner"]["candidates"] = 124_416
        baseline["scenarios"]["legacy"]["candidates"] = 99
        warnings = harness.metadata_warnings(fresh, baseline)
        assert len(warnings) == 2
        assert warnings[0].startswith("legacy: candidates committed")
        assert warnings[1].startswith("planner: candidates recorded")
        # ... without entering the hard regression gate.
        assert harness.check_regressions(fresh, baseline) == []

    def test_metadata_covers_unlisted_keys(self, harness):
        # New detail keys (per-tenant tallies, fault-event counts) are
        # watched without a hand-maintained key list.
        fresh = self._report(chaos=1.0)
        baseline = self._report(chaos=1.0)
        fresh["scenarios"]["chaos"]["fault_events"] = 2
        baseline["scenarios"]["chaos"]["fault_events"] = 3
        warnings = harness.metadata_warnings(fresh, baseline)
        assert len(warnings) == 1
        assert "fault_events drifted from committed 3 to 2" in warnings[0]

    def test_metadata_ignores_float_measurements(self, harness):
        # Float details are derived measurements (speedup, wave seconds);
        # their run-to-run jitter must not masquerade as workload drift.
        fresh = self._report(serving=1.0)
        baseline = self._report(serving=1.1)
        fresh["scenarios"]["serving"].update(speedup=13.2, requests=100_000)
        baseline["scenarios"]["serving"].update(speedup=12.7, requests=100_000)
        assert harness.metadata_warnings(fresh, baseline) == []

    def test_metadata_of_uncommitted_scenarios_is_skipped(self, harness):
        fresh = self._report(just_added=1.0)
        fresh["scenarios"]["just_added"]["candidates"] = 124_416
        assert harness.metadata_warnings(fresh, self._report()) == []

    def test_main_check_prints_metadata_drift_warnings(
        self, harness, tmp_path, capsys, monkeypatch
    ):
        drift = (
            "fig6_bandwidth: candidates drifted from committed 124416 to "
            "50000; seconds are not comparable"
        )
        # main() resolves metadata_warnings from the module namespace, so a
        # stub exercises the printing path without a slow planner scenario.
        monkeypatch.setattr(harness, "metadata_warnings", lambda *_: [drift])
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(self._report(fig6_bandwidth=1e9)))
        harness.main(
            [
                "--only", "fig6",
                "--output", str(tmp_path / "fresh.json"),
                "--baseline", str(baseline),
                "--check",
            ]
        )
        out = capsys.readouterr().out
        assert f"warning: {drift}" in out
        assert "--check passed" in out

    def test_committed_results_include_the_wave_benchmark(self):
        committed = HARNESS_PATH.parent / "BENCH_results.json"
        data = json.loads(committed.read_text())
        record = data["scenarios"]["serving_wave_1M"]
        assert record["requests"] == 1000000
        assert record["identical_records"] is True
        # The committed trajectory must show the < 10 s acceptance headline.
        assert record["wave_seconds"] < record["time_budget_s"]


class TestResultsFile:
    def test_writes_scenario_seconds_and_machine_info(self, harness, tmp_path, capsys):
        output = tmp_path / "BENCH_results.json"
        report = harness.run_benchmarks(only="fig6", output=output)
        capsys.readouterr()
        on_disk = json.loads(output.read_text())
        assert on_disk == report
        assert "fig6_bandwidth" in on_disk["scenarios"]
        record = on_disk["scenarios"]["fig6_bandwidth"]
        assert record["seconds"] >= 0
        assert record["module"] == "test_bench_fig6_bandwidth.py"
        machine = on_disk["machine"]
        assert machine["python"] and machine["platform"]
        assert machine["cpu_count"] >= 1

    def test_scenario_details_are_recorded(self, harness, tmp_path, capsys):
        output = tmp_path / "BENCH_results.json"
        report = harness.run_benchmarks(only="design_sweep_scalar", output=output)
        capsys.readouterr()
        record = report["scenarios"]["design_sweep_scalar_100"]
        assert record["points"] == 100
        assert record["engine"] == "scalar"

    def test_committed_results_include_the_sweep_benchmark(self):
        committed = HARNESS_PATH.parent / "BENCH_results.json"
        data = json.loads(committed.read_text())
        assert "design_sweep_batch_1000" in data["scenarios"]
        assert "design_sweep_scalar_100" in data["scenarios"]
        batch = data["scenarios"]["design_sweep_batch_1000"]
        scalar = data["scenarios"]["design_sweep_scalar_100"]
        # The committed trajectory must show the >= 50x acceptance headline
        # (scalar seconds are for a 100-point sample of the 1,000 points).
        speedup = (scalar["seconds"] * 10) / batch["seconds"]
        assert speedup >= 50
