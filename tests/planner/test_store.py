"""Content-addressed plan store: keys, round-trips, audit and planning.

The store's contract is *byte-identity by construction*: an object is
keyed by a SHA-256 over exactly the inputs exact simulation is a pure
function of, so a hit can replace a simulation without any tolerance.
These tests cover the key derivation (what enters it and — for static
fleets — what deliberately does not), object round-trips, hit/miss
accounting, corruption detection through ``validate``/``gc``, and the
end-to-end guarantee: a warm re-plan performs zero simulations and
returns the byte-identical report modulo the store counters.
"""

from __future__ import annotations

import json

import pytest

from repro.planner import (
    ChipDesign,
    FleetOption,
    PlanStore,
    PlannerConfig,
    candidate_key,
    evaluate_candidate,
    plan_scenario,
)
from repro.planner.store import STORE_VERSION, StoreProblem
from repro.scenarios import (
    ArrivalSpec,
    FleetSpec,
    ScenarioSpec,
    SLOSpec,
    WorkloadComponent,
)
from repro.scenarios.compile import compile_scenario


def tiny_spec(name: str = "store-test", ttft_target: float = 0.8) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        n_requests=8,
        mix=(
            WorkloadComponent(
                name="chat",
                images=0,
                prompt_token_range=(8, 32),
                output_token_choices=(4, 8),
                output_token_weights=(0.5, 0.5),
            ),
        ),
        arrival=ArrivalSpec(kind="poisson", rate_rps=4.0),
        fleet=FleetSpec(n_chips=1, max_batch_size=4, context_bucket=32),
        slo=SLOSpec(ttft_p99_s=ttft_target),
    )


def tiny_config() -> PlannerConfig:
    return PlannerConfig(
        chip_grid=(ChipDesign(1, 1, 1), ChipDesign(1, 1, 2)),
        min_chips=1,
        max_chips=1,
        include_autoscaled=False,
    )


def one_outcome(spec):
    """One exact CandidateOutcome plus the (design, option) that made it."""
    design = ChipDesign(1, 1, 1)
    option = FleetOption(n_chips=1)
    compiled = compile_scenario(spec)
    outcome = evaluate_candidate(
        spec, compiled.trace, design, option, spec.slo.targets()
    )
    return design, option, outcome


class TestCandidateKey:
    def test_static_option_ignores_ttft_target(self):
        design = ChipDesign(1, 1, 1)
        option = FleetOption(n_chips=2)
        a = candidate_key("spec", design, option, ttft_target_s=0.5)
        b = candidate_key("spec", design, option, ttft_target_s=2.0)
        assert a == b

    def test_autoscaled_option_keys_the_set_point(self):
        design = ChipDesign(1, 1, 1)
        option = FleetOption(n_chips=4, autoscaled=True, min_chips=1)
        a = candidate_key("spec", design, option, ttft_target_s=0.5)
        b = candidate_key("spec", design, option, ttft_target_s=2.0)
        assert a != b

    def test_key_separates_every_input(self):
        design = ChipDesign(1, 1, 1)
        option = FleetOption(n_chips=1)
        base = candidate_key("spec", design, option)
        assert candidate_key("other-spec", design, option) != base
        assert candidate_key("spec", ChipDesign(2, 1, 1), option) != base
        assert candidate_key("spec", design, FleetOption(n_chips=2)) != base
        assert (
            candidate_key("spec", ChipDesign(1, 1, 1, keep_fraction=0.5), option)
            != base
        )

    def test_key_is_hex_sha256(self):
        key = candidate_key("spec", ChipDesign(1, 1, 1), FleetOption(n_chips=1))
        assert len(key) == 64
        int(key, 16)  # hex digest


class TestPlanStoreObjects:
    def test_round_trip_and_counters(self, tmp_path):
        spec = tiny_spec()
        design, option, outcome = one_outcome(spec)
        store = PlanStore(tmp_path / "store")
        key = candidate_key(spec.spec_hash(), design, option)

        assert store.get(key) is None
        assert store.counters.misses == 1 and store.counters.hits == 0

        store.put(key, spec.spec_hash(), outcome)
        assert len(store) == 1
        assert store.get(key) == outcome
        assert store.counters.hits == 1 and store.counters.misses == 1

    def test_objects_fan_out_by_key_prefix(self, tmp_path):
        spec = tiny_spec()
        design, option, outcome = one_outcome(spec)
        store = PlanStore(tmp_path)
        key = candidate_key(spec.spec_hash(), design, option)
        store.put(key, spec.spec_hash(), outcome)
        path = tmp_path / "objects" / key[:2] / f"{key}.json"
        assert path.is_file()
        payload = json.loads(path.read_text())
        assert payload["version"] == STORE_VERSION
        assert payload["key"] == key
        assert payload["spec"] == spec.spec_hash()

    def test_put_is_idempotent_and_atomic(self, tmp_path):
        spec = tiny_spec()
        design, option, outcome = one_outcome(spec)
        store = PlanStore(tmp_path)
        key = candidate_key(spec.spec_hash(), design, option)
        store.put(key, spec.spec_hash(), outcome)
        store.put(key, spec.spec_hash(), outcome)
        assert len(store) == 1
        # No temp files left behind.
        leftovers = [
            p for p in store.objects_dir.rglob("*") if p.name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_corrupt_object_is_a_miss_not_an_error(self, tmp_path):
        spec = tiny_spec()
        design, option, outcome = one_outcome(spec)
        store = PlanStore(tmp_path)
        key = candidate_key(spec.spec_hash(), design, option)
        store.put(key, spec.spec_hash(), outcome)
        store._object_path(key).write_text("{not json")
        assert store.get(key) is None
        assert store.counters.misses == 1


class TestValidateAndGc:
    def populated(self, tmp_path):
        spec = tiny_spec()
        design, option, outcome = one_outcome(spec)
        store = PlanStore(tmp_path)
        key = candidate_key(spec.spec_hash(), design, option)
        store.put(key, spec.spec_hash(), outcome)
        return store, key, spec, outcome

    def test_validate_healthy_store(self, tmp_path):
        store, _, _, _ = self.populated(tmp_path)
        assert store.validate() == []

    def test_validate_flags_bad_json(self, tmp_path):
        store, key, _, _ = self.populated(tmp_path)
        store._object_path(key).write_text("{not json")
        (problem,) = store.validate()
        assert isinstance(problem, StoreProblem)
        assert "JSON" in problem.reason

    def test_validate_flags_renamed_object(self, tmp_path):
        store, key, _, _ = self.populated(tmp_path)
        path = store._object_path(key)
        bogus = "ab" + "0" * 62
        target = store.objects_dir / "ab" / f"{bogus}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        path.rename(target)
        reasons = {problem.reason for problem in store.validate()}
        assert any("does not match file name" in reason for reason in reasons)

    def test_validate_flags_version_mismatch(self, tmp_path):
        store, key, _, _ = self.populated(tmp_path)
        path = store._object_path(key)
        payload = json.loads(path.read_text())
        payload["version"] = STORE_VERSION + 1
        path.write_text(json.dumps(payload))
        (problem,) = store.validate()
        assert "version" in problem.reason

    def test_validate_flags_wrong_fan_directory(self, tmp_path):
        store, key, _, _ = self.populated(tmp_path)
        path = store._object_path(key)
        wrong = store.objects_dir / "zz"
        wrong.mkdir()
        path.rename(wrong / path.name)
        reasons = {problem.reason for problem in store.validate()}
        assert any("fan-out" in reason for reason in reasons)

    def test_validate_flags_truncated_outcome(self, tmp_path):
        store, key, _, _ = self.populated(tmp_path)
        path = store._object_path(key)
        payload = json.loads(path.read_text())
        del payload["outcome"]["ttft_p99_s"]
        path.write_text(json.dumps(payload))
        (problem,) = store.validate()
        assert "round-trip" in problem.reason

    def test_gc_removes_defective_objects_and_empty_fans(self, tmp_path):
        store, key, _, _ = self.populated(tmp_path)
        path = store._object_path(key)
        path.write_text("{not json")
        removed = store.gc()
        assert removed == [path]
        assert len(store) == 0
        assert not path.parent.exists()  # empty fan dir collected too

    def test_gc_keep_specs_retires_stale_scenarios(self, tmp_path):
        store, key, spec, outcome = self.populated(tmp_path)
        design, option, other_outcome = one_outcome(tiny_spec(name="other"))
        other_key = candidate_key("dead-spec-hash", design, option)
        store.put(other_key, "dead-spec-hash", other_outcome)
        assert len(store) == 2
        removed = store.gc(keep_specs={spec.spec_hash()})
        assert [p.name for p in removed] == [f"{other_key}.json"]
        assert store.get(key) == outcome

    def test_stats_counts_objects_and_specs(self, tmp_path):
        store, _, spec, _ = self.populated(tmp_path)
        stats = store.stats()
        assert stats["n_objects"] == 1
        assert stats["total_bytes"] > 0
        assert stats["by_spec"] == {spec.spec_hash(): 1}


class TestPlanningWithStore:
    def test_cold_then_warm_plan(self, tmp_path):
        spec = tiny_spec()
        config = tiny_config()
        store = PlanStore(tmp_path)

        cold = plan_scenario(spec, config, store=store)
        assert cold.store_hits == 0
        assert cold.store_misses == cold.n_simulated > 0

        warm = plan_scenario(spec, config, store=store)
        assert warm.n_simulated == 0
        assert warm.store_misses == 0
        assert warm.store_hits == cold.n_simulated
        # Byte-identical modulo the store counters and simulation count.
        strip = {"store_hits", "store_misses", "n_simulated"}
        cold_data = {
            k: v for k, v in json.loads(cold.to_json()).items() if k not in strip
        }
        warm_data = {
            k: v for k, v in json.loads(warm.to_json()).items() if k not in strip
        }
        assert warm_data == cold_data

    def test_no_store_reports_no_counters(self):
        report = plan_scenario(tiny_spec(), tiny_config())
        assert report.store_hits is None
        assert report.store_misses is None
        assert "store_hits" not in json.loads(report.to_json())

    def test_tampered_object_is_resimulated(self, tmp_path):
        spec = tiny_spec()
        config = tiny_config()
        store = PlanStore(tmp_path)
        cold = plan_scenario(spec, config, store=store)
        victim = next(iter(store.iter_paths()))
        victim.write_text("{not json")

        healed = plan_scenario(spec, config, store=store)
        assert healed.n_simulated == 1  # only the tampered candidate
        assert healed.store_hits == cold.n_simulated - 1
        assert healed.best == cold.best
        assert healed.frontier == cold.frontier
        assert store.validate() == []  # the fresh write healed the object

    def test_slo_tweak_hits_for_static_fleets(self, tmp_path):
        # Static fleets ignore the TTFT set point, so changing the target
        # re-judges stored outcomes without re-simulating anything.
        spec = tiny_spec(ttft_target=0.8)
        config = tiny_config()
        store = PlanStore(tmp_path)
        plan_scenario(spec, config, store=store)

        tweaked = plan_scenario(
            spec, config, slo=SLOSpec(ttft_p99_s=0.9), store=store
        )
        assert tweaked.n_simulated == 0

    def test_different_scenarios_do_not_collide(self, tmp_path):
        config = tiny_config()
        store = PlanStore(tmp_path)
        first = plan_scenario(tiny_spec(name="scenario-a"), config, store=store)
        second = plan_scenario(tiny_spec(name="scenario-b"), config, store=store)
        assert second.store_hits == 0
        assert len(store) == first.n_simulated + second.n_simulated


class TestStoreCli:
    def populated(self, tmp_path):
        from repro.planner.__main__ import main

        spec = tiny_spec()
        design, option, outcome = one_outcome(spec)
        store = PlanStore(tmp_path / "store")
        key = candidate_key(spec.spec_hash(), design, option)
        store.put(key, spec.spec_hash(), outcome)
        return main, store, key, spec

    def test_store_validate_healthy(self, tmp_path, capsys):
        main, store, _, _ = self.populated(tmp_path)
        assert main(["store-validate", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "1 objects" in out
        assert "0 problems" in out

    def test_store_validate_flags_corruption(self, tmp_path, capsys):
        main, store, key, _ = self.populated(tmp_path)
        store._object_path(key).write_text("{not json")
        assert main(["store-validate", str(store.root)]) == 1
        out = capsys.readouterr().out
        assert "BAD" in out
        assert "1 problems" in out

    def test_store_gc_collects_defects(self, tmp_path, capsys):
        main, store, key, _ = self.populated(tmp_path)
        store._object_path(key).write_text("{not json")
        assert main(["store-gc", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "1 objects collected, 0 kept" in out

    def test_store_gc_keep_spec(self, tmp_path, capsys):
        main, store, _, spec = self.populated(tmp_path)
        design, option, other = one_outcome(tiny_spec(name="other"))
        store.put(candidate_key("dead", design, option), "dead", other)
        assert (
            main(["store-gc", str(store.root), "--keep-spec", spec.spec_hash()])
            == 0
        )
        out = capsys.readouterr().out
        assert "1 objects collected, 1 kept" in out
