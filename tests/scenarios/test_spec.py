"""Scenario-spec tests: validation, serialization, seed plumbing.

The seed-plumbing contract matters most: every random stream a scenario
uses is seeded from the SHA-256 of the spec's canonical JSON, never from
Python's per-process salted ``hash()`` or global RNG state.  The pinned
reference values and the subprocess test lock that in — the same spec must
derive the same seeds in *any* process, whatever ``PYTHONHASHSEED`` says.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.codec import SpecError
from repro.scenarios import (
    ArrivalSpec,
    AutoscalerSpec,
    FleetSpec,
    ScenarioSpec,
    SLOSpec,
    WorkloadComponent,
    available_scenarios,
    get_scenario,
)

REFERENCE = ScenarioSpec(
    name="reference",
    description="pinned spec for seed-stability tests",
    n_requests=10,
    mix=(
        WorkloadComponent(name="chat", images=0),
        WorkloadComponent(name="vision", weight=2.0, images=2),
    ),
    arrival=ArrivalSpec(kind="bursty", rate_rps=3.0),
    fleet=FleetSpec(n_chips=2),
    slo=SLOSpec(ttft_p99_s=1.0),
)


class TestValidation:
    def test_rejects_empty_mix(self):
        with pytest.raises(ValueError, match="at least one workload component"):
            ScenarioSpec(name="x", mix=())

    def test_rejects_duplicate_component_names(self):
        with pytest.raises(ValueError, match="duplicate component names"):
            ScenarioSpec(
                name="x",
                mix=(
                    WorkloadComponent(name="a"),
                    WorkloadComponent(name="a", images=2),
                ),
            )

    def test_rejects_bad_component(self):
        with pytest.raises(ValueError, match="weight must be positive"):
            WorkloadComponent(name="a", weight=0.0)
        with pytest.raises(ValueError, match="prompt_token_range"):
            WorkloadComponent(name="a", prompt_token_range=(8, 4))
        with pytest.raises(ValueError, match="equal length"):
            WorkloadComponent(
                name="a", output_token_choices=(8, 16), output_token_weights=(1.0,)
            )

    def test_rejects_bad_arrivals(self):
        with pytest.raises(ValueError, match="arrival kind"):
            ArrivalSpec(kind="uniform")
        with pytest.raises(ValueError, match="rate_rps"):
            ArrivalSpec(kind="poisson", rate_rps=0.0)
        with pytest.raises(ValueError, match="needs explicit times"):
            ArrivalSpec(kind="trace")
        with pytest.raises(ValueError, match="non-decreasing"):
            ArrivalSpec(kind="trace", times=(1.0, 0.5))
        with pytest.raises(ValueError, match="only apply to trace"):
            ArrivalSpec(kind="poisson", times=(0.0,))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("burst_multiplier", -1),
            ("mean_calm_arrivals", 0),
            ("mean_burst_arrivals", -5),
        ],
        ids=["burst_multiplier", "mean_calm_arrivals", "mean_burst_arrivals"],
    )
    def test_spec_file_names_a_bursty_field_below_one(self, field, value):
        # BurstyArrivals refuses these too, but only at compile time and
        # without a spec path; decoding the spec must refuse them first.
        text = json.dumps({"name": "x", "arrival": {"kind": "bursty", field: value}})
        with pytest.raises(SpecError) as excinfo:
            ScenarioSpec.from_json(text)
        assert excinfo.value.path == "arrival"
        assert str(excinfo.value) == f"arrival: {field} must be >= 1"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (
                "policy",
                "bogus",
                "policy must be one of ('round_robin', 'least_loaded'), "
                "got 'bogus'",
            ),
            ("context_bucket", 0, "context_bucket must be >= 1"),
            ("cc_bandwidth_fraction", 0.0, "cc_bandwidth_fraction must be in (0, 1)"),
            ("cc_bandwidth_fraction", 1.5, "cc_bandwidth_fraction must be in (0, 1)"),
            (
                "model",
                "nope",
                "model must be a registered MLLM (deepseek-vl, karmavlm, "
                "llava-7b, mobilevlm, sphinx-tiny, tinygpt-v), got 'nope'",
            ),
        ],
        ids=[
            "policy",
            "context_bucket",
            "cc_bandwidth_fraction-0",
            "cc_bandwidth_fraction-1.5",
            "model",
        ],
    )
    def test_spec_file_names_a_bad_fleet_field(self, field, value, message):
        # The fleet and its chips refuse these too, but only when the
        # scenario runs, without a spec path (or, for the model, as a raw
        # KeyError); decoding the spec must refuse them first.
        text = json.dumps({"name": "x", "fleet": {field: value}})
        with pytest.raises(SpecError) as excinfo:
            ScenarioSpec.from_json(text)
        assert excinfo.value.path == "fleet"
        assert str(excinfo.value) == f"fleet: {message}"

    def test_spec_file_may_not_set_the_autoscaler_target(self):
        # The spec's autoscaler block is the fleet's own config, whose
        # target comes from the scenario's SLO, never from the block.
        text = json.dumps(
            {
                "name": "x",
                "fleet": {"autoscaler": {"target_p99_ttft_s": 1.0}},
                "slo": {"ttft_p99_s": 1.0},
            }
        )
        with pytest.raises(SpecError) as excinfo:
            ScenarioSpec.from_json(text)
        assert excinfo.value.path == "fleet"
        assert "slo.ttft_p99_s" in str(excinfo.value)

    def test_unset_autoscaler_target_is_not_written(self):
        # So a spec's serialized form and hash never carry the target.
        assert "target_p99_ttft_s" not in AutoscalerSpec().to_dict()
        targeted = AutoscalerSpec(target_p99_ttft_s=2.0).to_dict()
        assert targeted["target_p99_ttft_s"] == 2.0

    def test_rejects_fields_the_kind_would_lose_on_serialization(self):
        # `to_dict` omits fields irrelevant to the kind, so non-default
        # values there would silently vanish on a round trip — rejected.
        with pytest.raises(ValueError, match="does not apply"):
            ArrivalSpec(kind="poisson", burst_multiplier=3.0)
        with pytest.raises(ValueError, match="does not apply"):
            ArrivalSpec(kind="trace", times=(0.0,), rate_rps=5.0)
        # Relevant fields are of course allowed off-default.
        ArrivalSpec(kind="bursty", burst_multiplier=3.0)

    def test_rejects_short_trace(self):
        with pytest.raises(ValueError, match="holds 2 arrivals"):
            ScenarioSpec(
                name="x",
                n_requests=3,
                arrival=ArrivalSpec(kind="trace", times=(0.0, 1.0)),
            )

    def test_rejects_bad_autoscaler(self):
        with pytest.raises(ValueError, match="max_chips"):
            AutoscalerSpec(min_chips=3, max_chips=2)
        with pytest.raises(ValueError, match="admission"):
            AutoscalerSpec(admission="drop")
        with pytest.raises(ValueError, match="scale_down_ratio"):
            AutoscalerSpec(scale_down_ratio=1.5)

    def test_rejects_nonpositive_slo(self):
        with pytest.raises(ValueError, match="must be positive"):
            SLOSpec(ttft_p99_s=0.0)


class TestSerialization:
    def test_round_trips_through_dict_and_json(self):
        for name in available_scenarios():
            spec = get_scenario(name)
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_round_trip_preserves_hash(self):
        for name in available_scenarios():
            spec = get_scenario(name)
            assert ScenarioSpec.from_json(spec.to_json()).spec_hash() == spec.spec_hash()

    def test_trace_arrivals_round_trip(self):
        times = (0.0, 0.25, 0.25, 1.5)
        spec = ArrivalSpec(kind="trace", times=times)
        assert ArrivalSpec.from_dict(spec.to_dict()).times == times

    def test_canonical_json_is_key_sorted_and_minified(self):
        text = REFERENCE.canonical_json()
        assert json.loads(text) == REFERENCE.to_dict()
        assert ": " not in text and "\n" not in text

    def test_provisioned_chips_is_not_serialized(self):
        static = FleetSpec(n_chips=3)
        autoscaled = FleetSpec(n_chips=3, autoscaler=AutoscalerSpec(max_chips=5))
        assert (static.provisioned_chips, autoscaled.provisioned_chips) == (3, 5)
        assert "provisioned_chips" not in autoscaled.to_dict()


class TestSeedPlumbing:
    """Seeds derive from the spec hash — stable across processes."""

    def test_spec_hash_is_pinned(self):
        # If this moves, every golden report and derived seed moves with
        # it: that is a deliberate, reviewed event, not drift.
        assert REFERENCE.spec_hash() == (
            "9cd9c31a4bedb8e1b1a419a69be88c0270872ea1dc79212bdc694ecf71fe443d"
        )

    def test_derived_seeds_are_pinned_and_role_separated(self):
        assert REFERENCE.derive_seed("arrival") == 1776506834341202690
        assert REFERENCE.derive_seed("mix") != REFERENCE.derive_seed("arrival")
        assert (
            REFERENCE.derive_seed("component:chat")
            != REFERENCE.derive_seed("component:vision")
        )

    def test_seed_salt_changes_every_stream(self):
        from dataclasses import replace

        salted = replace(REFERENCE, seed_salt=1)
        for role in ("arrival", "mix", "component:chat"):
            assert salted.derive_seed(role) != REFERENCE.derive_seed(role)

    def test_seeds_survive_hash_randomization(self):
        # Same derivation in a subprocess with a different PYTHONHASHSEED:
        # the guarantee `hash()`-based seeding could never give.
        code = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from tests.scenarios.test_spec import REFERENCE\n"
            "print(REFERENCE.spec_hash()); print(REFERENCE.derive_seed('arrival'))\n"
        )
        root = Path(__file__).resolve().parent.parent.parent
        out = subprocess.run(
            [sys.executable, "-c", code, str(root)],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONHASHSEED": "12345", "PYTHONPATH": str(root / "src")},
        )
        spec_hash, seed = out.stdout.split()
        assert spec_hash == REFERENCE.spec_hash()
        assert int(seed) == REFERENCE.derive_seed("arrival")
