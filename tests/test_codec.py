"""The one spec codec (``repro.codec``) over the spec and report dataclasses.

Four layers of evidence:

* pinned decode failures — each names the bad value's JSON path in a
  :class:`~repro.codec.SpecError`;
* ``from_dict`` of only the required keys equals the all-defaults
  constructor, for every spec class;
* hypothesis round trips over every class — scenario specs, planner
  configs, fault and chaos schedules and their parts, and the report
  blocks that decode (``from_dict(to_dict(x)) == x`` and ``to_dict`` is
  a fixed point);
* a fuzz suite feeding arbitrary JSON — whole payloads, and single
  values spliced into valid ones — where only ``SpecError`` may escape.

The report-side rules (``Dict[str, X]`` objects and ``derived``
properties) are pinned on a small class of their own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import Spec, SpecError, inlined
from repro.planner.evaluate import CandidateOutcome
from repro.planner.prune import DesignBounds
from repro.planner.report import PlanEntry
from repro.planner.space import ChipDesign, FleetOption, PlannerConfig
from repro.scenarios.registry import available_scenarios, get_scenario
from repro.scenarios.report import ScenarioReport, SLOCheck
from repro.scenarios.spec import (
    ADMISSION_POLICIES,
    DRAIN_POLICIES,
    ArrivalSpec,
    AutoscalerSpec,
    ChaosSpec,
    FaultsSpec,
    FleetSpec,
    ScenarioSpec,
    SLOSpec,
    WorkloadComponent,
)
from repro.serving.faults import FaultEvent, FaultRecovery, FaultSchedule
from repro.serving.fleet import POLICIES
from repro.serving.runtime.chaos import (
    CHAOS_ACTOR_KINDS,
    CHAOS_MESSAGE_KINDS,
    ChaosEvent,
    ChaosSchedule,
    crash_actor,
    delay_message,
    drop_message,
    hang_actor,
)
from repro.serving.runtime.supervision import INCIDENT_KINDS, ActorIncident

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# ----------------------------------------------------------------------
# Strategies: valid specs whose values match their annotations
# ----------------------------------------------------------------------
names = st.text(alphabet="abcdefgh_-", min_size=1, max_size=6)
positive = st.floats(
    min_value=1e-3, max_value=1e4, allow_nan=False, allow_infinity=False
)
non_negative = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
#: A burst multiplier or a mean state length (``ArrivalSpec`` needs >= 1).
at_least_one = st.floats(
    min_value=1.0, max_value=1e4, allow_nan=False, allow_infinity=False
)
unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
#: A CC bandwidth share (``FleetSpec`` needs it strictly inside (0, 1)).
open_unit = st.floats(
    min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True
)


@st.composite
def components(draw, name=None):
    lo = draw(st.integers(1, 512))
    n_choices = draw(st.integers(1, 4))
    return WorkloadComponent(
        name=draw(names) if name is None else name,
        weight=draw(positive),
        images=draw(st.integers(0, 8)),
        prompt_token_range=(lo, draw(st.integers(lo, 1024))),
        output_token_choices=tuple(
            draw(st.lists(st.integers(1, 512), min_size=n_choices, max_size=n_choices))
        ),
        output_token_weights=tuple(
            draw(st.lists(positive, min_size=n_choices, max_size=n_choices))
        ),
        tenant=draw(st.none() | names),
        priority=draw(positive),
    )


arrivals = st.one_of(
    st.builds(ArrivalSpec, kind=st.just("poisson"), rate_rps=positive),
    st.builds(
        ArrivalSpec,
        kind=st.just("bursty"),
        rate_rps=positive,
        burst_multiplier=at_least_one,
        mean_calm_arrivals=at_least_one,
        mean_burst_arrivals=at_least_one,
    ),
    st.builds(ArrivalSpec, kind=st.just("diurnal"), rate_rps=positive, period_s=positive),
    st.lists(non_negative, min_size=1, max_size=12).map(
        lambda times: ArrivalSpec(kind="trace", times=tuple(sorted(times)))
    ),
)


@st.composite
def autoscalers(draw):
    min_chips = draw(st.integers(1, 4))
    up = draw(positive)
    return AutoscalerSpec(
        min_chips=min_chips,
        max_chips=draw(st.integers(min_chips, 8)),
        window=draw(st.integers(1, 128)),
        min_observations=draw(st.integers(1, 64)),
        cooldown_s=draw(non_negative),
        scale_up_ratio=up,
        scale_down_ratio=draw(st.floats(min_value=0.0, max_value=up, exclude_max=True)),
        max_queue_depth=draw(st.integers(1, 256)),
        admission=draw(st.sampled_from(ADMISSION_POLICIES)),
    )


fleets = st.builds(
    FleetSpec,
    model=st.sampled_from(("sphinx-tiny", "karmavlm")),
    n_chips=st.integers(1, 8),
    policy=st.sampled_from(POLICIES),
    max_batch_size=st.integers(1, 32),
    context_bucket=st.integers(1, 4096),
    cc_bandwidth_fraction=open_unit,
    autoscaler=st.none() | autoscalers(),
)
slos = st.builds(
    SLOSpec,
    ttft_p99_s=st.none() | positive,
    latency_p95_s=st.none() | positive,
    queue_wait_p99_s=st.none() | positive,
)


@st.composite
def fault_plans(draw):
    lo = draw(st.floats(min_value=0.0, max_value=0.9))
    n_chip_failures = draw(st.integers(0, 2))
    return FaultsSpec(
        n_chip_failures=n_chip_failures,
        n_dram_degrades=draw(st.integers(1 if n_chip_failures == 0 else 0, 2)),
        window=(lo, draw(st.floats(min_value=lo, max_value=1.0, exclude_min=True))),
        outage_s=draw(st.none() | positive),
        degrade_factor=draw(unit),
        drain_policy=draw(st.sampled_from(DRAIN_POLICIES)),
    )


chaos_plans = st.builds(
    ChaosSpec,
    n_crashes=st.integers(1, 2),
    n_hangs=st.integers(0, 2),
    n_drops=st.integers(0, 2),
    n_delays=st.integers(0, 2),
    n_supervisor_crashes=st.integers(0, 2),
    hang_shards=st.integers(1, 4),
    delay_s=positive,
    max_retries=st.integers(0, 5),
)


def _fits(plan, fleet):
    """Whether fault ``plan`` is valid on ``fleet`` (ScenarioSpec's rule)."""
    chips = fleet.autoscaler.max_chips if fleet.autoscaler else fleet.n_chips
    total = plan.n_chip_failures + plan.n_dram_degrades
    return total <= chips and (
        plan.outage_s is not None or plan.n_chip_failures < chips
    )


@st.composite
def scenario_specs(draw):
    mix_names = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    arrival = draw(arrivals)
    limit = len(arrival.times) if arrival.kind == "trace" else 10_000
    fleet = draw(fleets)
    faults = draw(st.none() | fault_plans())
    return ScenarioSpec(
        name=draw(names),
        description=draw(st.text(max_size=12)),
        n_requests=draw(st.integers(1, limit)),
        mix=tuple(draw(components(name=name)) for name in mix_names),
        arrival=arrival,
        fleet=fleet,
        slo=draw(slos),
        seed_salt=draw(st.integers(0, 2**32)),
        faults=faults if faults is not None and _fits(faults, fleet) else None,
        chaos=draw(st.none() | chaos_plans),
    )


@st.composite
def chip_designs(draw):
    cc = draw(st.integers(0, 4))
    return ChipDesign(
        n_groups=draw(st.integers(1, 8)),
        cc_per_group=cc,
        mc_per_group=draw(st.integers(1 if cc == 0 else 0, 4)),
        dram_gbps=draw(st.none() | positive),
        keep_fraction=draw(st.none() | unit),
    )


@st.composite
def planner_configs(draw):
    min_chips = draw(st.integers(1, 4))
    return PlannerConfig(
        chip_grid=tuple(
            draw(st.lists(chip_designs(), max_size=4, unique_by=lambda d: d.name))
        ),
        min_chips=min_chips,
        max_chips=draw(st.integers(min_chips, 8)),
        policies=tuple(
            draw(st.lists(st.sampled_from(POLICIES), min_size=1, max_size=2))
        ),
        include_autoscaled=draw(st.booleans()),
    )


@st.composite
def fleet_options(draw):
    n_chips = draw(st.integers(1, 8))
    autoscaled = draw(st.booleans())
    return FleetOption(
        n_chips=n_chips,
        policy="least_loaded" if autoscaled else draw(st.sampled_from(POLICIES)),
        autoscaled=autoscaled,
        min_chips=draw(st.integers(1, n_chips)),
    )


candidate_outcomes = st.builds(
    CandidateOutcome,
    design=chip_designs(),
    option=fleet_options(),
    n_completed=st.integers(0, 10_000),
    makespan_s=non_negative,
    ttft_p99_s=non_negative,
    latency_p95_s=non_negative,
    queue_wait_p99_s=non_negative,
    chips_provisioned=st.integers(1, 8),
    n_scale_events=st.integers(0, 100),
)


@st.composite
def fault_schedules(draw):
    """A valid timeline: chips go down, come back up, or degrade."""
    down, events, time_s = set(), [], 0.0
    for chip_id in draw(st.lists(st.integers(0, 3), max_size=8)):
        time_s += draw(non_negative)
        if chip_id in down:
            down.discard(chip_id)
            events.append(FaultEvent(time_s=time_s, kind="chip_up", chip_id=chip_id))
        elif draw(st.booleans()):
            down.add(chip_id)
            events.append(FaultEvent(time_s=time_s, kind="chip_down", chip_id=chip_id))
        else:
            events.append(
                FaultEvent(
                    time_s=time_s,
                    kind="dram_degrade",
                    chip_id=chip_id,
                    factor=draw(unit),
                )
            )
    return FaultSchedule(
        events=tuple(events), drain_policy=draw(st.sampled_from(DRAIN_POLICIES))
    )


ordinals = st.integers(0, 1000)
actors = st.sampled_from(CHAOS_ACTOR_KINDS)
messages = st.sampled_from(CHAOS_MESSAGE_KINDS)
chaos_events = st.one_of(
    st.builds(crash_actor, actors, ordinals),
    st.builds(hang_actor, actors, ordinals, st.integers(1, 8)),
    st.builds(drop_message, messages, ordinals),
    st.builds(delay_message, messages, ordinals, positive),
)
chaos_schedules = st.lists(chaos_events, max_size=6).map(
    lambda events: ChaosSchedule(events=tuple(events))
)

slo_checks = st.builds(
    SLOCheck,
    metric=st.sampled_from(("ttft_p99_s", "latency_p95_s", "queue_wait_p99_s")),
    target_s=positive,
    attained_s=non_negative,
)
design_bounds = st.builds(
    DesignBounds,
    design=chip_designs(),
    lb_ttft_p99_s=st.none() | non_negative,
    lb_latency_p95_s=st.none() | non_negative,
    reasons=st.lists(st.text(max_size=12), max_size=3).map(tuple),
)
plan_entries = st.builds(
    PlanEntry,
    design=chip_designs(),
    fleet=fleet_options(),
    chips_provisioned=st.integers(1, 8),
    chip_area_mm2=positive,
    fleet_area_mm2=positive,
    fleet_power_w=positive,
    ttft_p99_s=non_negative,
    latency_p95_s=non_negative,
    queue_wait_p99_s=non_negative,
    n_completed=st.integers(0, 10_000),
    makespan_s=non_negative,
    slo=st.lists(slo_checks, max_size=3).map(tuple),
    slo_attainment=st.floats(min_value=0.0, max_value=1.0),
    n_scale_events=st.integers(0, 100),
    survives_chip_loss=st.none() | st.booleans(),
)
incidents = st.builds(
    ActorIncident,
    session=st.integers(1, 8),
    actor=names,
    kind=st.sampled_from(INCIDENT_KINDS),
    detail=st.text(max_size=12),
    job_id=st.integers(-1, 100),
    attempt=st.integers(0, 5),
)

fault_events = (
    fault_schedules()
    .filter(lambda schedule: schedule.events)
    .map(lambda schedule: schedule.events[0])
)
fault_recoveries = st.builds(
    FaultRecovery,
    event=fault_events,
    baseline_p99_ttft_s=non_negative,
    dent_depth_s=non_negative,
    time_to_recover_s=st.none() | non_negative,
)

#: Every spec-side class, and every report block that decodes, with a
#: strategy for its valid values.
VALID = {
    WorkloadComponent: components(),
    ArrivalSpec: arrivals,
    AutoscalerSpec: autoscalers(),
    FleetSpec: fleets,
    SLOSpec: slos,
    FaultsSpec: fault_plans(),
    ChaosSpec: chaos_plans,
    ScenarioSpec: scenario_specs(),
    ChipDesign: chip_designs(),
    FleetOption: fleet_options(),
    PlannerConfig: planner_configs(),
    CandidateOutcome: candidate_outcomes,
    FaultEvent: fault_events,
    FaultSchedule: fault_schedules(),
    ChaosEvent: chaos_events,
    ChaosSchedule: chaos_schedules,
    SLOCheck: slo_checks,
    DesignBounds: design_bounds,
    PlanEntry: plan_entries,
    ActorIncident: incidents,
    FaultRecovery: fault_recoveries,
}

#: The top-level inputs a user hands in.
TOP_LEVEL = (ScenarioSpec, PlannerConfig, FaultSchedule, ChaosSchedule)


# ----------------------------------------------------------------------
# Decode failures name their JSON path
# ----------------------------------------------------------------------
def _spec_error(cls, data):
    with pytest.raises(SpecError) as excinfo:
        cls.from_dict(data)
    error = excinfo.value
    assert str(error).startswith(error.path)
    return error


class TestSpecError:
    @pytest.mark.parametrize(
        "data, path",
        [
            ({"name": "a", "mix": [{"weight": 1.0}]}, "mix[0].name"),
            ({"name": "a", "n_requests": "abc"}, "n_requests"),
            ({"name": "a", "mix": 5}, "mix"),
            ({"name": "a", "fleet": 3}, "fleet"),
            ({"name": "a", "n_request": 5}, "n_request"),
        ],
        ids=["missing-name", "uncoercible", "not-a-list", "not-an-object", "unknown-key"],
    )
    def test_each_failure_names_its_path(self, data, path):
        assert _spec_error(ScenarioSpec, data).path == path

    def test_path_reaches_into_nested_lists(self):
        mix = [{"name": "a"}, {"name": "b"}, {"name": "c", "priority": "high"}]
        error = _spec_error(ScenarioSpec, {"name": "x", "mix": mix})
        assert error.path == "mix[2].priority"
        assert str(error) == "mix[2].priority: expected a number, got str"

    def test_tuple_arity_and_element_paths(self):
        data = {"name": "a", "prompt_token_range": [1, 2, 3]}
        assert _spec_error(WorkloadComponent, data).path == "prompt_token_range"
        data = {"name": "a", "output_token_choices": [8, "x"]}
        assert _spec_error(WorkloadComponent, data).path == "output_token_choices[1]"

    def test_post_init_check_keeps_its_message_after_the_path(self):
        mix = [{"name": "a"}, {"name": "b", "priority": -1.0}]
        error = _spec_error(ScenarioSpec, {"name": "x", "mix": mix})
        assert error.path == "mix[1]"
        assert str(error) == "mix[1]: component 'b': priority must be positive"
        with pytest.raises(ValueError, match="n_requests must be >= 1"):
            ScenarioSpec.from_dict({"name": "x", "n_requests": 0})

    @pytest.mark.parametrize(
        "cls, data, path",
        [
            (FleetOption, {"n_chips": 1, "autoscaled": 1}, "autoscaled"),
            (ChipDesign, {"n_groups": 1.5, "cc_per_group": 1, "mc_per_group": 1}, "n_groups"),
            (ChipDesign, {"n_groups": True, "cc_per_group": 1, "mc_per_group": 1}, "n_groups"),
            (FaultEvent, {"time_s": 10**400, "kind": "chip_down", "chip_id": 0}, "time_s"),
            (FaultEvent, {"time_s": 0.0, "kind": 7, "chip_id": 0}, "kind"),
            (ChaosSchedule, {"events": [{"kind": "crash_actor"}]}, "events[0]"),
            (FaultSchedule, [], ""),
        ],
        ids=["bool", "fractional-int", "bool-as-int", "float-overflow", "str", "post-init", "not-an-object"],
    )
    def test_coercion_is_by_annotation(self, cls, data, path):
        assert _spec_error(cls, data).path == path

    def test_an_annotation_without_a_codec_is_a_type_error(self):
        @dataclass(frozen=True)
        class Tagged(Spec):
            tags: Dict[int, int]

        with pytest.raises(TypeError, match="no spec codec"):
            Tagged(tags={}).to_dict()

    def test_report_dict_values_name_their_key(self):
        data = json.loads((GOLDEN_DIR / "chat-poisson.json").read_text())
        data["component_counts"]["text_chat"] = "many"
        error = _spec_error(ScenarioReport, data)
        assert error.path == "component_counts.text_chat"

    def test_integral_floats_and_ints_coerce(self):
        design = ChipDesign.from_dict(
            {"n_groups": 2.0, "cc_per_group": 1, "mc_per_group": 1, "dram_gbps": 100}
        )
        assert design == ChipDesign(n_groups=2, cc_per_group=1, mc_per_group=1, dram_gbps=100.0)
        assert type(design.n_groups) is int and type(design.dram_gbps) is float


#: Every float field of ArrivalSpec, on an arrival of a kind it applies to.
ARRIVAL_FLOATS = [
    ("poisson", "rate_rps"),
    ("bursty", "burst_multiplier"),
    ("bursty", "mean_calm_arrivals"),
    ("bursty", "mean_burst_arrivals"),
    ("diurnal", "period_s"),
]


class TestNonFiniteNumbers:
    """JSON text may spell NaN and Infinity; a spec file names the field."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=repr)
    @pytest.mark.parametrize(
        "kind, field", ARRIVAL_FLOATS, ids=[field for _, field in ARRIVAL_FLOATS]
    )
    def test_arrival_fields(self, kind, field, value):
        text = json.dumps({"name": "x", "arrival": {"kind": kind, field: value}})
        with pytest.raises(SpecError) as excinfo:
            ScenarioSpec.from_json(text)
        assert str(excinfo.value) == (
            f"arrival.{field}: expected a finite number, got {value!r}"
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=repr)
    def test_trace_times_name_the_element(self, value):
        arrival = {"kind": "trace", "times": [0.0, 1.0, 2.0, value]}
        text = json.dumps({"name": "x", "arrival": arrival})
        with pytest.raises(SpecError) as excinfo:
            ScenarioSpec.from_json(text)
        assert str(excinfo.value) == (
            f"arrival.times[3]: expected a finite number, got {value!r}"
        )


# ----------------------------------------------------------------------
# Defaults come from the dataclass, and == specs hash equal
# ----------------------------------------------------------------------
#: ``(class, only the required keys, the same as constructor kwargs)``.
MINIMAL = [
    (WorkloadComponent, {"name": "a"}, {"name": "a"}),
    (ArrivalSpec, {}, {}),
    (AutoscalerSpec, {}, {}),
    (FleetSpec, {}, {}),
    (SLOSpec, {}, {}),
    (FaultsSpec, {}, {}),
    (ChaosSpec, {}, {}),
    (ScenarioSpec, {"name": "a"}, {"name": "a"}),
    (ChipDesign, *[{"n_groups": 1, "cc_per_group": 1, "mc_per_group": 1}] * 2),
    (FleetOption, {"n_chips": 1}, {"n_chips": 1}),
    (PlannerConfig, {}, {}),
    (
        CandidateOutcome,
        {
            "design": {"n_groups": 1, "cc_per_group": 1, "mc_per_group": 0},
            "option": {"n_chips": 2},
            "n_completed": 3,
            "makespan_s": 1.0,
            "ttft_p99_s": 0.5,
            "latency_p95_s": 0.75,
            "queue_wait_p99_s": 0.25,
            "chips_provisioned": 2,
        },
        {
            "design": ChipDesign(n_groups=1, cc_per_group=1, mc_per_group=0),
            "option": FleetOption(n_chips=2),
            "n_completed": 3,
            "makespan_s": 1.0,
            "ttft_p99_s": 0.5,
            "latency_p95_s": 0.75,
            "queue_wait_p99_s": 0.25,
            "chips_provisioned": 2,
        },
    ),
    (FaultEvent, *[{"time_s": 1.0, "kind": "chip_down", "chip_id": 0}] * 2),
    (FaultSchedule, {}, {}),
    (ChaosEvent, {"kind": "crash_actor"}, {"kind": "crash_actor"}),
    (ChaosSchedule, {}, {}),
]


@pytest.mark.parametrize(
    "cls, data, kwargs", MINIMAL, ids=[cls.__name__ for cls, _, _ in MINIMAL]
)
def test_required_keys_alone_decode_to_the_defaults(cls, data, kwargs):
    # Classes whose all-default form fails a check (a faults block with
    # no fault, a crash with no actor) must fail it the same way.
    try:
        expected = cls(**kwargs)
    except ValueError as error:
        with pytest.raises(SpecError) as excinfo:
            cls.from_dict(data)
        assert str(excinfo.value) == str(error)
        return
    assert cls.from_dict(data) == expected
    assert cls.from_dict(expected.to_dict()) == expected


def test_equal_specs_hash_equal():
    as_int = ScenarioSpec(name="a", fleet=FleetSpec(autoscaler=AutoscalerSpec(cooldown_s=1)))
    as_float = ScenarioSpec(name="a", fleet=FleetSpec(autoscaler=AutoscalerSpec(cooldown_s=1.0)))
    assert as_int == as_float
    assert as_int.spec_hash() == as_float.spec_hash()


# ----------------------------------------------------------------------
# Emission rules
# ----------------------------------------------------------------------
#: Specs of every kind-scoped class, with the keys each writes.
KIND_SCOPED = [
    (ArrivalSpec(kind="poisson"), {"kind", "rate_rps"}),
    (
        ArrivalSpec(kind="bursty"),
        {"kind", "rate_rps", "burst_multiplier", "mean_calm_arrivals", "mean_burst_arrivals"},
    ),
    (ArrivalSpec(kind="diurnal"), {"kind", "rate_rps", "period_s"}),
    (ArrivalSpec(kind="trace", times=(0.0,)), {"kind", "times"}),
    (FaultEvent(time_s=0.0, kind="chip_down", chip_id=0), {"time_s", "kind", "chip_id"}),
    (
        FaultEvent(time_s=0.0, kind="dram_degrade", chip_id=0, factor=0.5),
        {"time_s", "kind", "chip_id", "factor"},
    ),
    (crash_actor("chip", 1), {"kind", "actor", "at"}),
    (hang_actor("chip", 1, 2), {"kind", "actor", "at", "for_shards"}),
    (drop_message("RunShard", 0), {"kind", "message", "nth"}),
    (delay_message("RunShard", 0, 0.5), {"kind", "message", "nth", "by_s"}),
]


class TestEmission:
    def test_fields_at_their_default_are_not_written(self):
        data = ScenarioSpec(name="a").to_dict()
        assert "faults" not in data and "chaos" not in data
        assert data["fleet"].keys().isdisjoint({"autoscaler"})
        assert data["slo"] == {}
        assert data["mix"][0].keys().isdisjoint({"tenant", "priority"})
        design = ChipDesign(n_groups=1, cc_per_group=1, mc_per_group=1)
        assert design.to_dict() == {"n_groups": 1, "cc_per_group": 1, "mc_per_group": 1}
        assert "outage_s" not in FaultsSpec(n_chip_failures=1).to_dict()

    def test_set_fields_are_written(self):
        component = WorkloadComponent(name="a", tenant="t", priority=2.0)
        assert component.to_dict()["tenant"] == "t"
        assert component.to_dict()["priority"] == 2.0
        assert SLOSpec(ttft_p99_s=1).to_dict() == {"ttft_p99_s": 1.0}

    @pytest.mark.parametrize(
        "spec, keys",
        KIND_SCOPED,
        ids=[f"{type(spec).__name__}-{spec.kind}" for spec, _ in KIND_SCOPED],
    )
    def test_kind_scoped_fields_are_written_only_for_their_kinds(self, spec, keys):
        assert set(spec.to_dict()) == keys
        assert type(spec).from_dict(spec.to_dict()) == spec

    def test_registered_scenarios_survive_a_json_round_trip(self):
        for name in available_scenarios():
            text = get_scenario(name).canonical_json()
            assert ScenarioSpec.from_dict(json.loads(text)).canonical_json() == text


# ----------------------------------------------------------------------
# Report-side rules: Dict[str, X] objects and derived properties
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Tally(Spec):
    derived = ("total", "busy")

    counts: Dict[str, int]
    spans: Dict[str, Tuple[float, ...]]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def busy(self) -> bool:
        return self.total > 0


tallies = st.builds(
    Tally,
    counts=st.dictionaries(names, st.integers(0, 10**6), max_size=4),
    spans=st.dictionaries(names, st.lists(non_negative, max_size=3).map(tuple), max_size=3),
)


class TestReportRules:
    @given(tally=tallies)
    @settings(max_examples=60, deadline=None)
    def test_dict_round_trip(self, tally):
        data = json.loads(tally.to_json())
        assert data["counts"] == tally.counts
        rebuilt = Tally.from_dict(data)
        assert rebuilt == tally
        assert rebuilt.to_dict() == data
        assert Tally.from_json(tally.to_json()) == tally

    @pytest.mark.parametrize(
        "data, path",
        [
            ({"counts": [["a", 1]], "spans": {}}, "counts"),
            ({"counts": {"a": 1, "b": "x"}, "spans": {}}, "counts.b"),
            ({"counts": {}, "spans": {"a": [1.0, "x"]}}, "spans.a[1]"),
            ({"counts": {}, "spans": {"a": 2.0}}, "spans.a"),
        ],
        ids=["not-an-object", "bad-item", "bad-nested-item", "item-not-a-list"],
    )
    def test_dict_failures_name_their_path(self, data, path):
        assert _spec_error(Tally, data).path == path

    def test_derived_properties_are_written_after_the_fields(self):
        data = Tally(counts={"a": 2, "b": 3}, spans={}).to_dict()
        assert list(data) == ["counts", "spans", "total", "busy"]
        assert data["total"] == 5 and data["busy"] is True

    def test_derived_keys_are_accepted_and_ignored_on_decode(self):
        tally = Tally(counts={"a": 2}, spans={})
        # The fields determine a derived value, so a stale one is ignored.
        stale = {"counts": {"a": 2}, "spans": {}, "total": 99, "busy": False}
        assert Tally.from_dict(stale) == tally
        assert Tally.from_dict(stale).to_dict()["total"] == 2

    def test_other_unknown_keys_are_still_rejected(self):
        data = {"counts": {}, "spans": {}, "totals": 0}
        error = _spec_error(Tally, data)
        assert error.path == "totals"
        assert "unknown key" in str(error)

    def test_to_json_is_indented_key_sorted_with_a_trailing_newline(self):
        text = Tally(counts={"b": 1, "a": 2}, spans={}).to_json()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert text.index('"a"') < text.index('"b"')


class TestInlinedRule:
    """An :func:`~repro.codec.inlined` spec's keys live in its owner's object."""

    RECOVERY = FaultRecovery(
        event=FaultEvent(time_s=2.0, kind="dram_degrade", chip_id=1, factor=0.5),
        baseline_p99_ttft_s=0.1,
        dent_depth_s=0.25,
        time_to_recover_s=None,
    )

    def test_keys_are_written_into_the_owner(self):
        assert self.RECOVERY.to_dict() == {
            "time_s": 2.0,
            "kind": "dram_degrade",
            "chip_id": 1,
            "factor": 0.5,
            "baseline_p99_ttft_s": 0.1,
            "dent_depth_s": 0.25,
            "time_to_recover_s": None,
        }
        assert FaultRecovery.from_dict(self.RECOVERY.to_dict()) == self.RECOVERY

    @pytest.mark.parametrize(
        "change, path",
        [
            ({"time_s": "x"}, "time_s"),
            ({"event": {}}, "event"),
            ({"kind": None}, "kind"),
        ],
        ids=["bad-inlined-value", "nested-form-is-unknown", "bad-inlined-kind"],
    )
    def test_failures_name_the_owners_path(self, change, path):
        data = {**self.RECOVERY.to_dict(), **change}
        assert _spec_error(FaultRecovery, data).path == path

    def test_missing_inlined_key_is_reported(self):
        data = self.RECOVERY.to_dict()
        del data["chip_id"]
        assert _spec_error(FaultRecovery, data).path == "chip_id"

    def test_colliding_keys_are_refused(self):
        @dataclass(frozen=True)
        class Clash(Spec):
            event: FaultEvent = inlined()
            kind: str = "x"

        with pytest.raises(TypeError, match="kind"):
            Clash.from_dict({})


# ----------------------------------------------------------------------
# Property and fuzz suites
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
def test_round_trip_is_identity_and_to_dict_a_fixed_point(cls):
    @given(spec=VALID[cls])
    @settings(max_examples=40, deadline=None)
    def check(spec):
        data = json.loads(json.dumps(spec.to_dict()))
        rebuilt = cls.from_dict(data)
        assert rebuilt == spec
        assert rebuilt.to_dict() == data

    check()


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def _splice(draw, node):
    """``node`` with one value, at a randomly chosen depth, replaced."""
    if isinstance(node, dict) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node)))
        return {**node, key: _splice(draw, node[key])}
    if isinstance(node, list) and node and draw(st.booleans()):
        index = draw(st.integers(0, len(node) - 1))
        return node[:index] + [_splice(draw, node[index])] + node[index + 1 :]
    return draw(json_values)


@st.composite
def spliced(draw, valid):
    return _splice(draw, json.loads(json.dumps(draw(valid).to_dict())))


@pytest.mark.parametrize("cls", TOP_LEVEL, ids=lambda cls: cls.__name__)
def test_only_spec_error_escapes_from_dict(cls):
    @given(data=json_values | spliced(VALID[cls]))
    @settings(max_examples=150, deadline=None)
    def check(data):
        try:
            cls.from_dict(data)
        except SpecError:
            pass

    check()
