"""Fault-aware planning: the survive-one-chip-loss requirement.

``--require-chip-loss`` chaos-probes every SLO-meeting candidate by
replaying the trace with chip 0 permanently failed a quarter of the way
in; the best plan must then come from the survivors.  These tests pin the
probe's semantics (single chips die by construction, probes are
deterministic), the report plumbing (annotation, flag round trip, CLI
rendering), and the headline behaviour: requiring survival never picks a
*cheaper* plan, and rules out the fragile single-chip optimum.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.batch import ServiceTimeBoundsPricer
from repro.planner import PlannerConfig, plan_scenario
from repro.planner.evaluate import candidate_survives_chip_loss
from repro.planner.plan import SEARCH_MODES
from repro.planner.report import PlanReport, format_plan_report
from repro.planner.space import ChipDesign
from repro.scenarios import (
    ArrivalSpec,
    FleetSpec,
    ScenarioSpec,
    SLOSpec,
    WorkloadComponent,
)
from repro.scenarios.compile import compile_scenario

SPEC = ScenarioSpec(
    name="survival-prop",
    n_requests=24,
    mix=(
        WorkloadComponent(
            name="chat",
            images=0,
            prompt_token_range=(8, 48),
            output_token_choices=(4, 8),
            output_token_weights=(0.5, 0.5),
        ),
    ),
    arrival=ArrivalSpec(kind="poisson", rate_rps=4.0),
    fleet=FleetSpec(n_chips=1, max_batch_size=4, context_bucket=32),
    slo=SLOSpec(ttft_p99_s=1.0),
)

CONFIG = PlannerConfig(
    chip_grid=(ChipDesign(1, 2, 2), ChipDesign(2, 1, 1)),
    min_chips=1,
    max_chips=2,
    include_autoscaled=False,
)


#: Two multi-chip options per design, so a design has several probes.
WIDER = replace(CONFIG, max_chips=3)


@pytest.fixture(scope="module")
def compiled():
    return compile_scenario(SPEC)


class TestSurvivalProbe:
    def test_single_chip_fleets_die_by_construction(self, compiled):
        design = CONFIG.chip_grid[0]
        option = next(
            o for o in CONFIG.fleet_options(with_autoscaled=False) if o.n_chips == 1
        )
        assert not candidate_survives_chip_loss(
            SPEC, compiled.trace, design, option, SPEC.slo.targets()
        )

    def test_probe_is_deterministic(self, compiled):
        design = CONFIG.chip_grid[0]
        option = next(
            o for o in CONFIG.fleet_options(with_autoscaled=False) if o.n_chips == 2
        )
        verdicts = {
            candidate_survives_chip_loss(
                SPEC, compiled.trace, design, option, SPEC.slo.targets()
            )
            for _ in range(2)
        }
        assert len(verdicts) == 1  # run to run


class TestRequireChipLoss:
    @pytest.fixture(scope="class")
    def plain(self):
        return plan_scenario(SPEC, CONFIG)

    @pytest.fixture(scope="class")
    def resilient(self):
        return plan_scenario(SPEC, CONFIG, require_chip_loss=True)

    def test_flag_defaults_off_and_leaves_entries_unannotated(self, plain):
        assert plain.require_chip_loss is False
        assert all(e.survives_chip_loss is None for e in plain.frontier)

    def test_meeting_entries_are_probed_when_required(self, resilient):
        assert resilient.require_chip_loss is True
        probed = [e for e in resilient.frontier if e.slo_met]
        assert probed  # the space is small enough that something meets
        for entry in probed:
            assert entry.survives_chip_loss in (True, False)

    def test_best_plan_survives_and_never_gets_cheaper(self, plain, resilient):
        if resilient.feasible:
            assert resilient.best.survives_chip_loss is True
            assert resilient.best.fleet.n_chips >= 2
            assert resilient.best.fleet_area_mm2 >= plain.best.fleet_area_mm2

    def test_report_round_trips_with_the_requirement(self, resilient):
        data = resilient.to_json()
        assert PlanReport.from_json(data).to_json() == data

    def test_formatted_report_names_the_requirement(self, plain, resilient):
        text = format_plan_report(resilient)
        assert "survive one chip loss" in text
        assert "[survives chip loss]" in text or "[dies with a chip]" in text
        assert "survive one chip loss" not in format_plan_report(plain)


class TestProbeSimulators:
    """Every chip-loss probe of one design runs on one simulator."""

    @pytest.fixture
    def pricers(self, monkeypatch):
        built = []
        init = ServiceTimeBoundsPricer.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ServiceTimeBoundsPricer, "__init__", counted)
        return built

    @pytest.mark.parametrize("search", SEARCH_MODES)
    def test_pruned_probes_price_nothing(self, pricers, search):
        # The bound pass's pricer seeds each probed design's memo, so the
        # plan builds that one pricer and no probe fleet builds another.
        plan_scenario(SPEC, WIDER, search=search, require_chip_loss=True)
        assert len(pricers) == 1

    def test_brute_force_probes_price_each_design_once(self, pricers):
        # Without a bound pass, a design's first probe fleet prices it and
        # its later probes read that memo.
        plan_scenario(SPEC, WIDER, prune=False)
        unprobed = len(pricers)
        pricers.clear()
        plan_scenario(SPEC, WIDER, prune=False, require_chip_loss=True)
        assert len(pricers) - unprobed == len(WIDER.chip_grid)
