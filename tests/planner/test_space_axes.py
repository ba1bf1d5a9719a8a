"""The four-axis chip design space and its CLI surface.

PR 7 widened :class:`ChipDesign` from pure geometry to the full candidate
space the branch-and-bound planner searches — DRAM bandwidth tiers and
activation-pruning keep fractions — with a hard compatibility constraint:
designs that leave the new axes unset must serialize, hash and name
byte-identically to the pre-axis format (golden plan reports and plan
hashes must not move).  These tests pin that constraint plus the axis
helpers (:func:`build_chip_grid`, :func:`parse_mixes`,
:meth:`PlannerConfig.from_axes`, :func:`~repro.planner.bnb.axis_tuple`)
and the CLI flags that expose them.
"""

from __future__ import annotations

import json

import pytest

from repro.planner import (
    ChipDesign,
    PlannerConfig,
    build_chip_grid,
    parse_mixes,
)
from repro.planner.__main__ import main
from repro.planner.bnb import axis_tuple
from repro.planner.space import BASE_DRAM_GBPS, DEFAULT_CHIP_MIXES, DEFAULT_GROUP_COUNTS


class TestChipDesignAxes:
    def test_optional_axes_default_to_none(self):
        design = ChipDesign(2, 2, 2)
        assert design.dram_gbps is None
        assert design.keep_fraction is None

    def test_name_is_axis_free_when_axes_unset(self):
        # Historical names key per-design simulators and golden reports.
        assert ChipDesign(4, 2, 2).name == "4x2cc2mc"
        assert ChipDesign(8, 2, 2, dram_gbps=204.8).name == "8x2cc2mc-d204.8"
        assert (
            ChipDesign(8, 2, 2, dram_gbps=204.8, keep_fraction=0.5).name
            == "8x2cc2mc-d204.8-k0.5"
        )

    def test_to_dict_omits_unset_axes(self):
        assert ChipDesign(2, 1, 1).to_dict() == {
            "n_groups": 2,
            "cc_per_group": 1,
            "mc_per_group": 1,
        }
        full = ChipDesign(2, 1, 1, dram_gbps=102.4, keep_fraction=0.75)
        assert full.to_dict() == {
            "n_groups": 2,
            "cc_per_group": 1,
            "mc_per_group": 1,
            "dram_gbps": 102.4,
            "keep_fraction": 0.75,
        }

    @pytest.mark.parametrize(
        "design",
        [
            ChipDesign(2, 1, 1),
            ChipDesign(2, 1, 1, dram_gbps=102.4),
            ChipDesign(2, 1, 1, keep_fraction=0.5),
            ChipDesign(1, 3, 2, dram_gbps=51.2, keep_fraction=1.0),
        ],
    )
    def test_serialization_round_trips(self, design):
        assert ChipDesign.from_dict(design.to_dict()) == design
        assert ChipDesign.from_dict(json.loads(json.dumps(design.to_dict()))) == design

    def test_axes_resolve_defaults(self):
        assert axis_tuple(ChipDesign(2, 1, 1)) == ((1, 1), 2, BASE_DRAM_GBPS, 1.0)

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="dram_gbps"):
            ChipDesign(1, 1, 1, dram_gbps=0.0)
        with pytest.raises(ValueError, match="keep_fraction"):
            ChipDesign(1, 1, 1, keep_fraction=0.0)
        with pytest.raises(ValueError, match="keep_fraction"):
            ChipDesign(1, 1, 1, keep_fraction=1.5)

    def test_dram_axis_reaches_the_system_config(self):
        slow = ChipDesign(1, 1, 1, dram_gbps=51.2).system()
        fast = ChipDesign(1, 1, 1, dram_gbps=204.8).system()
        assert slow.chip.dram.peak_bandwidth_bytes_per_s == 51.2e9
        assert fast.chip.dram.peak_bandwidth_bytes_per_s == 204.8e9

    def test_keep_axis_reaches_the_system_config(self):
        pruned = ChipDesign(1, 1, 1, keep_fraction=0.5).system()
        dense = ChipDesign(1, 1, 1).system()
        assert pruned != dense


class TestBuildChipGrid:
    def test_defaults_reproduce_the_default_grid(self):
        assert PlannerConfig.from_axes().chip_grid == PlannerConfig().chip_grid

    def test_cross_product_size_and_order(self):
        grid = build_chip_grid(
            groups=(1, 2),
            mixes=((1, 1), (2, 1)),
            dram_gbps=(None, 204.8),
            keep_fractions=(None, 0.5),
        )
        assert len(grid) == 16
        # (groups, mixes, dram, keep), outermost first.
        assert grid[0] == ChipDesign(1, 1, 1)
        assert grid[1] == ChipDesign(1, 1, 1, keep_fraction=0.5)
        assert grid[2] == ChipDesign(1, 1, 1, dram_gbps=204.8)
        assert grid[-1] == ChipDesign(2, 2, 1, dram_gbps=204.8, keep_fraction=0.5)

    def test_large_spaces_are_one_call(self):
        grid = build_chip_grid(
            groups=range(1, 9),
            mixes=tuple((1, mc) for mc in range(1, 8)),
            dram_gbps=tuple(51.2 * i for i in range(1, 17)),
            keep_fractions=tuple(0.4 + 0.04 * i for i in range(16)),
        )
        assert len(grid) == 8 * 7 * 16 * 16
        assert len({design.name for design in grid}) == len(grid)


class TestParseMixes:
    def test_parses_comma_separated_pairs(self):
        assert parse_mixes("2:2,3:1") == ((2, 2), (3, 1))
        assert parse_mixes(" 1:1 , 1:3 ") == ((1, 1), (1, 3))

    @pytest.mark.parametrize("bad", ["", "2-2", "2:2:2", "a:b", ","])
    def test_rejects_malformed_lists(self, bad):
        with pytest.raises(ValueError):
            parse_mixes(bad)


class TestFromAxes:
    def test_default_space_is_unchanged(self):
        # The golden-plan suite depends on the default space not moving.
        assert PlannerConfig.from_axes() == PlannerConfig()

    def test_fleet_axes_pass_through(self):
        config = PlannerConfig.from_axes(
            groups=(1,),
            mixes=((1, 1),),
            min_chips=2,
            max_chips=3,
            policies=("round_robin",),
            include_autoscaled=False,
        )
        options = config.fleet_options(with_autoscaled=True)
        assert [option.label for option in options] == [
            "static2/round_robin",
            "static3/round_robin",
        ]

    def test_group_counts_of_eight_and_beyond(self):
        config = PlannerConfig.from_axes(groups=tuple(range(1, 13)), mixes=((1, 1),))
        assert len(config.chip_grid) == 12
        assert max(design.n_groups for design in config.chip_grid) == 12


class TestAxisCliFlags:
    def run_json(self, *extra):
        argv = [
            "plan", "chat-poisson",
            "--max-chips", "1", "--static-only", "--json",
            *extra,
        ]
        import io
        from contextlib import redirect_stdout

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            main(argv)
        return json.loads(buffer.getvalue())

    def test_axis_flags_shape_the_candidate_space(self):
        report = self.run_json(
            "--groups", "1,2",
            "--mixes", "1:1",
            "--dram-gbps", "102.4,204.8",
            "--keep-fractions", "0.5,1.0",
        )
        assert report["n_chip_designs"] == 2 * 1 * 2 * 2
        designs = [verdict["design"] for verdict in report["design_bounds"]]
        assert {
            "n_groups": 1,
            "cc_per_group": 1,
            "mc_per_group": 1,
            "dram_gbps": 102.4,
            "keep_fraction": 0.5,
        } in designs

    def test_search_flag_selects_bnb(self):
        flat = self.run_json("--groups", "1,2", "--mixes", "1:1")
        bnb = self.run_json("--groups", "1,2", "--mixes", "1:1", "--search", "bnb")
        assert "search" not in flat  # default emits axis-free
        assert bnb["search"] == "bnb"
        assert bnb["best"] == flat["best"]
        assert bnb["frontier"] == flat["frontier"]

    def test_policies_flag(self):
        report = self.run_json(
            "--groups", "1", "--mixes", "1:1", "--policies", "round_robin"
        )
        labels = {
            entry["fleet"]["policy"] for entry in report["frontier"]
        }
        assert labels == {"round_robin"}
