"""Byte-identity of batched experiment reports with the scalar path.

PR acceptance: fig10/fig11 (and the ablation/design-space grids) now run
through the batch engine, and their formatted reports must be *byte*
identical to what the scalar per-design simulation produces.
"""

import pytest

from repro.baselines.snitch import SnitchBaseline
from repro.core.config import default_system, homo_cc_system, homo_mc_system
from repro.core.simulator import PerformanceSimulator
from repro.experiments import fig10_config, fig11_hetero
from repro.experiments.ablations import cluster_mix_ablation, dram_bandwidth_ablation
from repro.experiments.parallel import (
    DEFAULT_CLUSTER_MIXES,
    evaluate_design_point,
    sweep_design_space,
)
from repro.models.mllm import InferenceRequest, get_mllm


class TestFig11ByteIdentity:
    def scalar_fig11_result(self):
        """Fig. 11 recomputed the pre-batch way: one simulator per design."""
        request = InferenceRequest(images=1, prompt_text_tokens=32, output_tokens=64)
        model = get_mllm("sphinx-tiny")
        designs = {
            "snitch": SnitchBaseline(),
            "homo_cc": PerformanceSimulator(homo_cc_system()),
            "homo_mc": PerformanceSimulator(homo_mc_system()),
            "edgemm": PerformanceSimulator(default_system()),
        }
        latency = {}
        for name, design in designs.items():
            result = design.run_request(model, request)
            latency[name] = {
                "vision_encoder": result.encode_latency_s,
                "llm_prefill": result.prefill_latency_s,
                "llm_decode": result.decode_latency_s,
                "full_mllm": result.total_latency_s,
            }
        baseline = latency["snitch"]
        speedup = {
            name: {
                phase: (baseline[phase] / value if value > 0 else float("inf"))
                for phase, value in phases.items()
            }
            for name, phases in latency.items()
        }
        return fig11_hetero.Fig11Result(
            model_name="sphinx-tiny",
            request=request,
            latency_s=latency,
            speedup=speedup,
        )

    def test_latencies_bit_identical_to_scalar(self):
        batched = fig11_hetero.run_fig11()
        scalar = self.scalar_fig11_result()
        assert batched.latency_s == scalar.latency_s
        assert batched.speedup == scalar.speedup

    def test_report_byte_identical_to_scalar(self):
        batched = fig11_hetero.format_report(fig11_hetero.run_fig11())
        scalar = fig11_hetero.format_report(self.scalar_fig11_result())
        assert batched == scalar


class TestFig10ByteIdentity:
    def test_report_byte_identical_to_direct_models(self):
        from repro.arch.area_power import AreaPowerModel
        from repro.arch.chip import Chip, ChipConfig

        chip_config = ChipConfig()
        direct = fig10_config.Fig10Result(
            configuration=Chip(chip_config).describe(),
            area=AreaPowerModel(chip_config).area_report(),
            power=AreaPowerModel(chip_config).power_report(utilization=0.1),
            paper_reference=dict(fig10_config.PAPER_REFERENCE),
        )
        batched = fig10_config.run_fig10()
        assert fig10_config.format_report(batched) == fig10_config.format_report(direct)
        assert fig10_config.configuration_matches_paper(batched)


class TestSweepIdentity:
    @pytest.mark.parametrize(
        "n_groups_options, cluster_mixes",
        [
            ((2, 4), DEFAULT_CLUSTER_MIXES),
            ((2,), DEFAULT_CLUSTER_MIXES),
            ((1, 3), ((3, 1), (1, 3))),
            ((4,), ((2, 0), (0, 0), (0, 2), (1, 1))),
        ],
        ids=["default", "two-groups", "custom-mixes", "empty-mix-skipped"],
    )
    def test_sweep_equals_scalar_oracle(self, n_groups_options, cluster_mixes):
        geometries = [
            (n_groups, cc, mc)
            for n_groups in n_groups_options
            for cc, mc in cluster_mixes
            if (cc, mc) != (0, 0)
        ]
        assert sweep_design_space(
            n_groups_options=n_groups_options, cluster_mixes=cluster_mixes
        ) == [evaluate_design_point(*geometry) for geometry in geometries]

    def test_custom_request_equals_scalar_oracle(self):
        request = InferenceRequest(images=2, prompt_text_tokens=16, output_tokens=8)
        assert sweep_design_space(
            n_groups_options=(2,), cluster_mixes=((3, 1),), request=request
        ) == [
            evaluate_design_point(
                2, 3, 1, images=2, prompt_text_tokens=16, output_tokens=8
            )
        ]


class TestAblationIdentity:
    def test_bandwidth_rows_match_scalar_recomputation(self):
        from dataclasses import replace

        from repro.arch.dram import DRAMConfig
        from repro.experiments.ablations import DEFAULT_REQUEST

        rows = dram_bandwidth_ablation(bandwidths_gbs=(51.2, 102.4))
        model = get_mllm("sphinx-tiny")
        base = default_system()
        for row in rows:
            dram = DRAMConfig(peak_bandwidth_bytes_per_s=row.bandwidth_gbs * 1e9)
            chip = replace(base.chip, dram=dram)
            system = replace(base, chip=chip, name=f"edgemm_{row.bandwidth_gbs:.0f}gbs")
            scalar = PerformanceSimulator(system).run_request(model, DEFAULT_REQUEST)
            assert row.decode_latency_s == scalar.decode_latency_s
            assert row.tokens_per_second == scalar.tokens_per_second
            assert row.decode_bound == scalar.phase("llm_decode").bound

    def test_mix_rows_match_scalar_recomputation(self):
        from repro.core.config import scaled_system
        from repro.experiments.ablations import DEFAULT_REQUEST

        rows = cluster_mix_ablation(mixes=((2, 2), (1, 3)))
        model = get_mllm("sphinx-tiny")
        for row in rows:
            system = scaled_system(
                n_groups=4,
                cc_clusters_per_group=row.cc_clusters_per_group,
                mc_clusters_per_group=row.mc_clusters_per_group,
            )
            scalar = PerformanceSimulator(system).run_request(model, DEFAULT_REQUEST)
            assert row.total_latency_s == scalar.total_latency_s
            assert row.tokens_per_second == scalar.tokens_per_second
