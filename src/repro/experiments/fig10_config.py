"""EXP-F10 — design configuration, area and power (paper Fig. 10).

The paper implements EdgeMM at 22 nm / 1 GHz and reports the chip
configuration (4 groups x (2 CC + 2 MC clusters), 4 CC-cores or 2 MC-cores
per cluster), a post-P&R power of 112 mW, the SA occupying 62 % of a
CC-core and the CIM macro occupying 81 % of an MC-core.  This experiment
reports the same quantities from the analytical area/power model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..arch.area_power import AreaPowerModel, AreaReport, PowerReport
from ..arch.chip import Chip, ChipConfig
from .runner import format_table


#: Published reference values used for comparison in the report.
PAPER_REFERENCE: Dict[str, float] = {
    "groups": 4,
    "cc_clusters": 8,
    "mc_clusters": 8,
    "cc_cores_per_cluster": 4,
    "mc_cores_per_cluster": 2,
    "frequency_ghz": 1.0,
    "power_mw": 112.0,
    "sa_fraction_of_cc_core": 0.62,
    "cim_fraction_of_mc_core": 0.81,
    "peak_tflops_bf16": 18.0,
}


@dataclass(frozen=True)
class Fig10Result:
    configuration: Dict[str, object]
    area: AreaReport
    power: PowerReport
    paper_reference: Dict[str, float]


def run_fig10(chip_config: ChipConfig = None, *, utilization: float = 0.1) -> Fig10Result:
    """Report configuration, area and power.

    ``utilization`` defaults to 0.1 — the average compute-array activity
    during MLLM inference is low because the dominant decode phase is
    memory-bound, which is the operating point the paper's 112 mW post-P&R
    power figure is compared against (see docs/experiments.md).
    """
    chip_config = chip_config or ChipConfig()
    chip = Chip(chip_config)
    model = AreaPowerModel(chip_config)
    return Fig10Result(
        configuration=chip.describe(),
        area=model.area_report(),
        power=model.power_report(utilization=utilization),
        paper_reference=dict(PAPER_REFERENCE),
    )


def format_report(result: Fig10Result) -> str:
    config = result.configuration
    config_rows = [[key, value] for key, value in sorted(config.items())]
    area_rows = [
        ["CC-core area (mm^2)", f"{result.area.cc_core_mm2:.4f}"],
        ["MC-core area (mm^2)", f"{result.area.mc_core_mm2:.4f}"],
        [
            "SA fraction of CC-core",
            f"{100 * result.area.sa_fraction_of_cc_core:.1f}% (paper 62%)",
        ],
        [
            "CIM fraction of MC-core",
            f"{100 * result.area.cim_fraction_of_mc_core:.1f}% (paper 81%)",
        ],
        ["CC-cluster area (mm^2)", f"{result.area.cc_cluster_mm2:.3f}"],
        ["MC-cluster area (mm^2)", f"{result.area.mc_cluster_mm2:.3f}"],
        ["Chip area (mm^2)", f"{result.area.chip_mm2:.2f}"],
    ]
    power_rows = [
        ["leakage (mW)", f"{result.power.leakage_mw:.1f}"],
        ["host cores (mW)", f"{result.power.host_cores_mw:.1f}"],
        ["CC compute (mW)", f"{result.power.cc_compute_mw:.1f}"],
        ["MC compute (mW)", f"{result.power.mc_compute_mw:.1f}"],
        ["SRAM (mW)", f"{result.power.sram_mw:.1f}"],
        ["total (mW)", f"{result.power.total_mw:.1f} (paper 112 mW)"],
    ]
    return (
        "Fig. 10 — design configuration\n"
        + format_table(["parameter", "value"], config_rows)
        + "\n\nArea model\n"
        + format_table(["quantity", "value"], area_rows)
        + "\n\nPower model\n"
        + format_table(["component", "value"], power_rows)
    )


def configuration_matches_paper(result: Fig10Result) -> bool:
    """Structural parameters must match the published configuration."""
    config = result.configuration
    reference = result.paper_reference
    return (
        config["groups"] == reference["groups"]
        and config["cc_clusters"] == reference["cc_clusters"]
        and config["mc_clusters"] == reference["mc_clusters"]
        and abs(config["frequency_ghz"] - reference["frequency_ghz"]) < 1e-9
    )


def coprocessors_dominate_core_area(result: Fig10Result) -> bool:
    """The SA and CIM must dominate their cores' areas, as in the paper."""
    return (
        result.area.sa_fraction_of_cc_core > 0.5
        and result.area.cim_fraction_of_mc_core > 0.5
    )
