"""Top-level EdgeMM system configuration.

Bundles the chip architecture parameters with the runtime pruning
settings the evaluations sweep.  The DRAM bandwidth split between CC- and
MC-clusters is not a system knob: the pipeline and serving models take it
per call (``cc_bandwidth_fraction``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..arch.chip import ChipConfig, GroupConfig, homo_cc_chip_config, homo_mc_chip_config


@dataclass(frozen=True)
class PruningRuntimeConfig:
    """Runtime pruning settings applied by the performance simulator.

    ``average_keep_fraction`` is the mean fraction of FFN input channels
    kept across decoder layers; it is normally obtained by running
    Algorithm 1 on an activation trace (see ``repro.pruning``) rather than
    set by hand.
    """

    enabled: bool = False
    average_keep_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.average_keep_fraction <= 1.0:
            raise ValueError("average_keep_fraction must be in (0, 1]")


@dataclass(frozen=True)
class SystemConfig:
    """Complete EdgeMM system configuration."""

    chip: ChipConfig = field(default_factory=ChipConfig)
    pruning: PruningRuntimeConfig = field(default_factory=PruningRuntimeConfig)
    name: str = "edgemm"

    def with_pruning(self, average_keep_fraction: float) -> "SystemConfig":
        """A copy with activation-aware pruning enabled."""
        return replace(
            self,
            pruning=PruningRuntimeConfig(
                enabled=True, average_keep_fraction=average_keep_fraction
            ),
            name=f"{self.name}+pruning",
        )


def default_system() -> SystemConfig:
    """The paper's default EdgeMM configuration (Fig. 10)."""
    return SystemConfig()


def homo_cc_system() -> SystemConfig:
    """Homogeneous compute-centric chip (comparison point of Fig. 11)."""
    return SystemConfig(chip=homo_cc_chip_config(), name="homo_cc")


def homo_mc_system() -> SystemConfig:
    """Homogeneous memory-centric chip (comparison point of Fig. 11)."""
    return SystemConfig(chip=homo_mc_chip_config(), name="homo_mc")


def scaled_system(
    n_groups: int = 4,
    cc_clusters_per_group: int = 2,
    mc_clusters_per_group: int = 2,
    *,
    base: Optional[SystemConfig] = None,
) -> SystemConfig:
    """A scaled EdgeMM variant (the architecture is parameterisable)."""
    base = base or default_system()
    group = GroupConfig(
        n_cc_clusters=cc_clusters_per_group,
        n_mc_clusters=mc_clusters_per_group,
        cc_cluster=base.chip.group.cc_cluster,
        mc_cluster=base.chip.group.mc_cluster,
    )
    chip = ChipConfig(
        n_groups=n_groups,
        group=group,
        frequency_hz=base.chip.frequency_hz,
        dram=base.chip.dram,
        interconnect=base.chip.interconnect,
        name=f"edgemm_{n_groups}x{cc_clusters_per_group}cc{mc_clusters_per_group}mc",
    )
    return SystemConfig(
        chip=chip,
        pruning=base.pruning,
        name=chip.name,
    )
