"""Tests for the system configuration (repro.core.config)."""

from dataclasses import fields

import pytest

from repro.core.config import (
    PruningRuntimeConfig,
    SystemConfig,
    default_system,
    homo_cc_system,
    homo_mc_system,
    scaled_system,
)


class TestPruningRuntimeConfig:
    def test_defaults_disabled(self):
        config = PruningRuntimeConfig()
        assert not config.enabled
        assert config.average_keep_fraction == 1.0

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            PruningRuntimeConfig(average_keep_fraction=0.0)
        with pytest.raises(ValueError):
            PruningRuntimeConfig(average_keep_fraction=1.1)


class TestSystemConfig:
    def test_default_is_heterogeneous(self):
        system = default_system()
        assert system.chip.n_cc_clusters > 0
        assert system.chip.n_mc_clusters > 0

    def test_fields_are_the_chip_pruning_and_name(self):
        # The bandwidth split is a per-call argument of the pipeline and
        # serving models, and no cost path reads an operand precision.
        assert [field.name for field in fields(SystemConfig)] == [
            "chip",
            "pruning",
            "name",
        ]

    def test_with_pruning_returns_new_config(self):
        base = default_system()
        pruned = base.with_pruning(0.3)
        assert pruned.pruning.enabled
        assert pruned.pruning.average_keep_fraction == 0.3
        assert not base.pruning.enabled
        assert pruned.name.endswith("+pruning")

    def test_homogeneous_variants(self):
        assert homo_cc_system().chip.n_mc_clusters == 0
        assert homo_mc_system().chip.n_cc_clusters == 0
        assert homo_cc_system().name == "homo_cc"

    def test_homogeneous_keep_total_cluster_count(self):
        base = default_system().chip
        total = base.n_cc_clusters + base.n_mc_clusters
        assert homo_cc_system().chip.n_cc_clusters == total
        assert homo_mc_system().chip.n_mc_clusters == total


class TestScaledSystem:
    def test_scaling_changes_cluster_counts(self):
        system = scaled_system(n_groups=2, cc_clusters_per_group=1, mc_clusters_per_group=3)
        assert system.chip.n_groups == 2
        assert system.chip.n_cc_clusters == 2
        assert system.chip.n_mc_clusters == 6

    def test_scaled_name_reflects_shape(self):
        system = scaled_system(n_groups=2, cc_clusters_per_group=1, mc_clusters_per_group=1)
        assert "2x1cc1mc" in system.name
