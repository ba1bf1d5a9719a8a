"""Ablation studies on the design choices listed in docs/experiments.md.

These go beyond the paper's published figures and quantify how sensitive the
headline results are to the main architectural knobs:

* **Pruning threshold ``t``** (Alg. 1): pruning ratio and FFN-output cosine
  similarity as the negligibility threshold varies around the paper's 16.
* **DRAM bandwidth**: end-to-end throughput of the memory-bound decode as the
  assumed DRAM part changes (the paper does not state its DRAM).
* **Systolic-array geometry**: prefill latency and peak compute as the R x C
  array size changes at constant total MAC count per cluster.
* **Cluster mix**: end-to-end latency across CC:MC ratios at a constant
  cluster count per group (the heterogeneity argument in design-space form).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from ..arch.chip import Chip, ChipConfig
from ..arch.cluster import CCClusterConfig
from ..arch.cores import CCCoreConfig
from ..arch.dram import DRAMConfig
from ..arch.systolic import SystolicArrayConfig
from ..core.batch import batch_run_request
from ..core.config import SystemConfig, default_system, scaled_system
from ..core.edgemm import EdgeMM
from ..models.activations import sphinx_tiny_trace
from ..models.mllm import InferenceRequest, get_mllm
from ..pruning.ffn import build_layer_stack
from ..pruning.topk import DynamicTopKConfig, prune_token
from .runner import format_table


DEFAULT_REQUEST = InferenceRequest(images=1, prompt_text_tokens=32, output_tokens=64)


# ----------------------------------------------------------------------
# Pruning threshold ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ThresholdAblationRow:
    threshold: float
    mean_pruning_ratio: float
    mean_cosine_similarity: float
    decode_latency_reduction: float


def pruning_threshold_ablation(
    thresholds: Sequence[float] = (4.0, 8.0, 16.0, 32.0, 64.0),
    *,
    n_tokens: int = 2,
    d_ffn: int = 256,
    model_name: str = "sphinx-tiny",
) -> List[ThresholdAblationRow]:
    """Sweep the Alg. 1 threshold ``t`` (paper default 16)."""
    if not thresholds:
        raise ValueError("thresholds must not be empty")
    trace = sphinx_tiny_trace()
    stack = build_layer_stack(trace.config.n_layers, trace.config.d_model, d_ffn)
    model = get_mllm(model_name)
    system = EdgeMM.default()
    base = system.system
    ratio_means: List[float] = []
    similarity_means: List[float] = []
    systems: List[SystemConfig] = [base]
    for threshold in thresholds:
        config = DynamicTopKConfig(threshold=threshold)
        ratios = []
        similarities = []
        for token in range(n_tokens):
            report = prune_token(trace.token_trace(token), stack, config=config)
            ratios.append(report.mean_pruning_ratio)
            similarities.append(report.mean_cosine_similarity)
        ratio_means.append(float(np.mean(ratios)))
        similarity_means.append(float(np.mean(similarities)))
        calibration = system.calibrate_pruning(trace, n_tokens=n_tokens, config=config)
        systems.append(base.with_pruning(calibration.average_keep_fraction))
    # One batched pass prices the unpruned baseline and every calibrated
    # keep fraction together (point 0 is the baseline).
    batch = batch_run_request(model, DEFAULT_REQUEST, systems)
    results = batch.results()
    baseline = results[0]
    rows: List[ThresholdAblationRow] = []
    for index, threshold in enumerate(thresholds):
        pruned = results[index + 1]
        reduction = 1.0 - pruned.decode_latency_s / baseline.decode_latency_s
        rows.append(
            ThresholdAblationRow(
                threshold=threshold,
                mean_pruning_ratio=ratio_means[index],
                mean_cosine_similarity=similarity_means[index],
                decode_latency_reduction=float(reduction),
            )
        )
    return rows


# ----------------------------------------------------------------------
# DRAM bandwidth ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BandwidthAblationRow:
    bandwidth_gbs: float
    decode_latency_s: float
    tokens_per_second: float
    decode_bound: str


def dram_bandwidth_ablation(
    bandwidths_gbs: Sequence[float] = (25.6, 51.2, 102.4, 204.8),
    *,
    model_name: str = "sphinx-tiny",
) -> List[BandwidthAblationRow]:
    """Sweep the assumed DRAM bandwidth (LPDDR4X .. wide LPDDR5X)."""
    if not bandwidths_gbs:
        raise ValueError("bandwidths_gbs must not be empty")
    model = get_mllm(model_name)
    base = default_system()
    systems = []
    for bandwidth in bandwidths_gbs:
        dram = DRAMConfig(peak_bandwidth_bytes_per_s=bandwidth * 1e9)
        chip = replace(base.chip, dram=dram)
        systems.append(replace(base, chip=chip, name=f"edgemm_{bandwidth:.0f}gbs"))
    batch = batch_run_request(model, DEFAULT_REQUEST, systems)
    return [
        BandwidthAblationRow(
            bandwidth_gbs=bandwidth,
            decode_latency_s=result.decode_latency_s,
            tokens_per_second=result.tokens_per_second,
            decode_bound=result.phase("llm_decode").bound,
        )
        for bandwidth, result in zip(bandwidths_gbs, batch.results())
    ]


# ----------------------------------------------------------------------
# Systolic-array geometry ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GeometryAblationRow:
    rows: int
    cols: int
    prefill_latency_s: float
    encode_latency_s: float
    peak_tflops: float


def systolic_geometry_ablation(
    geometries: Sequence[Tuple[int, int]] = ((8, 32), (16, 16), (32, 8)),
    *,
    model_name: str = "sphinx-tiny",
) -> List[GeometryAblationRow]:
    """Vary the R x C aspect ratio at a constant 256 PEs per core."""
    if not geometries:
        raise ValueError("geometries must not be empty")
    model = get_mllm(model_name)
    base = default_system()
    systems = []
    for rows, cols in geometries:
        systolic = SystolicArrayConfig(rows=rows, cols=cols)
        cc_core = CCCoreConfig(systolic=systolic)
        cc_cluster = CCClusterConfig(core=cc_core)
        group = replace(base.chip.group, cc_cluster=cc_cluster)
        chip = replace(base.chip, group=group)
        systems.append(replace(base, chip=chip, name=f"edgemm_sa{rows}x{cols}"))
    batch = batch_run_request(model, DEFAULT_REQUEST, systems)
    return [
        GeometryAblationRow(
            rows=rows,
            cols=cols,
            prefill_latency_s=result.prefill_latency_s,
            encode_latency_s=result.encode_latency_s,
            peak_tflops=Chip(system.chip).peak_flops / 1e12,
        )
        for (rows, cols), system, result in zip(
            geometries, systems, batch.results()
        )
    ]


# ----------------------------------------------------------------------
# Cluster-mix ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterMixRow:
    cc_clusters_per_group: int
    mc_clusters_per_group: int
    total_latency_s: float
    tokens_per_second: float


def cluster_mix_ablation(
    mixes: Sequence[Tuple[int, int]] = ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4)),
    *,
    model_name: str = "sphinx-tiny",
) -> List[ClusterMixRow]:
    """Sweep the CC:MC cluster mix at a constant four clusters per group."""
    if not mixes:
        raise ValueError("mixes must not be empty")
    model = get_mllm(model_name)
    systems = []
    for cc, mc in mixes:
        if cc == 0 and mc == 0:
            raise ValueError("a group needs at least one cluster")
        systems.append(
            scaled_system(n_groups=4, cc_clusters_per_group=cc, mc_clusters_per_group=mc)
        )
    batch = batch_run_request(model, DEFAULT_REQUEST, systems)
    return [
        ClusterMixRow(
            cc_clusters_per_group=cc,
            mc_clusters_per_group=mc,
            total_latency_s=result.total_latency_s,
            tokens_per_second=result.tokens_per_second,
        )
        for (cc, mc), result in zip(mixes, batch.results())
    ]


# ----------------------------------------------------------------------
# Combined run + report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AblationResult:
    threshold_rows: List[ThresholdAblationRow]
    bandwidth_rows: List[BandwidthAblationRow]
    geometry_rows: List[GeometryAblationRow]
    mix_rows: List[ClusterMixRow]


def run_ablations() -> AblationResult:
    """Run all four ablation sweeps with their default parameters."""
    return AblationResult(
        threshold_rows=pruning_threshold_ablation(),
        bandwidth_rows=dram_bandwidth_ablation(),
        geometry_rows=systolic_geometry_ablation(),
        mix_rows=cluster_mix_ablation(),
    )


def format_report(result: AblationResult) -> str:
    sections = []
    sections.append(
        "Ablation A1 — Alg. 1 threshold t\n"
        + format_table(
            ["t", "prune ratio", "cosine", "decode reduction"],
            [
                [
                    row.threshold,
                    f"{100 * row.mean_pruning_ratio:.1f}%",
                    f"{row.mean_cosine_similarity:.4f}",
                    f"{100 * row.decode_latency_reduction:.1f}%",
                ]
                for row in result.threshold_rows
            ],
        )
    )
    sections.append(
        "Ablation A2 — DRAM bandwidth\n"
        + format_table(
            ["GB/s", "decode latency (s)", "tokens/s", "decode bound"],
            [
                [
                    row.bandwidth_gbs,
                    f"{row.decode_latency_s:.3f}",
                    f"{row.tokens_per_second:.1f}",
                    row.decode_bound,
                ]
                for row in result.bandwidth_rows
            ],
        )
    )
    sections.append(
        "Ablation A3 — systolic-array geometry (256 PEs per core)\n"
        + format_table(
            ["R", "C", "prefill (s)", "encoder (s)", "peak TFLOP/s"],
            [
                [
                    row.rows,
                    row.cols,
                    f"{row.prefill_latency_s:.3f}",
                    f"{row.encode_latency_s:.3f}",
                    f"{row.peak_tflops:.1f}",
                ]
                for row in result.geometry_rows
            ],
        )
    )
    sections.append(
        "Ablation A4 — CC:MC cluster mix (4 clusters per group)\n"
        + format_table(
            ["CC/group", "MC/group", "latency (s)", "tokens/s"],
            [
                [
                    row.cc_clusters_per_group,
                    row.mc_clusters_per_group,
                    f"{row.total_latency_s:.3f}",
                    f"{row.tokens_per_second:.1f}",
                ]
                for row in result.mix_rows
            ],
        )
    )
    return "\n\n".join(sections)


def larger_threshold_prunes_less(rows: Sequence[ThresholdAblationRow]) -> bool:
    """A larger t keeps more channels (only values below max/t are negligible),
    so the pruning ratio must fall monotonically as t grows."""
    ratios = [row.mean_pruning_ratio for row in rows]
    return all(later <= earlier + 1e-9 for earlier, later in zip(ratios, ratios[1:]))


def paper_threshold_is_a_good_tradeoff(
    rows: Sequence[ThresholdAblationRow], *, paper_threshold: float = 16.0
) -> bool:
    """t = 16 should keep near-full accuracy while pruning aggressively.

    Checks that the paper's threshold reaches >= 0.99 cosine similarity while
    more aggressive (smaller-t) settings in the sweep lose noticeably more.
    """
    by_threshold = {row.threshold: row for row in rows}
    if paper_threshold not in by_threshold:
        return False
    paper_row = by_threshold[paper_threshold]
    more_aggressive = [row for row in rows if row.threshold < paper_threshold]
    if paper_row.mean_cosine_similarity < 0.99:
        return False
    return all(
        row.mean_cosine_similarity <= paper_row.mean_cosine_similarity
        for row in more_aggressive
    )


def decode_scales_with_bandwidth(rows: Sequence[BandwidthAblationRow]) -> bool:
    """Decode latency must fall as DRAM bandwidth rises (memory bound)."""
    latencies = [row.decode_latency_s for row in rows]
    return all(later < earlier for earlier, later in zip(latencies, latencies[1:]))


def mixed_clusters_beat_homogeneous(rows: Sequence[ClusterMixRow]) -> bool:
    """At least one mixed configuration beats both homogeneous corners."""
    homogeneous = [
        row for row in rows if row.cc_clusters_per_group == 0 or row.mc_clusters_per_group == 0
    ]
    mixed = [
        row for row in rows if row.cc_clusters_per_group > 0 and row.mc_clusters_per_group > 0
    ]
    if not homogeneous or not mixed:
        return False
    best_homogeneous = min(row.total_latency_s for row in homogeneous)
    return any(row.total_latency_s < best_homogeneous for row in mixed)
