"""Benchmark: ablation sweeps over the design choices listed in docs/experiments.md.

Not a paper figure — these quantify the sensitivity of the headline results
to the pruning threshold, the assumed DRAM bandwidth, the systolic-array
aspect ratio and the CC:MC cluster mix.
"""

from repro.experiments import ablations


def run() -> ablations.AblationResult:
    return ablations.AblationResult(
        threshold_rows=ablations.pruning_threshold_ablation(
            thresholds=(8.0, 16.0, 32.0), n_tokens=1, d_ffn=128
        ),
        bandwidth_rows=ablations.dram_bandwidth_ablation(),
        geometry_rows=ablations.systolic_geometry_ablation(),
        mix_rows=ablations.cluster_mix_ablation(),
    )


def test_bench_ablations(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert ablations.larger_threshold_prunes_less(result.threshold_rows)
    assert ablations.decode_scales_with_bandwidth(result.bandwidth_rows)
    assert ablations.mixed_clusters_beat_homogeneous(result.mix_rows)
    print()
    print(ablations.format_report(result))
