"""EXP-T2 — EdgeMM vs mobile GPU comparison (paper Table II).

Runs the full SPHINX-Tiny workload on the RTX 3060 baseline, on EdgeMM, and
on EdgeMM with activation-aware pruning (calibrated on the activation
trace), and reports the Table II rows: compute capability, bandwidth,
relative MLLM performance, plus the throughput (tokens/s) and energy
efficiency (token/J) headline numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..baselines.gpu import GPUModel, rtx3060_laptop
from ..core.edgemm import EdgeMM
from ..core.metrics import WorkloadResult
from ..models.mllm import InferenceRequest, get_mllm
from .runner import format_table


#: Published reference values for the comparison.
PAPER_REFERENCE: Dict[str, float] = {
    "edgemm_speedup": 2.15,
    "edgemm_pruned_speedup": 2.84,
    "edgemm_pruned_tokens_per_s": 138.0,
    "edgemm_tokens_per_joule": 0.28,
}


@dataclass(frozen=True)
class Table2Result:
    model_name: str
    request: InferenceRequest
    gpu: WorkloadResult
    edgemm: WorkloadResult
    edgemm_pruned: WorkloadResult
    average_keep_fraction: float
    gpu_peak_tflops: float
    gpu_bandwidth_gbs: float
    edgemm_peak_tflops: float
    edgemm_bandwidth_gbs: float

    @property
    def edgemm_speedup(self) -> float:
        return self.gpu.total_latency_s / self.edgemm.total_latency_s

    @property
    def edgemm_pruned_speedup(self) -> float:
        return self.gpu.total_latency_s / self.edgemm_pruned.total_latency_s

    @property
    def pruned_tokens_per_second(self) -> float:
        return self.edgemm_pruned.tokens_per_second

    @property
    def pruned_tokens_per_joule(self) -> Optional[float]:
        return self.edgemm_pruned.tokens_per_joule


def run_table2(
    model_name: str = "sphinx-tiny",
    *,
    request: InferenceRequest = None,
    gpu: GPUModel = None,
    calibration_tokens: int = 4,
) -> Table2Result:
    request = request or InferenceRequest(images=1, prompt_text_tokens=32, output_tokens=64)
    gpu = gpu or rtx3060_laptop()
    model = get_mllm(model_name)

    gpu_result = gpu.run_request(model, request)
    system = EdgeMM.default()
    edgemm_result = system.run(model, request)
    calibration = system.calibrate_pruning(n_tokens=calibration_tokens)
    pruned_system = system.enable_pruning(calibration)
    pruned_result = pruned_system.run(model, request)

    return Table2Result(
        model_name=model_name,
        request=request,
        gpu=gpu_result,
        edgemm=edgemm_result,
        edgemm_pruned=pruned_result,
        average_keep_fraction=calibration.average_keep_fraction,
        gpu_peak_tflops=gpu.config.peak_flops / 1e12,
        gpu_bandwidth_gbs=gpu.config.memory_bandwidth_bytes_per_s / 1e9,
        edgemm_peak_tflops=system.simulator.chip.peak_flops / 1e12,
        edgemm_bandwidth_gbs=(
            system.system.chip.dram.peak_bandwidth_bytes_per_s / 1e9
        ),
    )


def format_report(result: Table2Result) -> str:
    rows = [
        [
            "RTX 3060 Laptop",
            f"{result.gpu_peak_tflops:.0f} TFLOP/s (FP32)",
            f"{result.gpu_bandwidth_gbs:.0f} GB/s",
            "1.00x",
            f"{result.gpu.tokens_per_second:.1f}",
        ],
        [
            "EdgeMM",
            f"{result.edgemm_peak_tflops:.1f} TFLOP/s (BF16)",
            f"{result.edgemm_bandwidth_gbs:.0f} GB/s",
            f"{result.edgemm_speedup:.2f}x",
            f"{result.edgemm.tokens_per_second:.1f}",
        ],
        [
            "EdgeMM + weight pruning",
            f"{result.edgemm_peak_tflops:.1f} TFLOP/s (BF16)",
            f"{result.edgemm_bandwidth_gbs:.0f} GB/s",
            f"{result.edgemm_pruned_speedup:.2f}x",
            f"{result.edgemm_pruned.tokens_per_second:.1f}",
        ],
    ]
    table = format_table(
        ["design", "compute", "bandwidth", "MLLM perf.", "tokens/s"], rows
    )
    tokens_per_joule = result.pruned_tokens_per_joule
    summary_lines = [
        f"paper reference: {PAPER_REFERENCE['edgemm_speedup']:.2f}x / "
        f"{PAPER_REFERENCE['edgemm_pruned_speedup']:.2f}x speedup, "
        f"{PAPER_REFERENCE['edgemm_pruned_tokens_per_s']:.0f} tokens/s",
        f"average keep fraction from Alg. 1 calibration: "
        f"{result.average_keep_fraction:.3f}",
    ]
    if tokens_per_joule is not None:
        summary_lines.append(
            f"energy efficiency: {tokens_per_joule:.1f} tokens/J "
            f"(paper reports 0.28 token/J — see docs/experiments.md "
            f"for the metric discussion)"
        )
    return (
        f"Table II — EdgeMM vs mobile GPU ({result.model_name}, "
        f"{result.request.output_tokens} output tokens)\n"
        + table
        + "\n\n"
        + "\n".join(summary_lines)
    )


def edgemm_beats_gpu(result: Table2Result) -> bool:
    return result.edgemm_speedup > 1.0


def pruning_widens_the_gap(result: Table2Result) -> bool:
    return result.edgemm_pruned_speedup > result.edgemm_speedup


def pruned_speedup_in_paper_ballpark(
    result: Table2Result, low: float = 2.0, high: float = 4.0
) -> bool:
    """The pruned speedup should be within a factor-of-shape band of 2.84x."""
    return low <= result.edgemm_pruned_speedup <= high
