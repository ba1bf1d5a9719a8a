"""Streaming-pipeline model of EdgeMM (Fig. 9 of the paper).

In real-time applications a stream of requests arrives continuously.  The
CC-clusters run the modality encoder and LLM-prefill of request *i+1* while
the MC-clusters decode request *i*, forming a two-stage pipeline whose
stages share the DRAM bandwidth.

This module evaluates that pipeline for a given output token length ``l``
and a bandwidth split ``Bc : Bm``:

* **CC-stage latency** — vision encode + projector + prefill with the CC
  share of the bandwidth;
* **MC-stage latency** — ``l`` decode steps with the MC share, optionally
  with activation-aware pruning, optionally decoding a batch of ``B``
  requests concurrently (stream-based batch decoding, which re-uses each
  weight read across the batch);
* **pipeline latency / throughput** — the steady-state request latency is
  the sum of both stages, the throughput is ``B`` requests (times ``l``
  tokens) per pipeline interval, which is the *slower* stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..models.mllm import InferenceRequest, MLLMConfig
from .simulator import PerformanceSimulator


def cc_stage_latency(
    simulator: PerformanceSimulator,
    model: MLLMConfig,
    request: InferenceRequest,
    *,
    pool: str = "cc",
    bandwidth_fraction: float = 0.5,
) -> float:
    """Encode + projector + prefill latency of one request on one pool.

    The single definition of CC-stage costing, shared by the pipeline
    model and the serving engine so their latencies cannot diverge.
    """
    if not 0.0 < bandwidth_fraction <= 1.0:
        raise ValueError("bandwidth_fraction must be in (0, 1]")
    result = simulator.execute_phase(
        model.cc_stage_phase(request.images, request.prompt_text_tokens),
        pool=pool,
        bandwidth_fraction=bandwidth_fraction,
    )
    return result.latency_s


@dataclass(frozen=True)
class PipelinePoint:
    """Steady-state pipeline behaviour for one operating point."""

    output_tokens: int
    cc_bandwidth_fraction: float
    batch_size: int
    cc_stage_latency_s: float
    mc_stage_latency_s: float

    @property
    def mc_bandwidth_fraction(self) -> float:
        return 1.0 - self.cc_bandwidth_fraction

    @property
    def request_latency_s(self) -> float:
        """Latency of one request through both stages."""
        return self.cc_stage_latency_s + self.mc_stage_latency_s

    @property
    def pipeline_interval_s(self) -> float:
        """Time between successive batch completions (the slower stage)."""
        return max(self.cc_stage_latency_s, self.mc_stage_latency_s)

    @property
    def tokens_per_second(self) -> float:
        interval = self.pipeline_interval_s
        if interval == 0:
            return 0.0
        return self.batch_size * self.output_tokens / interval

    @property
    def requests_per_second(self) -> float:
        interval = self.pipeline_interval_s
        if interval == 0:
            return 0.0
        return self.batch_size / interval

    @property
    def imbalance(self) -> float:
        """Ratio of the slower stage to the faster stage (1.0 = balanced)."""
        slow = self.pipeline_interval_s
        fast = min(self.cc_stage_latency_s, self.mc_stage_latency_s)
        if fast == 0:
            return float("inf")
        return slow / fast


class PipelineModel:
    """Evaluates the two-stage encode/prefill + decode pipeline."""

    def __init__(
        self,
        simulator: PerformanceSimulator,
        model: MLLMConfig,
        *,
        images: int = 1,
        prompt_text_tokens: int = 32,
    ) -> None:
        self.simulator = simulator
        self.model = model
        self.images = images
        self.prompt_text_tokens = prompt_text_tokens

    def _request(self, output_tokens: int) -> InferenceRequest:
        return InferenceRequest(
            images=self.images,
            prompt_text_tokens=self.prompt_text_tokens,
            output_tokens=output_tokens,
        )

    def cc_stage_latency_s(
        self, output_tokens: int, cc_bandwidth_fraction: float
    ) -> float:
        """Encode + projector + prefill latency on the CC-clusters."""
        return cc_stage_latency(
            self.simulator,
            self.model,
            self._request(output_tokens),
            pool="cc",
            bandwidth_fraction=cc_bandwidth_fraction,
        )

    def mc_stage_latency_s(
        self,
        output_tokens: int,
        mc_bandwidth_fraction: float,
        *,
        batch_size: int = 1,
        keep_fraction: Optional[float] = None,
    ) -> float:
        """Decode latency of ``output_tokens`` steps on the MC-clusters.

        Batch decoding processes ``batch_size`` streams against each weight
        read: weight traffic and weight-dependent compute are shared across
        the batch while per-stream activations, KV-cache traffic and
        non-weight compute scale with the batch size.
        """
        if not 0.0 < mc_bandwidth_fraction <= 1.0:
            raise ValueError("mc_bandwidth_fraction must be in (0, 1]")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        request = self._request(output_tokens)
        workload = self.model.build_workload(request)
        decode = workload.phase("llm_decode")
        single = self.simulator.execute_phase(
            decode,
            pool="mc",
            bandwidth_fraction=mc_bandwidth_fraction,
            keep_fraction=keep_fraction,
        )
        if batch_size == 1:
            return single.latency_s
        # Split the single-stream result into weight-shared and per-stream
        # portions.  Weight bytes dominate decode traffic; they are read once
        # for the whole batch.  Compute scales with the batch (every stream's
        # GEMV runs), but decode is memory-bound so this rarely dominates.
        keep = self.simulator.effective_keep_fraction(keep_fraction)
        pruned_weight_bytes = decode.pruned_weight_bytes(keep)
        per_stream_bytes = single.dram_bytes - pruned_weight_bytes
        batch_bytes = pruned_weight_bytes + batch_size * per_stream_bytes
        batch_memory_cycles = self.simulator.memory_cycles(
            int(batch_bytes), "mc", mc_bandwidth_fraction
        )
        batch_compute_cycles = single.compute_cycles * batch_size
        cycles = max(batch_memory_cycles, batch_compute_cycles)
        return self.simulator.chip.cycles_to_seconds(cycles)

    def evaluate(
        self,
        output_tokens: int,
        *,
        cc_bandwidth_fraction: float = 0.5,
        batch_size: int = 1,
        keep_fraction: Optional[float] = None,
    ) -> PipelinePoint:
        """Evaluate the pipeline at one operating point."""
        if output_tokens <= 0:
            raise ValueError("output_tokens must be positive")
        cc_latency = self.cc_stage_latency_s(output_tokens, cc_bandwidth_fraction)
        if batch_size > 1:
            cc_latency *= batch_size
        mc_latency = self.mc_stage_latency_s(
            output_tokens,
            1.0 - cc_bandwidth_fraction,
            batch_size=batch_size,
            keep_fraction=keep_fraction,
        )
        return PipelinePoint(
            output_tokens=output_tokens,
            cc_bandwidth_fraction=cc_bandwidth_fraction,
            batch_size=batch_size,
            cc_stage_latency_s=cc_latency,
            mc_stage_latency_s=mc_latency,
        )

    def balanced_token_length(
        self, *, cc_bandwidth_fraction: float = 0.5, max_tokens: int = 4096
    ) -> int:
        """The expected token length ``le`` that balances the two stages.

        This is the largest output length whose decode latency does not
        exceed the CC-stage latency under the given bandwidth split.
        """
        cc_latency = self.cc_stage_latency_s(1, cc_bandwidth_fraction)
        per_token = self.mc_stage_latency_s(1, 1.0 - cc_bandwidth_fraction)
        if per_token == 0:
            return max_tokens
        return max(min(int(cc_latency // per_token), max_tokens), 1)
