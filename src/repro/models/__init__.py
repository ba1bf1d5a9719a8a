"""MLLM workload substrate: operator IR, model catalogue and profiling."""

from .ops import (
    Op,
    OpKind,
    Phase,
    Workload,
    elementwise_op,
    matmul_op,
    merge_phases,
)
from .transformer import (
    TransformerLayerConfig,
    decode_layer_ops,
    encoder_layer_ops,
    prefill_layer_ops,
)
from .llm import LLMConfig, available_llms, get_llm
from .vision import (
    ConvNeXtEncoderConfig,
    VisionEncoderConfig,
    available_vision_encoders,
    get_vision_encoder,
)
from .projector import (
    LDPProjectorConfig,
    MLPProjectorConfig,
    QFormerProjectorConfig,
    mlp_projector,
)
from .mllm import (
    InferenceRequest,
    MLLMConfig,
    available_mllms,
    get_mllm,
)
from .activations import (
    ActivationTraceConfig,
    ActivationTraceGenerator,
    karmavlm_trace,
    sphinx_tiny_trace,
    synthetic_ffn_weights,
)
from .profiler import (
    LatencyBreakdown,
    PhaseStatistics,
    WorkloadStatistics,
    latency_breakdown,
    latency_sweep,
    memory_access_breakdown,
    phase_statistics,
    weight_traffic_breakdown,
    workload_statistics,
)
from .graph import partition_balance, partition_ops_round_robin

__all__ = [
    "Op",
    "OpKind",
    "Phase",
    "Workload",
    "elementwise_op",
    "matmul_op",
    "merge_phases",
    "TransformerLayerConfig",
    "decode_layer_ops",
    "encoder_layer_ops",
    "prefill_layer_ops",
    "LLMConfig",
    "available_llms",
    "get_llm",
    "ConvNeXtEncoderConfig",
    "VisionEncoderConfig",
    "available_vision_encoders",
    "get_vision_encoder",
    "LDPProjectorConfig",
    "MLPProjectorConfig",
    "QFormerProjectorConfig",
    "mlp_projector",
    "InferenceRequest",
    "MLLMConfig",
    "available_mllms",
    "get_mllm",
    "ActivationTraceConfig",
    "ActivationTraceGenerator",
    "karmavlm_trace",
    "sphinx_tiny_trace",
    "synthetic_ffn_weights",
    "LatencyBreakdown",
    "PhaseStatistics",
    "WorkloadStatistics",
    "latency_breakdown",
    "latency_sweep",
    "memory_access_breakdown",
    "phase_statistics",
    "weight_traffic_breakdown",
    "workload_statistics",
    "partition_balance",
    "partition_ops_round_robin",
]
