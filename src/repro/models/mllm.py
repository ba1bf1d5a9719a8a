"""Multimodal LLM compositions (Table I of the paper).

An :class:`MLLMConfig` combines one or more vision encoders, a projector and
a language model, and lowers a complete inference request (image + prompt ->
generated tokens) to a four-phase :class:`~repro.models.ops.Workload`:

``vision_encoder`` -> ``projector`` -> ``llm_prefill`` -> ``llm_decode``

The two workloads the paper evaluates in detail are SPHINX-Tiny
(CLIP ViT-L/14 + ConvNeXt + DINOv2 encoders, MLP projector, TinyLlama-1.1B)
and KarmaVLM (SigLIP-so + CLIP ViT-L/14 encoders, MLP projector,
Qwen1.5-0.5B).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from .llm import _MEMO_SIZE, LLMConfig, get_llm, mean_decode_context
from .ops import Op, Phase, Workload, merge_phases
from .projector import (
    LDPProjectorConfig,
    MLPProjectorConfig,
    QFormerProjectorConfig,
    mlp_projector,
)
from .vision import ConvNeXtEncoderConfig, VisionEncoderConfig, get_vision_encoder

VisionEncoder = Union[VisionEncoderConfig, ConvNeXtEncoderConfig]
Projector = Union[MLPProjectorConfig, LDPProjectorConfig, QFormerProjectorConfig]
#: One phase of a request's workload: ``(name, lowering input, repeat)``.
PhaseKey = Tuple[str, int, int]


@dataclass(frozen=True)
class InferenceRequest:
    """One MLLM inference request.

    Attributes
    ----------
    images:
        Number of input images.
    prompt_text_tokens:
        Number of text tokens in the user prompt.
    output_tokens:
        Number of tokens to generate autoregressively.
    """

    images: int = 1
    prompt_text_tokens: int = 32
    output_tokens: int = 64

    def __post_init__(self) -> None:
        if self.images < 0:
            raise ValueError("images must be >= 0")
        if self.prompt_text_tokens < 0:
            raise ValueError("prompt_text_tokens must be >= 0")
        if self.output_tokens <= 0:
            raise ValueError("output_tokens must be positive")
        if self.images == 0 and self.prompt_text_tokens == 0:
            raise ValueError("request must contain at least an image or a prompt")


@dataclass(frozen=True)
class MLLMConfig:
    """A multimodal LLM assembled from encoders, a projector and an LLM."""

    name: str
    vision_encoders: Tuple[VisionEncoder, ...]
    projector: Projector
    llm: LLMConfig

    def __post_init__(self) -> None:
        if not self.vision_encoders:
            raise ValueError("an MLLM needs at least one vision encoder")

    # ------------------------------------------------------------------
    # Model statistics (Fig. 2(b))
    # ------------------------------------------------------------------
    @property
    def parameter_count(self) -> int:
        encoders = sum(enc.parameter_count for enc in self.vision_encoders)
        return encoders + self.projector.parameter_count + self.llm.parameter_count

    @property
    def parameter_bytes(self) -> int:
        encoders = sum(enc.parameter_bytes for enc in self.vision_encoders)
        return encoders + self.projector.parameter_bytes + self.llm.parameter_bytes

    def vision_tokens(self, images: int = 1) -> int:
        """Vision tokens fed to the LLM after projection."""
        if images == 0:
            return 0
        raw_tokens = sum(enc.num_tokens for enc in self.vision_encoders) * images
        return self.projector.output_tokens(raw_tokens)

    def prompt_tokens(self, request: InferenceRequest) -> int:
        """Total prompt length: projected vision tokens plus text tokens."""
        return self.vision_tokens(request.images) + request.prompt_text_tokens

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    # ``build_workload`` and batch pricing lower the same phase keys, so a
    # priced phase is always the workload's own.
    def phase_keys(self, request: InferenceRequest) -> List[PhaseKey]:
        """The ``(name, input, repeat)`` key of every phase of ``request``.

        In workload order: the vision encoder and the projector (input:
        the image count; both absent without images), the prefill (input:
        the prompt tokens) and the decode (input: the mean decode context,
        repeated once per output token).  Two requests share a phase
        exactly when they share its key.
        """
        keys = self._cc_keys(request.images, request.prompt_text_tokens)
        keys.append(
            (
                "llm_decode",
                mean_decode_context(
                    self.prompt_tokens(request), request.output_tokens
                ),
                request.output_tokens,
            )
        )
        return keys

    def phase_ops(self, name: str, value: int) -> Tuple[Op, ...]:
        """The memoized ops of the phase keyed ``(name, value, repeat)``."""
        if name == "vision_encoder":
            return self._vision_ops(value)[0]
        if name == "projector":
            return self._vision_ops(value)[1]
        if name == "llm_prefill":
            return self.llm._prefill_ops(value)
        if name == "llm_decode":
            return self.llm._decode_step_ops(value)
        raise KeyError(f"{self.name} has no phase named {name!r}")

    def build_workload(self, request: InferenceRequest) -> Workload:
        """Lower one inference request to a four-phase workload."""
        return Workload(name=self.name, phases=self._phases(self.phase_keys(request)))

    def cc_stage_phase(self, images: int, prompt_text_tokens: int) -> Phase:
        """Vision encode, projector and prefill of one request as one phase.

        The CC stage of the pipeline: the ops of :meth:`build_workload`'s
        first three phases, in order.  The output length does not enter it.
        """
        return merge_phases(
            "cc_stage", self._phases(self._cc_keys(images, prompt_text_tokens))
        )

    def _phases(self, keys: List[PhaseKey]) -> List[Phase]:
        """Fresh phases over the memoized ops of ``keys``."""
        return [
            Phase(name=name, ops=list(self.phase_ops(name, value)), repeat=repeat)
            for name, value, repeat in keys
        ]

    def _cc_keys(self, images: int, prompt_text_tokens: int) -> List[PhaseKey]:
        """The vision-encoder, projector and prefill keys of a CC stage."""
        if images < 0 or prompt_text_tokens < 0:
            raise ValueError("images and prompt_text_tokens must be >= 0")
        prompt = self.vision_tokens(images) + prompt_text_tokens
        if prompt <= 0:
            raise ValueError("prompt must contain at least one token")
        keys: List[PhaseKey] = []
        if images > 0:
            keys.append(("vision_encoder", images, 1))
            keys.append(("projector", images, 1))
        keys.append(("llm_prefill", prompt, 1))
        return keys

    @functools.lru_cache(maxsize=_MEMO_SIZE)
    def _vision_ops(self, images: int) -> Tuple[Tuple[Op, ...], Tuple[Op, ...]]:
        encoders = merge_phases(
            "vision_encoder",
            [enc.encode_phase(images=images) for enc in self.vision_encoders],
        )
        raw_tokens = sum(enc.num_tokens for enc in self.vision_encoders) * images
        return tuple(encoders.ops), tuple(self.projector.project_phase(raw_tokens).ops)

    def decode_step(self, context_tokens: int) -> Phase:
        """A single decode step at a given context length (for schedulers)."""
        return self.llm.decode_step_phase(context_tokens)


# ----------------------------------------------------------------------
# Catalogue (Table I)
# ----------------------------------------------------------------------
_MLLM_CATALOGUE: Dict[str, MLLMConfig] = {}


def _register(config: MLLMConfig) -> MLLMConfig:
    key = config.name.lower()
    if key in _MLLM_CATALOGUE:
        raise ValueError(f"duplicate MLLM registration: {config.name}")
    _MLLM_CATALOGUE[key] = config
    return config


SPHINX_TINY = _register(
    MLLMConfig(
        name="sphinx-tiny",
        vision_encoders=(
            get_vision_encoder("clip-vit-l14"),
            get_vision_encoder("clip-convnext-b"),
            get_vision_encoder("dinov2-l"),
        ),
        projector=mlp_projector("sphinx-tiny.projector", input_dim=1024, output_dim=2048),
        llm=get_llm("tinyllama-1.1b"),
    )
)

KARMAVLM = _register(
    MLLMConfig(
        name="karmavlm",
        vision_encoders=(
            get_vision_encoder("siglip-so400m"),
            get_vision_encoder("clip-vit-l14"),
        ),
        projector=mlp_projector("karmavlm.projector", input_dim=1152, output_dim=1024),
        llm=get_llm("qwen1.5-0.5b"),
    )
)

LLAVA_7B = _register(
    MLLMConfig(
        name="llava-7b",
        vision_encoders=(get_vision_encoder("clip-vit-l14"),),
        projector=mlp_projector("llava.projector", input_dim=1024, output_dim=4096),
        llm=get_llm("vicuna-7b"),
    )
)

MOBILEVLM = _register(
    MLLMConfig(
        name="mobilevlm",
        vision_encoders=(get_vision_encoder("clip-vit-l14"),),
        projector=LDPProjectorConfig(
            name="mobilevlm.ldp", input_dim=1024, output_dim=2560, downsample=2
        ),
        llm=get_llm("mobilellama-2.7b"),
    )
)

TINYGPT_V = _register(
    MLLMConfig(
        name="tinygpt-v",
        vision_encoders=(get_vision_encoder("eva-clip-g"),),
        projector=QFormerProjectorConfig(
            name="tinygpt-v.qformer", input_dim=1408, output_dim=2560
        ),
        llm=get_llm("phi-2"),
    )
)

DEEPSEEK_VL = _register(
    MLLMConfig(
        name="deepseek-vl",
        vision_encoders=(get_vision_encoder("siglip-l"),),
        projector=mlp_projector("deepseek-vl.projector", input_dim=1024, output_dim=2048),
        llm=get_llm("deepseek-llm-1.3b"),
    )
)


def available_mllms() -> List[str]:
    """Names of all registered MLLMs."""
    return sorted(_MLLM_CATALOGUE)


def get_mllm(name: str) -> MLLMConfig:
    """Look up a registered MLLM by (case-insensitive) name."""
    key = name.lower()
    if key not in _MLLM_CATALOGUE:
        raise KeyError(
            f"unknown MLLM {name!r}; available: {', '.join(available_mllms())}"
        )
    return _MLLM_CATALOGUE[key]
