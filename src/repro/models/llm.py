"""Language-model definitions for the edge MLLMs evaluated in the paper.

Each LLM is described by its architectural shape (layer count, model
dimension, FFN dimension, attention heads, vocabulary size) and can lower
itself to prefill and decode :class:`~repro.models.ops.Phase` objects.

The catalogue covers the language backbones of Table I of the paper:
TinyLlama-1.1B (SPHINX-Tiny), Qwen1.5-0.5B (KarmaVLM), MobileLLaMA-2.7B,
Phi-2 2.7B, DeepSeek-LLM 1.3B, Vicuna-7B/13B and LLaMA-33B.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .ops import Op, OpKind, Phase, matmul_op
from .transformer import TransformerLayerConfig, decode_layer_ops, prefill_layer_ops

#: Entries each lowering memo keeps.  A scenario prices every prompt length
#: and decode context of its trace, in a different order at precompute and
#: at pricing time; a 40k-request ``diurnal-week`` trace visits ~630 prompt
#: lengths and ~450 decode contexts, so a smaller bound would thrash.  An
#: entry holds one layer's ops plus the head, so a full memo stays small.
_MEMO_SIZE = 1024


def mean_decode_context(prompt_tokens: int, output_tokens: int) -> int:
    """The context of the one decode step that stands for a whole decode.

    Decoding ``output_tokens`` tokens after ``prompt_tokens`` prompt
    tokens runs at contexts ``prompt_tokens … prompt_tokens +
    output_tokens - 1``; their mean, rounded, is the context every
    averaged decode phase is lowered at.
    """
    if output_tokens <= 0:
        raise ValueError("output_tokens must be positive")
    mean_context = prompt_tokens + max(output_tokens - 1, 0) / 2.0
    return max(int(round(mean_context)), 1)


@dataclass(frozen=True)
class LLMConfig:
    """Architecture parameters of a decoder-only language model."""

    name: str
    n_layers: int
    d_model: int
    n_heads: int
    d_ffn: int
    vocab_size: int
    n_kv_heads: Optional[int] = None
    gated_ffn: bool = True
    weight_bytes: float = 1.0
    activation_bytes: float = 2.0

    def __post_init__(self) -> None:
        if self.n_layers <= 0:
            raise ValueError("n_layers must be positive")
        if self.vocab_size <= 0:
            raise ValueError("vocab_size must be positive")
        # Validate the per-layer shape eagerly so bad configs fail at
        # construction time rather than at lowering time.
        self.layer_config()

    def layer_config(self) -> TransformerLayerConfig:
        return TransformerLayerConfig(
            d_model=self.d_model,
            n_heads=self.n_heads,
            n_kv_heads=self.n_kv_heads,
            d_ffn=self.d_ffn,
            gated_ffn=self.gated_ffn,
            weight_bytes=self.weight_bytes,
            activation_bytes=self.activation_bytes,
        )

    @property
    def parameter_count(self) -> int:
        """Total weight elements: embeddings + decoder blocks + LM head."""
        block = self.layer_config().parameter_count
        embedding = self.vocab_size * self.d_model
        lm_head = self.vocab_size * self.d_model
        return self.n_layers * block + embedding + lm_head

    @property
    def parameter_bytes(self) -> int:
        return int(round(self.parameter_count * self.weight_bytes))

    @property
    def decoder_parameter_bytes(self) -> int:
        """Weight bytes read per decode step (all blocks + LM head)."""
        block = self.layer_config().parameter_count
        lm_head = self.vocab_size * self.d_model
        return int(round((self.n_layers * block + lm_head) * self.weight_bytes))

    # ------------------------------------------------------------------
    # Lowering to the operator IR
    # ------------------------------------------------------------------
    # Each phase is lowered once per input and memoized as a tuple of
    # frozen ops; every call wraps them in a fresh ``Phase``, so callers
    # may mutate what they get back.  Decoder layers all share one shape,
    # so one layer is lowered and the same op objects are referenced
    # ``n_layers`` times, in execution order, before the LM head.
    def prefill_phase(self, prompt_tokens: int) -> Phase:
        """Operators for prefilling ``prompt_tokens`` prompt tokens."""
        if prompt_tokens <= 0:
            raise ValueError("prompt_tokens must be positive")
        return Phase(name="llm_prefill", ops=list(self._prefill_ops(prompt_tokens)))

    def decode_step_phase(self, context_tokens: int) -> Phase:
        """Operators for generating one token with ``context_tokens`` cached."""
        if context_tokens <= 0:
            raise ValueError("context_tokens must be positive")
        return Phase(name="llm_decode", ops=list(self._decode_step_ops(context_tokens)))

    @functools.lru_cache(maxsize=_MEMO_SIZE)
    def _prefill_ops(self, prompt_tokens: int) -> Tuple[Op, ...]:
        layer = prefill_layer_ops(
            self.layer_config(), prompt_tokens, prefix=f"{self.name}.prefill"
        )
        return tuple(layer) * self.n_layers + (
            self._lm_head_op(prompt_tokens=1, label="prefill"),
        )

    @functools.lru_cache(maxsize=_MEMO_SIZE)
    def _decode_step_ops(self, context_tokens: int) -> Tuple[Op, ...]:
        layer = decode_layer_ops(
            self.layer_config(), context_tokens, prefix=f"{self.name}.decode"
        )
        return tuple(layer) * self.n_layers + (
            self._lm_head_op(prompt_tokens=1, label="decode"),
        )

    def decode_phase(
        self, prompt_tokens: int, output_tokens: int, *, average_context: bool = True
    ) -> Phase:
        """Operators for the full decode of ``output_tokens`` tokens.

        With ``average_context`` (the default) a single representative decode
        step at the mean context length is built and repeated, which keeps
        the op count manageable for long generations while preserving total
        work and traffic to first order (KV-cache traffic grows linearly in
        context length, so the mean context gives the exact total).
        """
        if output_tokens <= 0:
            raise ValueError("output_tokens must be positive")
        if average_context:
            step = self.decode_step_phase(
                mean_decode_context(prompt_tokens, output_tokens)
            )
            return step.scaled(repeat=output_tokens)
        phase = Phase(name="llm_decode")
        for step_index in range(output_tokens):
            context = prompt_tokens + step_index
            step = self.decode_step_phase(max(context, 1))
            phase.extend(step.ops)
        return phase

    def _lm_head_op(self, prompt_tokens: int, label: str) -> Op:
        return matmul_op(
            f"{self.name}.{label}.lm_head",
            prompt_tokens,
            self.d_model,
            self.vocab_size,
            weight_bytes_per_element=self.weight_bytes,
            activation_bytes_per_element=self.activation_bytes,
            tag="lm_head",
        )

    def ffn_weight_bytes_per_step(self) -> int:
        """FFN weight bytes read during one (unpruned) decode step."""
        per_layer = (3 if self.gated_ffn else 2) * self.d_model * self.d_ffn
        return int(round(self.n_layers * per_layer * self.weight_bytes))


# ----------------------------------------------------------------------
# Catalogue of the language models referenced in Table I of the paper
# ----------------------------------------------------------------------
_LLM_CATALOGUE: Dict[str, LLMConfig] = {}


def _register(config: LLMConfig) -> LLMConfig:
    key = config.name.lower()
    if key in _LLM_CATALOGUE:
        raise ValueError(f"duplicate LLM registration: {config.name}")
    _LLM_CATALOGUE[key] = config
    return config


TINYLLAMA_1_1B = _register(
    LLMConfig(
        name="tinyllama-1.1b",
        n_layers=22,
        d_model=2048,
        n_heads=32,
        n_kv_heads=4,
        d_ffn=5632,
        vocab_size=32000,
    )
)

QWEN1_5_0_5B = _register(
    LLMConfig(
        name="qwen1.5-0.5b",
        n_layers=24,
        d_model=1024,
        n_heads=16,
        n_kv_heads=16,
        d_ffn=2816,
        vocab_size=151936,
    )
)

MOBILELLAMA_2_7B = _register(
    LLMConfig(
        name="mobilellama-2.7b",
        n_layers=32,
        d_model=2560,
        n_heads=32,
        d_ffn=6912,
        vocab_size=32000,
    )
)

PHI_2_2_7B = _register(
    LLMConfig(
        name="phi-2",
        n_layers=32,
        d_model=2560,
        n_heads=32,
        d_ffn=10240,
        vocab_size=51200,
        gated_ffn=False,
    )
)

DEEPSEEK_LLM_1_3B = _register(
    LLMConfig(
        name="deepseek-llm-1.3b",
        n_layers=24,
        d_model=2048,
        n_heads=16,
        d_ffn=5504,
        vocab_size=102400,
    )
)

VICUNA_7B = _register(
    LLMConfig(
        name="vicuna-7b",
        n_layers=32,
        d_model=4096,
        n_heads=32,
        d_ffn=11008,
        vocab_size=32000,
    )
)

VICUNA_13B = _register(
    LLMConfig(
        name="vicuna-13b",
        n_layers=40,
        d_model=5120,
        n_heads=40,
        d_ffn=13824,
        vocab_size=32000,
    )
)

LLAMA_33B = _register(
    LLMConfig(
        name="llama-33b",
        n_layers=60,
        d_model=6656,
        n_heads=52,
        d_ffn=17920,
        vocab_size=32000,
    )
)


def available_llms() -> List[str]:
    """Names of all registered language models."""
    return sorted(_LLM_CATALOGUE)


def get_llm(name: str) -> LLMConfig:
    """Look up a registered language model by (case-insensitive) name."""
    key = name.lower()
    if key not in _LLM_CATALOGUE:
        raise KeyError(
            f"unknown LLM {name!r}; available: {', '.join(available_llms())}"
        )
    return _LLM_CATALOGUE[key]
