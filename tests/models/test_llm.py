"""Tests for the language-model catalogue (repro.models.llm)."""

import pytest

from repro.models.llm import LLMConfig, available_llms, get_llm
from repro.models.ops import OpKind
from repro.models.transformer import prefill_layer_ops


class TestCatalogue:
    def test_contains_table1_models(self):
        names = available_llms()
        for expected in (
            "tinyllama-1.1b",
            "qwen1.5-0.5b",
            "phi-2",
            "mobilellama-2.7b",
            "vicuna-7b",
        ):
            assert expected in names

    def test_lookup_is_case_insensitive(self):
        assert get_llm("TinyLlama-1.1B") is get_llm("tinyllama-1.1b")

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            get_llm("gpt-42")

    def test_parameter_counts_match_model_names(self):
        """Parameter totals must land near the sizes the model names claim."""
        expectations = {
            "tinyllama-1.1b": 1.1e9,
            "qwen1.5-0.5b": 0.5e9,
            "phi-2": 2.7e9,
            "mobilellama-2.7b": 2.7e9,
            "vicuna-7b": 7.0e9,
            "deepseek-llm-1.3b": 1.3e9,
        }
        for name, expected in expectations.items():
            params = get_llm(name).parameter_count
            assert 0.6 * expected <= params <= 1.5 * expected, name


class TestLLMConfig:
    def test_rejects_bad_layers(self):
        with pytest.raises(ValueError):
            LLMConfig(
                name="bad", n_layers=0, d_model=64, n_heads=4, d_ffn=128, vocab_size=100
            )

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            LLMConfig(
                name="bad", n_layers=2, d_model=65, n_heads=4, d_ffn=128, vocab_size=100
            )

    def test_decoder_parameter_bytes_excludes_input_embedding(self):
        llm = get_llm("tinyllama-1.1b")
        assert llm.decoder_parameter_bytes < llm.parameter_bytes

    def test_ffn_weight_bytes_per_step(self):
        llm = get_llm("tinyllama-1.1b")
        expected = 22 * 3 * 2048 * 5632 * llm.weight_bytes
        assert llm.ffn_weight_bytes_per_step() == expected


@pytest.fixture
def tiny_llm() -> LLMConfig:
    return LLMConfig(
        name="test-llm",
        n_layers=2,
        d_model=64,
        n_heads=4,
        d_ffn=128,
        vocab_size=1000,
    )


class TestPrefillLowering:
    def test_phase_name_and_layer_count(self, tiny_llm):
        phase = tiny_llm.prefill_phase(prompt_tokens=16)
        assert phase.name == "llm_prefill"
        layer = prefill_layer_ops(tiny_llm.layer_config(), 16, prefix="test-llm.prefill")
        first, second, head = (
            phase.ops[: len(layer)],
            phase.ops[len(layer) : 2 * len(layer)],
            phase.ops[2 * len(layer) :],
        )
        assert first == layer
        assert all(a is b for a, b in zip(second, first, strict=True))
        assert [op.tag for op in head] == ["lm_head"]

    def test_prefill_matmuls_are_gemm(self, tiny_llm):
        phase = tiny_llm.prefill_phase(prompt_tokens=16)
        assert phase.ops_by_kind(OpKind.GEMM)
        assert not any(op.kind is OpKind.GEMV and op.tag == "ffn" for op in phase.ops)

    def test_prefill_rejects_bad_tokens(self, tiny_llm):
        with pytest.raises(ValueError):
            tiny_llm.prefill_phase(0)

    def test_prefill_includes_lm_head(self, tiny_llm):
        phase = tiny_llm.prefill_phase(prompt_tokens=16)
        assert any(op.tag == "lm_head" for op in phase.ops)


class TestDecodeLowering:
    def test_decode_step_is_gemv_dominated(self, tiny_llm):
        phase = tiny_llm.decode_step_phase(context_tokens=32)
        gemv_flops = sum(op.flops for op in phase.ops_by_kind(OpKind.GEMV))
        assert gemv_flops > 0.8 * phase.flops

    def test_decode_phase_repeat_equals_output_tokens(self, tiny_llm):
        phase = tiny_llm.decode_phase(prompt_tokens=16, output_tokens=10)
        assert phase.repeat == 10

    def test_average_context_matches_exact_total_weight_traffic(self, tiny_llm):
        averaged = tiny_llm.decode_phase(16, 9, average_context=True)
        exact = tiny_llm.decode_phase(16, 9, average_context=False)
        assert averaged.weight_bytes == exact.weight_bytes

    def test_average_context_approximates_exact_kv_traffic(self, tiny_llm):
        averaged = tiny_llm.decode_phase(16, 9, average_context=True)
        exact = tiny_llm.decode_phase(16, 9, average_context=False)
        ratio = averaged.total_bytes / exact.total_bytes
        assert 0.95 <= ratio <= 1.05

    def test_decode_work_scales_linearly_with_output_tokens(self, tiny_llm):
        short = tiny_llm.decode_phase(16, 4)
        long = tiny_llm.decode_phase(16, 8)
        assert long.weight_bytes == 2 * short.weight_bytes

    def test_decode_rejects_bad_tokens(self, tiny_llm):
        with pytest.raises(ValueError):
            tiny_llm.decode_phase(16, 0)
        with pytest.raises(ValueError):
            tiny_llm.decode_step_phase(0)

    def test_prunable_ops_only_in_ffn(self, tiny_llm):
        phase = tiny_llm.decode_step_phase(context_tokens=8)
        assert all(op.tag == "ffn" for op in phase.ops if op.prunable)
        assert any(op.prunable for op in phase.ops)


class TestLoweringMemo:
    def test_mutating_a_prefill_phase_leaves_the_next_one_unchanged(self, tiny_llm):
        expected = tuple(tiny_llm.prefill_phase(prompt_tokens=16).ops)
        mutated = tiny_llm.prefill_phase(prompt_tokens=16)
        mutated.ops.append(mutated.ops[0])
        mutated.ops.pop(0)
        mutated.repeat = 5
        again = tiny_llm.prefill_phase(prompt_tokens=16)
        assert tuple(again.ops) == expected
        assert again.repeat == 1

    def test_mutating_a_decode_step_leaves_the_next_one_unchanged(self, tiny_llm):
        expected = tuple(tiny_llm.decode_step_phase(context_tokens=40).ops)
        mutated = tiny_llm.decode_step_phase(context_tokens=40)
        mutated.ops.clear()
        mutated.repeat = 7
        again = tiny_llm.decode_step_phase(context_tokens=40)
        assert tuple(again.ops) == expected
        assert again.repeat == 1
