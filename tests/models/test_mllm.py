"""Tests for the MLLM compositions (repro.models.mllm)."""

import pytest

from repro.models.mllm import InferenceRequest, MLLMConfig, available_mllms, get_mllm
from repro.models.llm import LLMConfig, get_llm
from repro.models.ops import merge_phases
from repro.models.projector import mlp_projector
from repro.models.vision import VisionEncoderConfig, get_vision_encoder


class TestInferenceRequest:
    def test_rejects_zero_output_tokens(self):
        with pytest.raises(ValueError):
            InferenceRequest(images=1, prompt_text_tokens=8, output_tokens=0)

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            InferenceRequest(images=0, prompt_text_tokens=0, output_tokens=4)

    def test_text_only_request_is_valid(self):
        request = InferenceRequest(images=0, prompt_text_tokens=8, output_tokens=4)
        assert request.images == 0


class TestCatalogue:
    def test_contains_paper_workloads(self):
        names = available_mllms()
        assert "sphinx-tiny" in names
        assert "karmavlm" in names

    def test_unknown_mllm_raises(self):
        with pytest.raises(KeyError):
            get_mllm("made-up-vlm")

    def test_sphinx_tiny_composition(self, sphinx_tiny):
        assert len(sphinx_tiny.vision_encoders) == 3
        assert sphinx_tiny.llm.name == "tinyllama-1.1b"

    def test_karmavlm_composition(self, karmavlm):
        assert len(karmavlm.vision_encoders) == 2
        assert karmavlm.llm.name == "qwen1.5-0.5b"

    def test_total_parameters_in_expected_range(self, sphinx_tiny):
        # TinyLlama 1.1B + ~1B of encoders/projector.
        assert 1.5e9 <= sphinx_tiny.parameter_count <= 3.0e9

    def test_rejects_empty_encoder_list(self):
        with pytest.raises(ValueError):
            MLLMConfig(
                name="bad",
                vision_encoders=(),
                projector=mlp_projector("p", 64, 64),
                llm=get_llm("tinyllama-1.1b"),
            )


class TestPromptComposition:
    def test_vision_tokens_zero_without_images(self, sphinx_tiny):
        assert sphinx_tiny.vision_tokens(images=0) == 0

    def test_prompt_tokens_add_text_and_vision(self, sphinx_tiny):
        request = InferenceRequest(images=1, prompt_text_tokens=32, output_tokens=4)
        assert sphinx_tiny.prompt_tokens(request) == sphinx_tiny.vision_tokens(1) + 32

    def test_paper_prompt_length_is_about_300_tokens(self, karmavlm):
        """The paper profiles inputs of ~300 tokens, mostly vision tokens."""
        request = InferenceRequest(images=1, prompt_text_tokens=32, output_tokens=4)
        prompt = karmavlm.prompt_tokens(request)
        assert 200 <= prompt <= 900
        assert karmavlm.vision_tokens(1) > request.prompt_text_tokens


class TestWorkloadLowering:
    def test_four_phases_with_image(self, sphinx_tiny, short_request):
        workload = sphinx_tiny.build_workload(short_request)
        assert workload.phase_names == (
            "vision_encoder",
            "projector",
            "llm_prefill",
            "llm_decode",
        )

    def test_text_only_request_skips_vision_phases(self, sphinx_tiny):
        request = InferenceRequest(images=0, prompt_text_tokens=16, output_tokens=4)
        workload = sphinx_tiny.build_workload(request)
        assert workload.phase_names == ("llm_prefill", "llm_decode")

    def test_decode_repeat_matches_output_tokens(self, sphinx_tiny, short_request):
        workload = sphinx_tiny.build_workload(short_request)
        assert workload.phase("llm_decode").repeat == short_request.output_tokens

    def test_decode_weight_traffic_dominated_by_ffn(self, sphinx_tiny, short_request):
        """Fig. 2(c): FFN weights dominate the decode-phase DRAM accesses."""
        workload = sphinx_tiny.build_workload(short_request)
        decode = workload.phase("llm_decode")
        ffn_bytes = sum(op.weight_bytes for op in decode.ops if op.tag == "ffn")
        total_weight = sum(op.weight_bytes for op in decode.ops)
        assert ffn_bytes > 0.5 * total_weight

    def test_kv_cache_is_small_fraction_for_short_context(self, sphinx_tiny, short_request):
        """Fig. 2(c): the KV cache is a small share for edge-length contexts."""
        workload = sphinx_tiny.build_workload(short_request)
        decode = workload.phase("llm_decode")
        kv_bytes = sum(op.total_bytes for op in decode.ops if op.tag == "kv_cache")
        assert kv_bytes < 0.1 * decode.total_bytes

    def test_decode_step_phase_exposed(self, sphinx_tiny):
        step = sphinx_tiny.decode_step(context_tokens=128)
        assert step.name == "llm_decode"
        assert step.repeat == 1

    def test_larger_output_increases_only_decode(self, sphinx_tiny):
        small = sphinx_tiny.build_workload(
            InferenceRequest(images=1, prompt_text_tokens=16, output_tokens=4)
        )
        large = sphinx_tiny.build_workload(
            InferenceRequest(images=1, prompt_text_tokens=16, output_tokens=16)
        )
        assert small.phase("llm_prefill").flops == large.phase("llm_prefill").flops
        assert large.phase("llm_decode").flops > small.phase("llm_decode").flops


class TestCCStageLowering:
    @pytest.mark.parametrize("name", available_mllms())
    @pytest.mark.parametrize("images", [0, 1, 4])
    def test_ops_equal_the_merged_first_three_phases(self, name, images):
        model = get_mllm(name)
        workload = model.build_workload(
            InferenceRequest(images=images, prompt_text_tokens=24, output_tokens=1)
        )
        recipe = merge_phases(
            "cc_stage",
            [
                phase
                for phase in workload.phases
                if phase.name in ("vision_encoder", "projector", "llm_prefill")
            ],
        )
        phase = model.cc_stage_phase(images, 24)
        assert phase.name == "cc_stage"
        assert phase.repeat == recipe.repeat == 1
        assert phase.ops == recipe.ops

    def test_rejects_bad_shapes(self, sphinx_tiny):
        for images, prompt in ((-1, 8), (1, -1), (0, 0)):
            with pytest.raises(ValueError):
                sphinx_tiny.cc_stage_phase(images, prompt)


def tiny_mllm() -> MLLMConfig:
    return MLLMConfig(
        name="memo-test-vlm",
        vision_encoders=(
            VisionEncoderConfig(
                name="memo-test-vit", n_layers=1, d_model=32, n_heads=2, d_ffn=64,
                image_size=28,
            ),
        ),
        projector=mlp_projector("memo-test.projector", 32, 64),
        llm=LLMConfig(
            name="memo-test-llm", n_layers=1, d_model=64, n_heads=4, d_ffn=128,
            vocab_size=100,
        ),
    )


class TestLoweringMemo:
    """Lowering is memoized per phase input; results stay the caller's own."""

    def test_mutating_a_workload_leaves_the_next_one_unchanged(self, sphinx_tiny):
        request = InferenceRequest(images=2, prompt_text_tokens=19, output_tokens=7)

        def snapshot(workload):
            return [(p.name, tuple(p.ops), p.repeat) for p in workload.phases]

        expected = snapshot(sphinx_tiny.build_workload(request))
        mutated = sphinx_tiny.build_workload(request)
        mutated.phases[0].ops.append(mutated.phases[-1].ops[0])
        mutated.phases[2].ops.pop()
        mutated.phases[-1].repeat = 99
        mutated.phases.pop(1)
        assert snapshot(sphinx_tiny.build_workload(request)) == expected

    def test_mutating_a_cc_stage_phase_leaves_the_next_one_unchanged(self, sphinx_tiny):
        expected = tuple(sphinx_tiny.cc_stage_phase(1, 11).ops)
        mutated = sphinx_tiny.cc_stage_phase(1, 11)
        mutated.ops.append(mutated.ops[0])
        mutated.repeat = 3
        again = sphinx_tiny.cc_stage_phase(1, 11)
        assert tuple(again.ops) == expected
        assert again.repeat == 1

    def test_calls_share_ops_but_not_containers(self, sphinx_tiny):
        request = InferenceRequest(images=1, prompt_text_tokens=5, output_tokens=3)
        first = sphinx_tiny.build_workload(request)
        second = sphinx_tiny.build_workload(request)
        for a, b in zip(first.phases, second.phases):
            assert a is not b
            assert a.ops is not b.ops
            assert all(x is y for x, y in zip(a.ops, b.ops))

    def test_each_memo_stays_within_its_bound(self):
        model = tiny_mllm()
        memos = (
            MLLMConfig._vision_ops,
            LLMConfig._prefill_ops,
            LLMConfig._decode_step_ops,
        )
        bound = max(memo.cache_info().maxsize for memo in memos)
        for count in range(1, bound + 2):
            model.cc_stage_phase(count, count)
            model.decode_step(count)
        for memo in memos:
            info = memo.cache_info()
            assert info.currsize == info.maxsize  # filled to its bound, never past it
