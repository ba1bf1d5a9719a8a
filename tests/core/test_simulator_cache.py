"""Memoization regression tests: cached and uncached runs must agree."""

import dataclasses

import pytest

from repro.core.config import default_system
from repro.core.simulator import PerformanceSimulator
from repro.models.llm import get_llm
from repro.models.mllm import InferenceRequest, get_mllm
from repro.models.ops import matmul_op


REQUESTS = [
    InferenceRequest(images=1, prompt_text_tokens=32, output_tokens=64),
    InferenceRequest(images=0, prompt_text_tokens=128, output_tokens=16),
    InferenceRequest(images=2, prompt_text_tokens=8, output_tokens=32),
]


class TestRequestCache:
    """``run_request`` on simulators with and without the op cache."""

    @pytest.mark.parametrize("model_name", ["sphinx-tiny", "karmavlm"])
    def test_cached_and_uncached_results_identical(self, model_name):
        model = get_mllm(model_name)
        cached = PerformanceSimulator(enable_cache=True)
        uncached = PerformanceSimulator(enable_cache=False)
        for request in REQUESTS:
            a = cached.run_request(model, request)
            b = uncached.run_request(model, request)
            assert a == b  # WorkloadResult dataclass equality, all phases

    def test_repeat_requests_hit_the_cache(self, sphinx_tiny):
        simulator = PerformanceSimulator()
        request = REQUESTS[0]
        first = simulator.run_request(sphinx_tiny, request)
        info_after_first = simulator.cache_info()
        second = simulator.run_request(sphinx_tiny, request)
        info_after_second = simulator.cache_info()
        assert first == second
        # No additional op-level work happened on the repeat.
        assert info_after_second.op_misses == info_after_first.op_misses

    def test_same_name_different_config_does_not_alias(self, sphinx_tiny):
        simulator = PerformanceSimulator()
        bigger = dataclasses.replace(sphinx_tiny, llm=get_llm("vicuna-7b"))
        assert bigger.name == sphinx_tiny.name
        small = simulator.run_request(sphinx_tiny, REQUESTS[0])
        large = simulator.run_request(bigger, REQUESTS[0])
        assert large.total_latency_s > small.total_latency_s

    def test_cache_hit_mutation_does_not_poison_later_hits(self, sphinx_tiny):
        simulator = PerformanceSimulator()
        first = simulator.run_request(sphinx_tiny, REQUESTS[0])
        pristine_latency = first.total_latency_s
        first.phases.pop("llm_decode")
        second = simulator.run_request(sphinx_tiny, REQUESTS[0])
        assert "llm_decode" in second.phases
        assert second.total_latency_s == pristine_latency

    def test_clear_cache_resets_state(self, sphinx_tiny):
        simulator = PerformanceSimulator()
        simulator.run_request(sphinx_tiny, REQUESTS[0])
        simulator.clear_cache()
        info = simulator.cache_info()
        assert info.op_hits == info.op_misses == 0
        # Results are identical after the reset too.
        assert simulator.run_request(sphinx_tiny, REQUESTS[0]) == (
            PerformanceSimulator(enable_cache=False).run_request(
                sphinx_tiny, REQUESTS[0]
            )
        )


class TestOpCache:
    def test_same_shape_different_name_shares_entry(self):
        simulator = PerformanceSimulator()
        op_a = matmul_op("layer.0.ffn", 1, 2048, 5632, prunable=True)
        op_b = matmul_op("layer.7.ffn", 1, 2048, 5632, prunable=True)
        first = simulator.execute_op(op_a)
        second = simulator.execute_op(op_b)
        info = simulator.cache_info()
        assert info.op_misses == 1
        assert info.op_hits == 1
        assert first.compute_cycles == second.compute_cycles
        assert first.memory_cycles == second.memory_cycles
        assert second.op_name == "layer.7.ffn"

    @pytest.mark.parametrize("keep_fraction", [1.0, 0.6, 0.3])
    def test_cached_matches_uncached_with_pruning(self, keep_fraction):
        system = default_system().with_pruning(keep_fraction)
        cached = PerformanceSimulator(system, enable_cache=True)
        uncached = PerformanceSimulator(system, enable_cache=False)
        op = matmul_op("ffn.gate", 1, 2048, 5632, prunable=True)
        for _ in range(2):
            a = cached.execute_op(op, bandwidth_fraction=0.5)
            b = uncached.execute_op(op, bandwidth_fraction=0.5)
            assert a == b

    def test_distinct_bandwidth_fractions_do_not_collide(self):
        simulator = PerformanceSimulator()
        op = matmul_op("ffn.up", 1, 2048, 5632)
        full = simulator.execute_op(op, bandwidth_fraction=1.0)
        half = simulator.execute_op(op, bandwidth_fraction=0.5)
        assert half.memory_cycles > full.memory_cycles


class TestPrunedWeightBytes:
    def test_op_level_accounting(self):
        op = matmul_op("ffn.gate", 1, 100, 100, prunable=True)
        assert op.pruned_weight_bytes(1.0) == op.weight_bytes
        assert op.pruned_weight_bytes(0.5) == round(op.weight_bytes * 0.5)
        fixed = matmul_op("attn.q", 1, 100, 100, prunable=False)
        assert fixed.pruned_weight_bytes(0.5) == fixed.weight_bytes
        with pytest.raises(ValueError):
            op.pruned_weight_bytes(1.5)

    def test_simulator_traffic_uses_shared_primitive(self):
        simulator = PerformanceSimulator(enable_cache=False)
        op = matmul_op("ffn.down", 1, 2048, 5632, prunable=True)
        pruned = simulator.execute_op(op, keep_fraction=0.4)
        expected = (
            op.pruned_weight_bytes(0.4) + op.activation_bytes + op.output_bytes
        )
        assert pruned.dram_bytes == expected
