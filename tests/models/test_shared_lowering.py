"""Shared decoder-layer lowering prices exactly like per-layer lowering.

``LLMConfig`` lowers one decoder layer per input and references the same
op objects ``n_layers`` times.  The old lowering built one copy per layer
that differed only in ``name`` and ``layer_index``, which no cost model
reads.  These tests rebuild that per-layer reference and demand ``==``
results from both the scalar simulator and the batch engine, on a
heterogeneous, a homogeneous-MC and a pruned compute-bound chip.
"""

import pytest

from repro.core.batch import BatchCostEngine, DesignGrid, OpTable
from repro.core.config import default_system, homo_mc_system
from repro.core.simulator import PerformanceSimulator
from repro.models.llm import get_llm
from repro.models.ops import Phase
from repro.models.transformer import decode_layer_ops, prefill_layer_ops
from repro.planner.space import ChipDesign

#: TinyLlama: gated FFN, grouped-query attention.  Phi-2: plain FFN.
MODELS = ("tinyllama-1.1b", "phi-2")
LENGTHS = (1, 77, 640)


def systems():
    pruned = ChipDesign(
        n_groups=1, cc_per_group=1, mc_per_group=1, dram_gbps=204.8, keep_fraction=0.4
    ).system()
    return [default_system(), homo_mc_system(), pruned]


def per_layer_reference(llm, tokens, mode):
    """The old lowering: one freshly built, layer-indexed copy per layer."""
    layer_ops = prefill_layer_ops if mode == "prefill" else decode_layer_ops
    cfg = llm.layer_config()
    ops = []
    for layer in range(llm.n_layers):
        ops.extend(layer_ops(cfg, tokens, layer_index=layer, prefix=f"{llm.name}.{mode}"))
    ops.append(llm._lm_head_op(prompt_tokens=1, label=mode))
    return ops


def shared(llm, tokens, mode):
    if mode == "prefill":
        return llm._prefill_ops(tokens)
    return llm._decode_step_ops(tokens)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("mode", ("prefill", "decode"))
class TestSharedLayerLowering:
    def test_one_layer_referenced_n_layers_times(self, model, mode):
        llm = get_llm(model)
        for tokens in LENGTHS:
            ops = shared(llm, tokens, mode)
            width = (len(ops) - 1) // llm.n_layers
            first = ops[:width]
            assert len(ops) == llm.n_layers * width + 1
            for layer in range(llm.n_layers):
                block = ops[layer * width : (layer + 1) * width]
                assert all(a is b for a, b in zip(block, first, strict=True))
            assert ops[-1].tag == "lm_head"
            assert len({id(op) for op in ops}) == width + 1

    def test_scalar_simulator_prices_both_lowerings_equal(self, model, mode):
        llm = get_llm(model)
        for system in systems():
            for tokens in LENGTHS:
                name = f"llm_{mode}"
                new = Phase(name=name, ops=list(shared(llm, tokens, mode)))
                old = Phase(name=name, ops=per_layer_reference(llm, tokens, mode))
                new_result = PerformanceSimulator(system).execute_phase(new)
                old_result = PerformanceSimulator(system).execute_phase(old)
                assert new_result == old_result

    def test_batch_engine_prices_both_lowerings_equal(self, model, mode):
        llm = get_llm(model)
        grid = DesignGrid.from_systems(systems())
        for tokens in LENGTHS:
            name = f"llm_{mode}"
            new = OpTable.from_phase(Phase(name=name, ops=list(shared(llm, tokens, mode))))
            old = OpTable.from_phase(
                Phase(name=name, ops=per_layer_reference(llm, tokens, mode))
            )
            assert new.n_unique == old.n_unique
            assert new.order.tolist() == old.order.tolist()
            new_result = BatchCostEngine(grid).evaluate(new)
            old_result = BatchCostEngine(grid).evaluate(old)
            for point in range(grid.n_points):
                assert new_result.result_for(point) == old_result.result_for(point)
