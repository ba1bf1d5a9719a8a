"""Batch engine tests: exact numerical identity with the scalar simulator.

The batch engine's contract is *bit* equality, not closeness: every float
in a materialised ``WorkloadResult`` must equal the scalar simulator's,
because both paths share the :mod:`repro.costs` kernels and the batched
reductions fold in the scalar loop's summation order.  All assertions here
use ``==`` on purpose — a tolerance would hide a broken mirror.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import costs
from repro.core.batch import (
    BatchCostEngine,
    DesignGrid,
    OpTable,
    batch_price_request_mix,
    batch_run_request,
    compile_workload,
    ordered_sum,
)
from repro.core.config import (
    SystemConfig,
    default_system,
    homo_cc_system,
    homo_mc_system,
    scaled_system,
)
from repro.core.simulator import PerformanceSimulator
from repro.models.mllm import InferenceRequest, get_mllm
from repro.models.ops import OpKind, Phase, Workload, elementwise_op, matmul_op


REQUEST = InferenceRequest(images=1, prompt_text_tokens=32, output_tokens=16)


def small_workload() -> Workload:
    """A compact workload covering every cost-model branch."""
    workload = Workload(name="synthetic")
    prefill = Phase(name="llm_prefill")
    prefill.add(matmul_op("qkv", 16, 256, 384, tag="attention"))
    prefill.add(elementwise_op("softmax", 256, kind=OpKind.SOFTMAX, flops_per_element=4.0))
    prefill.add(elementwise_op("norm", 512, kind=OpKind.NORM))
    workload.add(prefill)
    decode = Phase(name="llm_decode", repeat=8)
    decode.add(matmul_op("ffn.gate", 1, 256, 1024, prunable=True, tag="ffn"))
    decode.add(matmul_op("ffn.down", 1, 1024, 256, prunable=True, tag="ffn"))
    decode.add(matmul_op("attn.v", 1, 256, 256, tag="attention"))
    decode.add(elementwise_op("act", 1024, kind=OpKind.ACTIVATION, flops_per_element=4.0))
    workload.add(decode)
    return workload


def scalar_result(system, workload, *, bandwidth_fraction=1.0, output_tokens=None):
    simulator = PerformanceSimulator(system)
    return simulator.execute_workload(
        workload, output_tokens=output_tokens, bandwidth_fraction=bandwidth_fraction
    )


class TestExactEquivalence:
    def test_standard_systems_match_scalar_exactly(self):
        model = get_mllm("sphinx-tiny")
        systems = [
            default_system(),
            homo_cc_system(),
            homo_mc_system(),
            scaled_system(2, 3, 1),
            scaled_system(4, 1, 3),
            default_system().with_pruning(0.37),
        ]
        batch = batch_run_request(model, REQUEST, systems)
        for index, system in enumerate(systems):
            scalar = PerformanceSimulator(system).run_request(model, REQUEST)
            assert batch.result_for(index) == scalar

    def test_bandwidth_fractions_match_scalar_exactly(self):
        workload = small_workload()
        systems = [default_system(), scaled_system(2, 1, 2)]
        fractions = [0.3, 0.85]
        grid = DesignGrid.from_systems(systems, bandwidth_fraction=fractions)
        batch = BatchCostEngine(grid).evaluate(compile_workload(workload))
        for index, (system, fraction) in enumerate(zip(systems, fractions)):
            assert batch.result_for(index) == scalar_result(
                system, workload, bandwidth_fraction=fraction
            )

    def test_keep_fraction_override_matches_scalar(self):
        workload = small_workload()
        system = default_system()
        grid = DesignGrid.from_systems([system], keep_fraction=0.25)
        batch = BatchCostEngine(grid).evaluate(compile_workload(workload))
        simulator = PerformanceSimulator(system)
        phases = {
            phase.name: simulator.execute_phase(phase, keep_fraction=0.25)
            for phase in workload.phases
        }
        result = batch.result_for(0)
        for name, scalar_phase in phases.items():
            assert result.phases[name] == scalar_phase

    @settings(max_examples=25, deadline=None)
    @given(
        n_groups=st.integers(min_value=1, max_value=4),
        cc=st.integers(min_value=0, max_value=3),
        mc=st.integers(min_value=0, max_value=3),
        keep=st.one_of(st.none(), st.floats(min_value=0.05, max_value=1.0)),
        fraction=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_random_configs_match_scalar_exactly(self, n_groups, cc, mc, keep, fraction):
        if cc == 0 and mc == 0:
            cc = 1
        system = scaled_system(n_groups, cc, mc)
        workload = small_workload()
        grid = DesignGrid.from_systems(
            [system], bandwidth_fraction=fraction, keep_fraction=keep
        )
        batch = BatchCostEngine(grid).evaluate(compile_workload(workload))
        simulator = PerformanceSimulator(system)
        result = batch.result_for(0)
        for phase in workload.phases:
            scalar_phase = simulator.execute_phase(
                phase, bandwidth_fraction=fraction, keep_fraction=keep
            )
            assert result.phases[phase.name] == scalar_phase

    def test_forced_pool_matches_scalar(self):
        workload = small_workload()
        system = default_system()
        for pool in ("cc", "mc"):
            grid = DesignGrid.from_systems([system], bandwidth_fraction=0.5)
            table = compile_workload(workload)
            batch = BatchCostEngine(grid).evaluate(table, pool=pool)
            simulator = PerformanceSimulator(system)
            for phase in workload.phases:
                scalar_phase = simulator.execute_phase(
                    phase, pool=pool, bandwidth_fraction=0.5
                )
                assert batch.result_for(0).phases[phase.name] == scalar_phase


def priced_phases(model, shapes, monkeypatch):
    """The ``(name, ops, repeat)`` list pricing ``shapes`` hands its table."""
    from repro.core import batch

    stacked = []

    class RecordingTable(OpTable):
        def __init__(self, name, phases):
            stacked.extend(phases)
            super().__init__(name, phases)

    with monkeypatch.context() as patch:
        patch.setattr(batch, "OpTable", RecordingTable)
        batch_price_request_mix(model, shapes, default_system())
    return stacked


#: Request shapes that share phases in every way the pricer keys them.
SHARED_PHASE_SHAPES = [
    # The same CC inputs with different outputs.
    InferenceRequest(images=1, prompt_text_tokens=32, output_tokens=8),
    InferenceRequest(images=1, prompt_text_tokens=32, output_tokens=17),
    # The same images with different prompts.
    InferenceRequest(images=2, prompt_text_tokens=10, output_tokens=5),
    InferenceRequest(images=2, prompt_text_tokens=50, output_tokens=5),
    # One decode context (p + 1) at two repeats.
    InferenceRequest(images=0, prompt_text_tokens=40, output_tokens=3),
    InferenceRequest(images=0, prompt_text_tokens=41, output_tokens=1),
    # One decode context and repeat from two prompts: 39.5 and
    # 40.5 both round to 40.
    InferenceRequest(images=0, prompt_text_tokens=39, output_tokens=2),
    InferenceRequest(images=0, prompt_text_tokens=40, output_tokens=2),
]


class TestScenarioMixEquivalence:
    """Scenario-generated workload shapes price batch == scalar.

    The scenario layer mixes request families the original sweeps never
    exercised — imageless text chat, many-image prompts, video frame
    pairs, 1k-token contexts.  `batch_price_request_mix` stacks all of
    them into one op table; every shape's price must stay ``==``-equal to
    the scalar simulator, exactly like the single-workload paths above.
    """

    def assert_prices_match_scalar(self, shapes, system):
        model = get_mllm("sphinx-tiny")
        prices = batch_price_request_mix(model, shapes, system)
        simulator = PerformanceSimulator(system)
        for shape in shapes:
            scalar = simulator.run_request(model, shape)
            price = prices[shape]
            assert price.latency_s == scalar.total_latency_s
            assert price.dram_bytes == scalar.total_dram_bytes
            assert price.flops == scalar.total_flops

    def test_registered_scenario_shapes_match_scalar(self):
        from repro.scenarios import compile_scenario, get_scenario

        compiled = compile_scenario(get_scenario("mixed-rush-hour"))
        self.assert_prices_match_scalar(
            compiled.unique_shapes, default_system()
        )

    @settings(max_examples=15, deadline=None)
    @given(
        images=st.integers(min_value=0, max_value=8),
        prompt=st.integers(min_value=0, max_value=1024),
        output=st.integers(min_value=1, max_value=64),
        cc=st.integers(min_value=0, max_value=2),
        mc=st.integers(min_value=0, max_value=2),
    )
    def test_randomized_scenario_shapes_match_scalar(
        self, images, prompt, output, cc, mc
    ):
        if images == 0 and prompt == 0:
            prompt = 1
        if cc == 0 and mc == 0:
            cc = 1
        shapes = [
            InferenceRequest(
                images=images, prompt_text_tokens=prompt, output_tokens=output
            ),
            # A second, fixed shape shares decoder signatures with the
            # random one, exercising cross-shape deduplication.
            InferenceRequest(images=1, prompt_text_tokens=32, output_tokens=8),
        ]
        self.assert_prices_match_scalar(shapes, scaled_system(2, cc, mc))

    def test_shapes_sharing_a_phase_match_scalar(self):
        for system in (default_system(), scaled_system(2, 1, 2)):
            self.assert_prices_match_scalar(SHARED_PHASE_SHAPES, system)

    def test_one_decode_phase_per_context(self, monkeypatch):
        # A decode phase's repeat (its output tokens) is applied after the
        # fold, so shapes of one decode context share one stacked phase.
        model = get_mllm("sphinx-tiny")
        stacked = priced_phases(model, SHARED_PHASE_SHAPES, monkeypatch)
        repeats = [repeat for name, _, repeat in stacked if name == "llm_decode"]
        contexts = {model.phase_keys(shape)[-1][1] for shape in SHARED_PHASE_SHAPES}
        assert repeats == [1] * len(contexts)

    def test_each_distinct_phase_is_stacked_once(self, monkeypatch):
        from repro.scenarios import compile_scenario, get_scenario

        model = get_mllm("sphinx-tiny")
        shapes = compile_scenario(get_scenario("mixed-rush-hour")).unique_shapes
        entries = [
            (name.rsplit("/", 1)[-1], repeat, tuple(map(id, ops)))
            for name, ops, repeat in priced_phases(model, shapes, monkeypatch)
        ]
        assert len(set(entries)) == len(entries)
        assert len(entries) < sum(
            len(model.build_workload(shape).phases) for shape in shapes
        )

    def test_duplicate_requests_price_once(self):
        model = get_mllm("sphinx-tiny")
        shapes = [REQUEST, REQUEST, REQUEST]
        prices = batch_price_request_mix(model, shapes, default_system())
        assert len(prices) == 1

    def test_rejects_empty_request_list(self):
        with pytest.raises(ValueError):
            batch_price_request_mix(
                get_mllm("sphinx-tiny"), [], default_system()
            )


class TestPhaseList:
    """``build_workload`` and offered-load pricing lower one phase list."""

    def assert_workload_is_the_priced_list(self, model, shape, monkeypatch):
        workload = model.build_workload(shape)
        priced = priced_phases(model, [shape], monkeypatch)
        # Pricing stacks each phase once and applies its repeat after.
        assert [(p.name, 1) for p in workload.phases] == [
            (name.rsplit("/", 1)[-1], repeat) for name, _, repeat in priced
        ]
        for phase, (_, ops, _) in zip(workload.phases, priced):
            assert len(phase.ops) == len(ops)
            assert all(a is b for a, b in zip(phase.ops, ops))
        # The decode phase is the LLM's own averaged decode lowering.
        prompt = model.prompt_tokens(shape)
        decode = model.llm.decode_phase(prompt, shape.output_tokens)
        assert workload.phases[-1].repeat == decode.repeat == shape.output_tokens
        assert all(a is b for a, b in zip(workload.phases[-1].ops, decode.ops))

    def test_registered_scenario_shapes(self, monkeypatch):
        from repro.scenarios import compile_scenario, get_scenario

        model = get_mllm("sphinx-tiny")
        shapes = compile_scenario(get_scenario("mixed-rush-hour")).unique_shapes
        for shape in shapes:
            self.assert_workload_is_the_priced_list(model, shape, monkeypatch)

    @settings(max_examples=25, deadline=None)
    @given(
        images=st.integers(min_value=0, max_value=6),
        prompt=st.integers(min_value=0, max_value=512),
        output=st.integers(min_value=1, max_value=300),
    )
    def test_randomized_shapes(self, images, prompt, output):
        if images == 0 and prompt == 0:
            prompt = 1
        shape = InferenceRequest(
            images=images, prompt_text_tokens=prompt, output_tokens=output
        )
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.assert_workload_is_the_priced_list(
                get_mllm("sphinx-tiny"), shape, monkeypatch
            )


class TestCacheInteraction:
    """The batch engine against PR 1's memoization layers."""

    def test_matches_cached_and_uncached_scalar(self):
        model = get_mllm("sphinx-tiny")
        system = default_system()
        batch = batch_run_request(model, REQUEST, [system])
        cached = PerformanceSimulator(system, enable_cache=True)
        uncached = PerformanceSimulator(system, enable_cache=False)
        expected = cached.run_request(model, REQUEST)
        assert uncached.run_request(model, REQUEST) == expected
        assert batch.result_for(0) == expected

    def test_batch_leaves_scalar_caches_untouched(self):
        model = get_mllm("sphinx-tiny")
        system = default_system()
        simulator = PerformanceSimulator(system)
        batch_run_request(model, REQUEST, [system]).results()
        info = simulator.cache_info()
        assert info.op_hits == info.op_misses == 0

    def test_scalar_cache_hits_after_batch_stay_identical(self):
        model = get_mllm("sphinx-tiny")
        system = default_system()
        simulator = PerformanceSimulator(system)
        first = simulator.run_request(model, REQUEST)
        batched = batch_run_request(model, REQUEST, [system]).result_for(0)
        hit = simulator.run_request(model, REQUEST)
        assert first == batched == hit

    def test_repeated_batch_evaluations_are_deterministic(self):
        model = get_mllm("sphinx-tiny")
        systems = [default_system(), scaled_system(2, 2, 2)]
        first = batch_run_request(model, REQUEST, systems).results()
        second = batch_run_request(model, REQUEST, systems).results()
        assert first == second


class TestOpTable:
    def test_deduplicates_repeated_signatures(self):
        workload = get_mllm("sphinx-tiny").build_workload(REQUEST)
        table = compile_workload(workload)
        assert table.n_ops == sum(len(phase.ops) for phase in workload.phases)
        assert table.n_unique < table.n_ops  # decoder layers share shapes
        assert table.order.max() == table.n_unique - 1

    def test_phase_slices_cover_all_ops(self):
        table = compile_workload(small_workload())
        covered = sum(slice_.op_count for slice_ in table.phases)
        assert covered == table.n_ops
        assert table.phase("llm_decode").repeat == 8
        with pytest.raises(KeyError):
            table.phase("nope")

    def test_default_output_tokens_comes_from_decode_repeat(self):
        table = compile_workload(small_workload())
        assert table.default_output_tokens == 8
        prefill_only = OpTable.from_phase(small_workload().phases[0])
        assert prefill_only.default_output_tokens == 1


def fresh_phases(n_phases=100, width=8):
    """Phases of freshly built ops; most repeat an earlier op's shape.

    Consumed as a generator, each phase's ops become garbage once the next
    phase is built, except the first op of each shape, which the table
    keeps as a column.  A freed op's ``id()`` is then free for reuse.
    """
    for p in range(n_phases):
        ops = [
            matmul_op(f"p{p}.{j}", 1 + (p * j) % 5, 16, 16 * (1 + (p + 3 * j) % 11))
            for j in range(width)
        ]
        yield (f"phase{p}", ops, 1 + p % 3)


TABLE_COLUMNS = (
    "m",
    "k",
    "n",
    "weight_bytes",
    "activation_bytes",
    "output_bytes",
    "flops",
    "prunable",
    "is_mat",
    "is_vec",
    "is_elem",
    "is_strict_gemv",
    "prefers_mc",
)


def position_signatures(table):
    """Each position's column values, in position order."""
    columns = list(zip(*(getattr(table, field).tolist() for field in TABLE_COLUMNS)))
    return [columns[index] for index in table.order.tolist()]


def assert_tables_equal(a, b):
    assert a.phases == b.phases
    assert a.order.tolist() == b.order.tolist()
    assert a.n_unique == b.n_unique
    for field in TABLE_COLUMNS:
        assert getattr(a, field).tolist() == getattr(b, field).tolist(), field


class TestOpTableIdentity:
    """Identity-first lookup must build exactly the signature table."""

    def test_generator_of_fresh_ops_equals_materialized_phases(self):
        materialized = list(fresh_phases())
        expected = OpTable("fresh", materialized)
        streamed = OpTable("fresh", fresh_phases())
        assert_tables_equal(streamed, expected)
        signatures = [
            (
                op.m,
                op.k,
                op.n,
                op.weight_bytes,
                op.activation_bytes,
                op.output_bytes,
                op.flops,
                op.prunable,
            )
            for _, ops, _ in materialized
            for op in ops
        ]
        assert [column[:8] for column in position_signatures(streamed)] == signatures

    def test_shared_ops_equal_equal_but_distinct_ops(self):
        decode = get_mllm("sphinx-tiny").llm.decode_step_phase(100)
        distinct = [replace(op) for op in decode.ops]
        assert not any(a is b for a, b in zip(decode.ops, distinct))
        assert_tables_equal(
            OpTable.from_phase(decode),
            OpTable.from_phase(Phase(name="llm_decode", ops=distinct)),
        )


class TestGridValidation:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            DesignGrid.from_systems([])

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            DesignGrid.from_systems([default_system()], bandwidth_fraction=0.0)

    def test_rejects_bad_keep_fraction(self):
        with pytest.raises(ValueError):
            DesignGrid.from_systems([default_system()], keep_fraction=1.5)

    def test_rejects_wrong_length_sequences(self):
        with pytest.raises(ValueError):
            DesignGrid.from_systems([default_system()], bandwidth_fraction=[0.5, 0.5])
        with pytest.raises(ValueError):
            DesignGrid.from_systems([default_system()], keep_fraction=[0.5, 0.5])

    def test_per_point_none_keep_uses_system_default(self):
        systems = [default_system().with_pruning(0.4), default_system()]
        grid = DesignGrid.from_systems(systems, keep_fraction=[None, 0.7])
        assert grid.keep_fraction.tolist() == [0.4, 0.7]

    def test_forced_pool_requires_clusters(self):
        grid = DesignGrid.from_systems([homo_cc_system()])
        engine = BatchCostEngine(grid)
        table = compile_workload(small_workload())
        with pytest.raises(ValueError, match="no MC clusters"):
            engine.evaluate(table, pool="mc")
        with pytest.raises(ValueError, match="pool must be"):
            engine.evaluate(table, pool="gpu")


class TestArrayViews:
    def test_total_latency_matches_materialised_results(self):
        model = get_mllm("sphinx-tiny")
        systems = [default_system(), homo_cc_system(), scaled_system(2, 1, 1)]
        batch = batch_run_request(model, REQUEST, systems)
        totals = batch.total_latency_s
        for index, result in enumerate(batch.results()):
            assert totals[index] == result.total_latency_s
            assert batch.tokens_per_second[index] == result.tokens_per_second

    def test_phase_lookup_and_errors(self):
        batch = batch_run_request(
            get_mllm("sphinx-tiny"), REQUEST, [default_system()]
        )
        assert batch.phase("llm_decode").cycles.shape == (1,)
        with pytest.raises(KeyError):
            batch.phase("nope")
        with pytest.raises(IndexError):
            batch.result_for(5)


class TestCostKernels:
    """The shared kernels mirror the scalar idioms bit for bit."""

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.integers(min_value=1, max_value=10**9),
        b=st.integers(min_value=1, max_value=10**6),
    )
    def test_ceil_div_matches_math_ceil(self, a, b):
        assert float(costs.ceil_div(a, b)) == float(math.ceil(a / b))

    @settings(max_examples=50, deadline=None)
    @given(
        weight=st.integers(min_value=0, max_value=10**9),
        keep=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_pruned_weight_bytes_matches_int_round(self, weight, keep):
        expected = int(round(weight * keep)) if keep < 1.0 else weight
        assert int(costs.pruned_weight_bytes(weight, True, keep)) == expected
        assert int(costs.pruned_weight_bytes(weight, False, keep)) == weight

    def test_ordered_sum_is_a_left_fold(self):
        # Values chosen so pairwise summation would differ from the
        # sequential fold in the last ulp.
        rng = np.random.default_rng(7)
        row = rng.uniform(0.1, 1e9, size=1277)
        sequential = 0.0
        for value in row:
            sequential += float(value)
        assert float(ordered_sum(row[None, :])[0]) == sequential
