"""Array-native batched cost engine for design-space sweeps.

The scalar :class:`~repro.core.simulator.PerformanceSimulator` walks a
workload one operator at a time — perfect for a single chip, hopeless for
the thousand-point sweeps of design-space exploration where every point
re-runs the same closed-form cost equations.  This module evaluates entire
grids of design points in a handful of NumPy passes:

1. :class:`OpTable` compiles a :class:`~repro.models.ops.Workload` into a
   columnar table: the cost-relevant operator signature ``(kind, m, k, n,
   traffic bytes, flops, prunable)`` deduplicated into unique columns plus
   an order index, with per-phase slices.  A workload is chip-independent,
   so it compiles once per sweep instead of once per point.
2. :class:`DesignGrid` flattens a list of :class:`SystemConfig` design
   points (chip geometry, DRAM, bandwidth share, keep fraction) into
   parameter columns.
3. :class:`BatchCostEngine` broadcasts the shared :mod:`repro.costs`
   kernels over the ``(points, unique ops)`` cross product and reduces to
   per-phase totals.

Numerical identity with the scalar simulator is a hard guarantee, not an
approximation: both paths run the same kernels, and the per-phase
reductions use ``np.add.accumulate`` — a strict left fold, the same
summation order as the scalar ``for op in phase`` loop — so every float in
a :class:`~repro.core.metrics.WorkloadResult` materialised from a batch is
bit-identical to the scalar result.  Regression tests assert this across
randomized configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import costs
from ..arch.area_power import AreaPowerModel
from ..arch.chip import ChipConfig
from ..models.mllm import InferenceRequest, MLLMConfig
from ..models.ops import Op, OpKind, Phase, Workload
from .config import SystemConfig
from .metrics import PhaseResult, WorkloadResult
from .simulator import PoolCostParams

__all__ = [
    "OpTable",
    "PhaseSlice",
    "DesignGrid",
    "OpCostMatrices",
    "BatchPhaseArrays",
    "BatchWorkloadResult",
    "BatchCostEngine",
    "RequestPrice",
    "ServiceTimeBounds",
    "ServiceTimeBoundsPricer",
    "compile_workload",
    "batch_run_request",
    "batch_price_request_mix",
    "batch_service_time_bounds",
    "context_bucket_for",
    "reachable_buckets",
    "ordered_sum",
]

#: Operator kinds priced as matrix-matrix products (systolic-friendly).
_MAT_KINDS = frozenset({OpKind.GEMM, OpKind.CONV, OpKind.ATTENTION})
#: Operator kinds priced as matrix-vector products (CIM-friendly).
_VEC_KINDS = frozenset({OpKind.GEMV, OpKind.EMBEDDING})
#: Operator kinds priced on the vector units.
_ELEM_KINDS = frozenset(
    {OpKind.ELEMENTWISE, OpKind.SOFTMAX, OpKind.NORM, OpKind.ACTIVATION}
)


@dataclass(frozen=True)
class PhaseSlice:
    """One phase's slice of an :class:`OpTable` op-order array."""

    name: str
    start: int
    stop: int
    repeat: int
    #: Sum of op FLOPs for a single repeat (exact Python int).
    flops: int

    @property
    def op_count(self) -> int:
        """Number of operators in one repeat of the phase."""
        return self.stop - self.start


class OpTable:
    """Columnar, deduplicated view of a workload's operators.

    Unique cost signatures become columns; ``order`` maps every operator
    position (phase by phase, in execution order) to its column, so
    reductions can preserve the scalar simulator's exact summation order
    while the expensive per-op cost math runs once per unique signature.

    Ops are looked up by object identity first, so a phase that references
    one decoder layer's ops ``n_layers`` times builds one signature per
    distinct op object, not one per position.
    """

    def __init__(self, name: str, phases: Sequence[Tuple[str, Sequence[Op], int]]) -> None:
        signature_index: Dict[tuple, int] = {}
        # Column of every op object seen, by ``id()``.  Each entry keeps
        # its op alive until the table is built: a freed op's id could be
        # reused by a different op from a generator of freshly built ops.
        identity_index: Dict[int, Tuple[Op, int]] = {}
        columns: List[Op] = []
        order: List[int] = []
        slices: List[PhaseSlice] = []
        for phase_name, ops, repeat in phases:
            start = len(order)
            flops = 0
            for op in ops:
                seen = identity_index.get(id(op))
                if seen is not None:
                    index = seen[1]
                else:
                    signature = (
                        op.kind,
                        op.m,
                        op.k,
                        op.n,
                        op.weight_bytes,
                        op.activation_bytes,
                        op.output_bytes,
                        op.flops,
                        op.prunable,
                    )
                    index = signature_index.get(signature)
                    if index is None:
                        index = len(columns)
                        signature_index[signature] = index
                        columns.append(op)
                    identity_index[id(op)] = (op, index)
                order.append(index)
                flops += op.flops
            slices.append(
                PhaseSlice(
                    name=phase_name,
                    start=start,
                    stop=len(order),
                    repeat=repeat,
                    flops=flops,
                )
            )
        self.name = name
        self.phases: Tuple[PhaseSlice, ...] = tuple(slices)
        self.order = np.asarray(order, dtype=np.int64)
        kinds = [op.kind for op in columns]
        self.m = np.asarray([op.m for op in columns], dtype=np.int64)
        self.k = np.asarray([op.k for op in columns], dtype=np.int64)
        self.n = np.asarray([op.n for op in columns], dtype=np.int64)
        self.weight_bytes = np.asarray(
            [op.weight_bytes for op in columns], dtype=np.int64
        )
        self.activation_bytes = np.asarray(
            [op.activation_bytes for op in columns], dtype=np.int64
        )
        self.output_bytes = np.asarray(
            [op.output_bytes for op in columns], dtype=np.int64
        )
        self.flops = np.asarray([op.flops for op in columns], dtype=np.int64)
        self.prunable = np.asarray([op.prunable for op in columns], dtype=bool)
        self.is_mat = np.asarray([kind in _MAT_KINDS for kind in kinds], dtype=bool)
        self.is_vec = np.asarray([kind in _VEC_KINDS for kind in kinds], dtype=bool)
        self.is_elem = np.asarray([kind in _ELEM_KINDS for kind in kinds], dtype=bool)
        #: Strict GEMV mask — pruning shrinks the MACs of GEMV only, not
        #: EMBEDDING (mirrors ``op.kind is OpKind.GEMV`` in the simulator).
        self.is_strict_gemv = np.asarray(
            [kind is OpKind.GEMV for kind in kinds], dtype=bool
        )
        #: MC-pool preference of the auto routing policy.
        self.prefers_mc = self.is_vec

    @property
    def n_unique(self) -> int:
        """Number of unique cost signatures (columns of the table)."""
        return int(self.m.size)

    @property
    def n_ops(self) -> int:
        """Total operator positions across all phases (one repeat each)."""
        return int(self.order.size)

    def phase(self, name: str) -> PhaseSlice:
        """The slice of the phase called ``name`` (KeyError if absent)."""
        for slice_ in self.phases:
            if slice_.name == name:
                return slice_
        raise KeyError(f"op table {self.name!r} has no phase named {name!r}")

    @property
    def default_output_tokens(self) -> int:
        """Mirror of the simulator's default: the decode phase's repeat."""
        for slice_ in self.phases:
            if slice_.name == "llm_decode":
                return slice_.repeat
        return 1

    @classmethod
    def from_workload(cls, workload: Workload) -> "OpTable":
        """Compile every phase of ``workload`` into one op table."""
        return cls(
            workload.name,
            [(phase.name, phase.ops, phase.repeat) for phase in workload.phases],
        )

    @classmethod
    def from_phase(cls, phase: Phase) -> "OpTable":
        """Compile a single ``phase`` into a one-phase op table."""
        return cls(phase.name, [(phase.name, phase.ops, phase.repeat)])


def compile_workload(workload: Workload) -> OpTable:
    """Compile a workload into its columnar op table."""
    return OpTable.from_workload(workload)


def _as_point_array(value, n_points: int, name: str) -> np.ndarray:
    """Broadcast a scalar or per-point sequence to a float64 (P,) array."""
    if np.isscalar(value):
        array = np.full(n_points, float(value), dtype=np.float64)
    else:
        array = np.asarray(list(value), dtype=np.float64)
        if array.shape != (n_points,):
            raise ValueError(
                f"{name} must be a scalar or a sequence of {n_points} values"
            )
    return array


class DesignGrid:
    """Columnar parameters of a batch of design points.

    One row per design point: pool geometry (clusters, cores, systolic and
    CIM shapes, staging buffers), the DRAM/interconnect cost parameters,
    the DRAM bandwidth share and the effective pruning keep fraction.
    """

    def __init__(
        self,
        systems: Sequence[SystemConfig],
        *,
        bandwidth_fraction=1.0,
        keep_fraction=None,
    ) -> None:
        if not systems:
            raise ValueError("a design grid needs at least one system")
        self.systems: Tuple[SystemConfig, ...] = tuple(systems)
        n = len(self.systems)
        self.names: Tuple[str, ...] = tuple(system.name for system in self.systems)
        self.bandwidth_fraction = _as_point_array(
            bandwidth_fraction, n, "bandwidth_fraction"
        )
        if np.any(self.bandwidth_fraction <= 0):
            raise ValueError("bandwidth_fraction must be positive")
        # Resolve keep fractions exactly like
        # PerformanceSimulator.effective_keep_fraction: an explicit value
        # wins, otherwise the system's calibrated default applies.
        defaults = [
            system.pruning.average_keep_fraction if system.pruning.enabled else 1.0
            for system in self.systems
        ]
        if keep_fraction is None:
            resolved = defaults
        elif np.isscalar(keep_fraction):
            resolved = [float(keep_fraction)] * n
        else:
            values = list(keep_fraction)
            if len(values) != n:
                raise ValueError(
                    f"keep_fraction must be a scalar or a sequence of {n} values"
                )
            resolved = [
                default if value is None else float(value)
                for value, default in zip(values, defaults)
            ]
        self.keep_fraction = np.asarray(resolved, dtype=np.float64)
        if np.any(self.keep_fraction <= 0) or np.any(self.keep_fraction > 1):
            raise ValueError("keep_fraction must be in (0, 1]")

        cc = [PoolCostParams.from_chip_config(s.chip, "cc") for s in self.systems]
        mc = [PoolCostParams.from_chip_config(s.chip, "mc") for s in self.systems]

        def column(params, attribute):
            return np.asarray([getattr(p, attribute) for p in params], dtype=np.int64)

        self.cc_n_clusters = column(cc, "n_clusters")
        self.mc_n_clusters = column(mc, "n_clusters")
        self.has_cc = self.cc_n_clusters > 0
        self.has_mc = self.mc_n_clusters > 0
        self.cc_n_cores = column(cc, "n_cores")
        self.mc_n_cores = column(mc, "n_cores")
        self.cc_dispatch = column(cc, "dispatch_cycles")
        self.mc_dispatch = column(mc, "dispatch_cycles")
        self.sa_rows = column(cc, "sa_rows")
        self.sa_cols = column(cc, "sa_cols")
        self.cim_subarrays = column(mc, "cim_subarrays")
        self.cim_columns = column(mc, "cim_columns")
        self.cim_activation_bits = column(mc, "cim_activation_bits")
        self.cc_lanes = column(cc, "lanes")
        self.mc_lanes = column(mc, "lanes")
        self.cc_buffer = column(cc, "buffer_bytes")
        self.mc_buffer = column(mc, "buffer_bytes")
        self.frequency_hz = np.asarray(
            [s.chip.frequency_hz for s in self.systems], dtype=np.float64
        )
        # Mirror Chip.dram_bytes_per_cycle(): peak bandwidth over chip clock.
        self.dram_bytes_per_cycle = np.asarray(
            [
                s.chip.dram.peak_bandwidth_bytes_per_s / s.chip.frequency_hz
                for s in self.systems
            ],
            dtype=np.float64,
        )
        self.request_overhead_cycles = np.asarray(
            [s.chip.dram.request_overhead_cycles for s in self.systems], dtype=np.int64
        )
        self.request_latency_cycles = np.asarray(
            [
                s.chip.interconnect.total_traversal_latency_cycles
                for s in self.systems
            ],
            dtype=np.int64,
        )
        # Keyed by chip-config identity: configs are frozen but not
        # hashable (the ACU op-cycle table is a dict), and the grid keeps
        # the systems alive, so id() keys cannot be recycled.
        self._area_power_cache: Dict[int, AreaPowerModel] = {}

    @property
    def n_points(self) -> int:
        """Number of design points (rows) in the grid."""
        return len(self.systems)

    @classmethod
    def from_systems(
        cls,
        systems: Sequence[SystemConfig],
        *,
        bandwidth_fraction=1.0,
        keep_fraction=None,
    ) -> "DesignGrid":
        """Build a grid from ``systems`` (see the class for the knobs)."""
        return cls(
            systems, bandwidth_fraction=bandwidth_fraction, keep_fraction=keep_fraction
        )

    def area_power(self, point: int) -> AreaPowerModel:
        """The (cached) analytical area/power model of one design point."""
        chip = self.systems[point].chip
        model = self._area_power_cache.get(id(chip))
        if model is None:
            model = AreaPowerModel(chip)
            self._area_power_cache[id(chip)] = model
        return model


@dataclass(frozen=True)
class OpCostMatrices:
    """Per-(design point, unique op) cost components, shape ``(P, U)``."""

    compute_cycles: np.ndarray
    memory_cycles: np.ndarray
    traffic_bytes: np.ndarray
    pruned_weight_bytes: np.ndarray
    pool_is_mc: np.ndarray

    @property
    def cycles(self) -> np.ndarray:
        """Per-op latency: compute/DMA double buffering takes the max leg."""
        return np.maximum(self.compute_cycles, self.memory_cycles)


@dataclass(frozen=True)
class BatchPhaseArrays:
    """Per-point totals of one phase across the whole grid."""

    name: str
    cycles: np.ndarray
    compute_cycles: np.ndarray
    memory_cycles: np.ndarray
    latency_s: np.ndarray
    dram_bytes: np.ndarray
    flops: int
    op_count: int
    dominant_is_mc: np.ndarray


def ordered_sum(matrix: np.ndarray) -> np.ndarray:
    """Strict left-fold row sum of ``matrix`` — the scalar summation order.

    ``np.add.accumulate`` is defined element-by-element
    (``out[i] = out[i-1] + a[i]``), unlike ``np.sum`` whose pairwise
    reduction would differ from the scalar simulator in the last ulp.
    """
    if matrix.shape[1] == 0:
        return np.zeros(matrix.shape[0], dtype=matrix.dtype)
    return np.add.accumulate(matrix, axis=1)[:, -1]


class BatchWorkloadResult:
    """Grid-shaped workload result with scalar materialisation.

    Array views (``total_latency_s`` etc.) serve sweep-style consumers;
    :meth:`result_for` materialises the exact
    :class:`~repro.core.metrics.WorkloadResult` the scalar simulator would
    have produced for one point (including the power estimate).
    """

    def __init__(
        self,
        table: OpTable,
        grid: DesignGrid,
        phase_arrays: Sequence[BatchPhaseArrays],
        output_tokens: int,
    ) -> None:
        self.table = table
        self.grid = grid
        self.phases: Tuple[BatchPhaseArrays, ...] = tuple(phase_arrays)
        self.output_tokens = output_tokens

    @property
    def n_points(self) -> int:
        """Number of design points the result spans."""
        return self.grid.n_points

    def phase(self, name: str) -> BatchPhaseArrays:
        """The per-point arrays of the phase called ``name``."""
        for arrays in self.phases:
            if arrays.name == name:
                return arrays
        raise KeyError(f"no phase {name!r}; available: "
                       f"{', '.join(p.name for p in self.phases)}")

    @property
    def total_latency_s(self) -> np.ndarray:
        """Per-point end-to-end latency (same fold as ``WorkloadResult``)."""
        total = np.zeros(self.n_points)
        for arrays in self.phases:
            total = total + arrays.latency_s
        return total

    @property
    def tokens_per_second(self) -> np.ndarray:
        """Per-point decode throughput (0 where total latency is 0)."""
        total = self.total_latency_s
        return np.where(total > 0, self.output_tokens / np.where(total > 0, total, 1.0), 0.0)

    def _power_w(self, point: int, phases: Dict[str, PhaseResult]) -> float:
        """Mirror of ``PerformanceSimulator.average_power_w`` for one point."""
        model = self.grid.area_power(point)
        technology = model.technology
        total_cycles = sum(result.cycles for result in phases.values())
        if total_cycles == 0:
            return model.power_report(0.0).total_mw / 1e3
        total_compute = sum(result.compute_cycles for result in phases.values())
        utilization = min(total_compute / total_cycles, 1.0)
        chip_power_w = model.power_report(utilization).total_mw / 1e3
        total_bytes = sum(result.dram_bytes for result in phases.values())
        total_seconds = total_cycles / self.grid.frequency_hz[point]
        if total_seconds == 0:
            return chip_power_w
        dram_energy_j = (
            total_bytes * technology.dram_access_energy_pj_per_byte * 1e-12
        )
        return chip_power_w + dram_energy_j / total_seconds

    def result_for(self, point: int) -> WorkloadResult:
        """Materialise the scalar-identical ``WorkloadResult`` of one point."""
        if not 0 <= point < self.n_points:
            raise IndexError(f"point {point} out of range [0, {self.n_points})")
        phases: Dict[str, PhaseResult] = {}
        for arrays in self.phases:
            phases[arrays.name] = PhaseResult(
                name=arrays.name,
                cycles=float(arrays.cycles[point]),
                compute_cycles=float(arrays.compute_cycles[point]),
                memory_cycles=float(arrays.memory_cycles[point]),
                latency_s=float(arrays.latency_s[point]),
                dram_bytes=int(arrays.dram_bytes[point]),
                flops=arrays.flops,
                op_count=arrays.op_count,
                cluster_kind="mc" if arrays.dominant_is_mc[point] else "cc",
            )
        return WorkloadResult(
            workload_name=self.table.name,
            hardware_name=self.grid.names[point],
            phases=phases,
            output_tokens=self.output_tokens,
            power_w=self._power_w(point, phases),
        )

    def results(self) -> List[WorkloadResult]:
        """Materialise every design point, in grid order."""
        return [self.result_for(point) for point in range(self.n_points)]


class BatchCostEngine:
    """Evaluates op tables against a design grid in broadcasted passes."""

    def __init__(self, grid: DesignGrid) -> None:
        self.grid = grid

    # ------------------------------------------------------------------
    # Pool routing
    # ------------------------------------------------------------------
    def _pool_matrix(self, table: OpTable, pool: Optional[str]) -> np.ndarray:
        """Boolean (P, U) matrix: op runs on the MC pool of the point."""
        grid = self.grid
        if pool is None:
            # Auto policy: GEMV-like ops prefer MC, everything else CC,
            # falling back to the only available pool on homogeneous chips.
            return np.where(
                table.prefers_mc[None, :],
                grid.has_mc[:, None],
                ~grid.has_cc[:, None],
            )
        if pool not in ("cc", "mc"):
            raise ValueError("pool must be 'cc' or 'mc'")
        available = grid.has_mc if pool == "mc" else grid.has_cc
        if not np.all(available):
            name = grid.names[int(np.argmin(available))]
            raise ValueError(f"chip {name!r} has no {pool.upper()} clusters")
        return np.full(
            (grid.n_points, table.n_unique), pool == "mc", dtype=bool
        )

    # ------------------------------------------------------------------
    # Per-op cost matrices
    # ------------------------------------------------------------------
    def op_costs(self, table: OpTable, *, pool: Optional[str] = None) -> OpCostMatrices:
        """Compute/memory/traffic of every unique op at every design point."""
        grid = self.grid
        n_points, n_unique = grid.n_points, table.n_unique
        pool_mc = self._pool_matrix(table, pool)
        keep = grid.keep_fraction[:, None]
        # Safe divisors: a pool with zero clusters is never *selected*, but
        # the unselected side of each np.where still evaluates.
        cc_div = np.maximum(grid.cc_n_clusters, 1)[:, None]
        mc_div = np.maximum(grid.mc_n_clusters, 1)[:, None]

        compute = np.zeros((n_points, n_unique), dtype=np.float64)

        mat = table.is_mat
        if mat.any():
            m = table.m[mat][None, :]
            k = table.k[mat][None, :]
            n = table.n[mat][None, :]
            cc_val = costs.systolic_gemm_cycles(
                m,
                k,
                costs.partitioned_share(n, cc_div),
                rows=grid.sa_rows[:, None],
                cols=grid.sa_cols[:, None],
                n_cores=grid.cc_n_cores[:, None],
                dispatch_cycles=grid.cc_dispatch[:, None],
            )
            mc_val = costs.cim_gemm_cycles(
                m,
                k,
                costs.partitioned_share(n, mc_div),
                subarrays=grid.cim_subarrays[:, None],
                columns=grid.cim_columns[:, None],
                activation_bits=grid.cim_activation_bits[:, None],
                n_cores=grid.mc_n_cores[:, None],
                dispatch_cycles=grid.mc_dispatch[:, None],
            )
            compute[:, mat] = np.where(pool_mc[:, mat], mc_val, cc_val)

        vec = table.is_vec
        if vec.any():
            k = table.k[vec][None, :]
            n = table.n[vec][None, :]
            cc_val = costs.systolic_gemm_cycles(
                1,
                k,
                costs.partitioned_share(n, cc_div),
                rows=grid.sa_rows[:, None],
                cols=grid.sa_cols[:, None],
                n_cores=grid.cc_n_cores[:, None],
                dispatch_cycles=grid.cc_dispatch[:, None],
            )
            mc_val = costs.cim_gemv_cycles(
                k,
                costs.partitioned_share(n, mc_div),
                subarrays=grid.cim_subarrays[:, None],
                columns=grid.cim_columns[:, None],
                activation_bits=grid.cim_activation_bits[:, None],
                n_cores=grid.mc_n_cores[:, None],
                dispatch_cycles=grid.mc_dispatch[:, None],
            )
            compute[:, vec] = np.where(pool_mc[:, vec], mc_val, cc_val)

        elem = table.is_elem
        if elem.any():
            m = table.m[elem][None, :]
            flops_per_element = np.true_divide(table.flops[elem], table.m[elem])[None, :]
            cc_val = costs.elementwise_cycles(
                costs.partitioned_share(m, cc_div),
                np.maximum(flops_per_element, 1.0),
                n_cores=grid.cc_n_cores[:, None],
                lanes=grid.cc_lanes[:, None],
            )
            mc_val = costs.elementwise_cycles(
                costs.partitioned_share(m, mc_div),
                np.maximum(flops_per_element, 1.0),
                n_cores=grid.mc_n_cores[:, None],
                lanes=grid.mc_lanes[:, None],
            )
            compute[:, elem] = np.where(pool_mc[:, elem], mc_val, cc_val)

        # Pruning removes the matching MACs of strict GEMVs.
        prune_compute = (
            table.is_strict_gemv[None, :] & table.prunable[None, :] & (keep < 1.0)
        )
        compute = np.where(prune_compute, compute * keep, compute)

        weight = costs.pruned_weight_bytes(
            table.weight_bytes[None, :], table.prunable[None, :], keep
        )
        traffic = weight + table.activation_bytes[None, :] + table.output_bytes[None, :]

        buffer = np.where(pool_mc, grid.mc_buffer[:, None], grid.cc_buffer[:, None])
        memory = costs.memory_cycles(
            traffic,
            buffer_bytes=buffer,
            dram_bytes_per_cycle=grid.dram_bytes_per_cycle[:, None],
            bandwidth_fraction=grid.bandwidth_fraction[:, None],
            request_overhead_cycles=grid.request_overhead_cycles[:, None],
            request_latency_cycles=grid.request_latency_cycles[:, None],
        )
        return OpCostMatrices(
            compute_cycles=compute,
            memory_cycles=memory,
            traffic_bytes=traffic,
            pruned_weight_bytes=weight,
            pool_is_mc=pool_mc,
        )

    # ------------------------------------------------------------------
    # Phase / workload reduction
    # ------------------------------------------------------------------
    def _reduce_phase(
        self,
        table: OpTable,
        matrices: OpCostMatrices,
        slice_: PhaseSlice,
        pool: Optional[str] = None,
    ) -> BatchPhaseArrays:
        index = table.order[slice_.start : slice_.stop]
        compute = matrices.compute_cycles[:, index]
        memory = matrices.memory_cycles[:, index]
        cycles = np.maximum(compute, memory)
        pool_mc = matrices.pool_is_mc[:, index]
        total_compute = ordered_sum(compute)
        total_memory = ordered_sum(memory)
        total_cycles = ordered_sum(cycles)
        votes_mc = ordered_sum(np.where(pool_mc, cycles, 0.0))
        votes_cc = ordered_sum(np.where(pool_mc, 0.0, cycles))
        total_bytes = matrices.traffic_bytes[:, index].sum(axis=1)
        repeat = slice_.repeat
        total_compute = total_compute * repeat
        total_memory = total_memory * repeat
        total_cycles = total_cycles * repeat
        total_bytes = total_bytes * repeat
        latency_s = total_cycles / self.grid.frequency_hz
        # max(votes, key=votes.get) returns 'cc' on ties; zero-cycle phases
        # fall back to the forced pool (the simulator's `pool or "cc"`).
        dominant_is_mc = np.where(total_cycles != 0, votes_mc > votes_cc, pool == "mc")
        return BatchPhaseArrays(
            name=slice_.name,
            cycles=total_cycles,
            compute_cycles=total_compute,
            memory_cycles=total_memory,
            latency_s=latency_s,
            dram_bytes=total_bytes,
            flops=slice_.flops * repeat,
            op_count=repeat * slice_.op_count,
            dominant_is_mc=dominant_is_mc,
        )

    def evaluate(
        self,
        table: OpTable,
        *,
        pool: Optional[str] = None,
        output_tokens: Optional[int] = None,
    ) -> BatchWorkloadResult:
        """Evaluate the whole grid against a workload's op table."""
        matrices = self.op_costs(table, pool=pool)
        phase_arrays = [
            self._reduce_phase(table, matrices, slice_, pool) for slice_ in table.phases
        ]
        if output_tokens is None:
            output_tokens = table.default_output_tokens
        return BatchWorkloadResult(table, self.grid, phase_arrays, output_tokens)

    def evaluate_workload(
        self,
        workload: Workload,
        *,
        pool: Optional[str] = None,
        output_tokens: Optional[int] = None,
    ) -> BatchWorkloadResult:
        """Compile and evaluate a workload in one call."""
        return self.evaluate(
            OpTable.from_workload(workload), pool=pool, output_tokens=output_tokens
        )


def batch_run_request(
    model: MLLMConfig,
    request: InferenceRequest,
    systems: Sequence[SystemConfig],
    *,
    bandwidth_fraction=1.0,
    keep_fraction=None,
) -> BatchWorkloadResult:
    """Run one inference ``request`` of ``model`` against many chip designs.

    The batched counterpart of
    :meth:`~repro.core.simulator.PerformanceSimulator.run_request`: the
    workload lowers once (it is chip-independent) and every point of
    ``systems`` evaluates as broadcasted array arithmetic, under the given
    ``bandwidth_fraction`` and ``keep_fraction`` (scalar or per-point).
    ``result_for(i)`` is bit-identical to
    ``PerformanceSimulator(systems[i]).run_request(...)``.
    """
    workload = model.build_workload(request)
    grid = DesignGrid.from_systems(
        systems, bandwidth_fraction=bandwidth_fraction, keep_fraction=keep_fraction
    )
    engine = BatchCostEngine(grid)
    return engine.evaluate_workload(workload, output_tokens=request.output_tokens)


@dataclass(frozen=True)
class RequestPrice:
    """Batch-1 price of one request shape on one design point.

    ``latency_s`` folds the per-phase latencies in workload phase order —
    the same float summation as ``WorkloadResult.total_latency_s`` — so it
    is ``==``-equal to the scalar simulator's end-to-end latency.
    """

    latency_s: float
    dram_bytes: int
    flops: int

    @property
    def chip_seconds(self) -> float:
        """Alias making fleet-capacity arithmetic read naturally."""
        return self.latency_s


def batch_price_request_mix(
    model: MLLMConfig,
    requests: Sequence[InferenceRequest],
    system: SystemConfig,
    *,
    bandwidth_fraction=1.0,
) -> Dict[InferenceRequest, RequestPrice]:
    """Price every unique shape of ``requests`` on ``system`` in one pass.

    ``bandwidth_fraction`` is the DRAM share the pricing runs under.
    The serving-scenario layer compiles traces mixing heterogeneous request
    shapes (text chat, multi-image, video frames, long context).  Pricing
    them one scalar simulation at a time would redo the same cost algebra
    per shape; instead this stacks every *distinct phase* of the mix into a
    single :class:`OpTable` and evaluates the lot against one single-point
    grid.  Phases are stacked once per ``(name, input)`` of
    :meth:`~repro.models.mllm.MLLMConfig.phase_keys` (image count for the
    vision encoder and projector, prompt tokens for the prefill, mean
    decode context for the decode) with repeat 1, so shapes that share an
    input share its phase whatever their output length.  Each shape then
    applies its own repeat with the operations of
    :meth:`BatchCostEngine._reduce_phase`, in its order, and folds its
    phases' latencies in workload order.  ``result[shape].latency_s``
    is bit-identical to
    ``PerformanceSimulator(system).run_request(model, shape)``'s
    ``total_latency_s`` (regression-tested in ``tests/core/test_batch.py``).
    """
    shapes = list(dict.fromkeys(requests))
    if not shapes:
        raise ValueError("requests must not be empty")
    index_of: Dict[Tuple[str, int], int] = {}
    phases: List[Tuple[str, Sequence[Op], int]] = []
    shape_phases: List[List[Tuple[int, int]]] = []
    for shape in shapes:
        indices = []
        for name, value, repeat in model.phase_keys(shape):
            index = index_of.get((name, value))
            if index is None:
                index = index_of[name, value] = len(phases)
                phases.append((name, model.phase_ops(name, value), 1))
            indices.append((index, repeat))
        shape_phases.append(indices)
    table = OpTable("request_mix", phases)
    grid = DesignGrid.from_systems([system], bandwidth_fraction=bandwidth_fraction)
    result = BatchCostEngine(grid).evaluate(table)
    frequency_hz = float(grid.frequency_hz[0])
    cycles = [float(arrays.cycles[0]) for arrays in result.phases]
    dram_bytes = [int(arrays.dram_bytes[0]) for arrays in result.phases]
    flops = [arrays.flops for arrays in result.phases]
    return {
        shape: RequestPrice(
            latency_s=sum(
                cycles[index] * repeat / frequency_hz for index, repeat in indices
            ),
            dram_bytes=sum(dram_bytes[index] * repeat for index, repeat in indices),
            flops=sum(flops[index] * repeat for index, repeat in indices),
        )
        for shape, indices in zip(shapes, shape_phases)
    }


@dataclass(frozen=True)
class ServiceTimeBounds:
    """Analytic lower bounds on serving service times, per (point, shape).

    Every array has shape ``(n_points, n_shapes)``; row order follows
    ``systems`` and column order follows ``shapes`` (use :meth:`shape_index`
    to map a request shape back to its column).  The bounds mirror the
    serving engine's cost model exactly:

    * ``prefill_s`` — the CC-stage (encode + projector + prefill) latency,
      the *exact* value :meth:`repro.serving.queue.ContinuousBatchingSimulator.
      cc_latency_s` computes, and a hard floor on any request's queue-free
      service start-to-first-phase time;
    * ``first_step_s`` — one single-stream decode step at the shape's
      initial context bucket, the exact
      :meth:`~repro.serving.queue.ChipCosts.step_latency_s` of a batch of
      one;
    * ``min_ttft_s`` — ``prefill_s + first_step_s``: no fleet of this chip,
      under any dispatch policy, admission control or batch composition,
      can serve the shape's first token faster (queue wait is >= 0, decode
      steps only slow down as streams join the batch);
    * ``min_latency_s`` — ``prefill_s`` plus one single-stream step per
      output token at the context bucket that token decodes under.  The
      exact simulator steps every stream exactly ``output_tokens`` times at
      those same buckets, each step at least as slow as its single-stream
      bound, so this floors the end-to-end latency.

    The bounds are what makes SLO-infeasibility *provable* without
    simulation: if the percentile of a bound across a trace already misses
    an objective, every exact simulation of that chip misses it too (see
    :mod:`repro.planner.prune`).
    """

    systems: Tuple[SystemConfig, ...]
    shapes: Tuple[InferenceRequest, ...]
    prefill_s: np.ndarray
    first_step_s: np.ndarray
    min_ttft_s: np.ndarray
    min_latency_s: np.ndarray

    @property
    def n_points(self) -> int:
        """Number of design points (rows of every bound array)."""
        return len(self.systems)

    def shape_index(self, shape: InferenceRequest) -> int:
        """The column of ``shape`` in the bound arrays."""
        for index, candidate in enumerate(self.shapes):
            if candidate == shape:
                return index
        raise KeyError(f"shape {shape!r} was not priced by these bounds")


def context_bucket_for(context: int, context_bucket: int) -> int:
    """Quantize a ``context`` length up to a multiple of ``context_bucket``.

    The single definition of decode-context quantization: the serving-cost
    memo (:class:`repro.serving.queue.ChipCosts`) and the analytic
    service-time bounds both resolve buckets through this helper,
    so the bounds can never drift from the buckets the exact simulator
    prices — which the planner's pruning soundness depends on.
    """
    return (
        (max(context, 1) + context_bucket - 1) // context_bucket
    ) * context_bucket


#: Designs :meth:`ServiceTimeBoundsPricer.seeds` prices per pass: its broadcast
#: matrices take ~0.1 MB per design on a 100-shape trace, its memos far less.
SEED_CHUNK_DESIGNS = 16


def reachable_buckets(prompt: int, output_tokens: int, context_bucket: int) -> range:
    """The context buckets a request's decode steps are priced in.

    A request with ``prompt`` prompt tokens decodes its ``output_tokens``
    tokens at contexts ``prompt … prompt + output_tokens - 1``, so it
    reaches every ``context_bucket``-wide bucket from its prompt's to its
    last context's: the one definition, for the pricer and the fleet.
    """
    return range(
        context_bucket_for(prompt, context_bucket),
        context_bucket_for(prompt + output_tokens - 1, context_bucket) + 1,
        context_bucket,
    )


class ServiceTimeBoundsPricer:
    """Grid pricer of a fixed shape set's serving costs across chip designs.

    The one code path that prices a design's serving costs in bulk.  Its
    *shape side* — one merged CC-stage phase per ``(images,
    prompt_text_tokens)``, one decode-step phase per bucket any shape's
    decode reaches (:func:`reachable_buckets`) — is design-independent,
    so it is compiled once and every evaluation runs only per-design
    broadcast work over one shared per-bucket reduction: :meth:`bounds`
    floors every shape's service times (the planner's bound pass), and
    :meth:`seeds` returns the costs a
    :class:`~repro.serving.queue.ChipCosts` memo installs, through its
    ``cover`` (fleet precompute, degraded fault eras) or the planner's
    per-design seeding.

    ``batch_service_time_bounds(model, shapes, systems)`` is equivalent to
    ``ServiceTimeBoundsPricer(model, shapes).bounds(systems)`` and the
    floats are identical — the pricer is a refactoring of that function,
    not a reimplementation.
    """

    def __init__(
        self,
        model: MLLMConfig,
        shapes: Sequence[InferenceRequest],
        *,
        cc_bandwidth_fraction: float = 0.5,
        context_bucket: int = 32,
    ) -> None:
        if not 0.0 < cc_bandwidth_fraction < 1.0:
            raise ValueError("cc_bandwidth_fraction must be in (0, 1)")
        if context_bucket < 1:
            raise ValueError("context_bucket must be >= 1")
        self.shapes: Tuple[InferenceRequest, ...] = tuple(dict.fromkeys(shapes))
        if not self.shapes:
            raise ValueError("shapes must not be empty")
        self.model = model
        self.cc_bandwidth_fraction = cc_bandwidth_fraction
        self.context_bucket = context_bucket
        self._shape_column = {
            shape: column for column, shape in enumerate(self.shapes)
        }
        # The output length does not enter the CC stage, so shapes that
        # differ only in it share one CC phase.
        cc_column: Dict[Tuple[int, int], int] = {}
        buckets = set()
        for shape in self.shapes:
            cc = (shape.images, shape.prompt_text_tokens)
            cc_column.setdefault(cc, len(cc_column))
            buckets.update(
                reachable_buckets(
                    model.prompt_tokens(shape), shape.output_tokens, context_bucket
                )
            )
        #: The keys every :meth:`seeds` pair fills, in column order.
        self.cc_shapes: Tuple[Tuple[int, int], ...] = tuple(cc_column)
        self.buckets: Tuple[int, ...] = tuple(sorted(buckets))
        self._cc_columns = [
            cc_column[(shape.images, shape.prompt_text_tokens)] for shape in self.shapes
        ]
        self._bucket_column = {bucket: i for i, bucket in enumerate(self.buckets)}
        self._tables: Optional[Tuple[OpTable, OpTable]] = None

    def _op_tables(self) -> Tuple[OpTable, OpTable]:
        """The CC-stage and decode-step op tables, lowered on first use."""
        if self._tables is None:
            cc = [self.model.cc_stage_phase(*shape) for shape in self.cc_shapes]
            decode = {b: self.model.decode_step(b) for b in self.buckets}
            self._tables = (
                OpTable(
                    "cc_stage_bounds",
                    [(f"cc/{i}", p.ops, p.repeat) for i, p in enumerate(cc)],
                ),
                OpTable(
                    "decode_bounds",
                    [(f"bucket/{b}", p.ops, 1) for b, p in decode.items()],
                ),
            )
        return self._tables

    @property
    def n_shapes(self) -> int:
        """Number of unique request shapes the pricer was compiled for."""
        return len(self.shapes)

    def trace_columns(self, trace: Sequence) -> np.ndarray:
        """Bound-array columns of a serving trace, one per request.

        Accepts :class:`~repro.serving.queue.ServingRequest` sequences (the
        planner's compiled traces); the returned int64 array indexes the
        shape axis of every array :meth:`bounds` returns.
        """
        return np.asarray(
            [self._shape_column[request.request] for request in trace],
            dtype=np.int64,
        )

    def _priced(self, systems: Tuple[SystemConfig, ...]):
        """Price ``systems`` one pool group at a time.

        Yields ``(points, decode grid, decode pool, CC latency, weight
        bytes, traffic bytes, compute cycles)``, columns per :attr:`cc_shapes`
        or :attr:`buckets`.  Points group by pool availability: the serving
        engine's CC stage falls back to MC on MC-only chips (and decode to
        CC on CC-only chips), and the batch engine prices one pool per call.
        """
        groups: Dict[Tuple[bool, bool], List[int]] = {}
        for point, system in enumerate(systems):
            key = (system.chip.n_cc_clusters > 0, system.chip.n_mc_clusters > 0)
            groups.setdefault(key, []).append(point)
        for (has_cc, has_mc), points in groups.items():
            cc_table, decode_table = self._op_tables()
            subset = [systems[point] for point in points]
            grid = DesignGrid.from_systems(
                subset, bandwidth_fraction=self.cc_bandwidth_fraction
            )
            pool = "cc" if has_cc else "mc"
            cycles = BatchCostEngine(grid).op_costs(cc_table, pool=pool).cycles
            # BatchCostEngine._reduce_phase's latency_s fold, alone.
            cc_latency = np.stack(
                [
                    ordered_sum(cycles[:, cc_table.order[s.start : s.stop]])
                    * s.repeat
                    / grid.frequency_hz
                    for s in cc_table.phases
                ],
                axis=1,
            )
            # Decode-bucket sums mirror ChipCosts._cost: per-op
            # bytes and compute at bandwidth_fraction=1 on the decode pool.
            pool = "mc" if has_mc else "cc"
            grid = DesignGrid.from_systems(subset, bandwidth_fraction=1.0)
            per_op = BatchCostEngine(grid).op_costs(decode_table, pool=pool)
            index = [decode_table.order[s.start : s.stop] for s in decode_table.phases]
            yield (
                points,
                grid,
                pool,
                cc_latency,
                np.stack([per_op.pruned_weight_bytes[:, i].sum(1) for i in index], 1),
                np.stack([per_op.traffic_bytes[:, i].sum(1) for i in index], 1),
                np.stack([ordered_sum(per_op.compute_cycles[:, i]) for i in index], 1),
            )

    def seeds(self, systems: Sequence[SystemConfig]) -> List[Tuple[Dict, Dict]]:
        """Every system's ``(cc_latencies, bucket_costs)``, in input order.

        Each pair is what :meth:`~repro.serving.queue.ChipCosts.seed`
        accepts, keyed by :attr:`cc_shapes` and :attr:`buckets`.  Each
        value is the float the scalar serving cost model computes, so
        seeded chips replay bit-identically to chips that price lazily.
        """
        seeds: List = [None] * len(systems)
        for start in range(0, len(systems), SEED_CHUNK_DESIGNS):
            chunk = tuple(systems[start : start + SEED_CHUNK_DESIGNS])
            for points, _, _, cc_latency, *sums in self._priced(chunk):
                for row, point in enumerate(points):
                    rows = zip(*(column[row].tolist() for column in sums))
                    seeds[start + point] = (
                        dict(zip(self.cc_shapes, cc_latency[row].tolist())),
                        {b: (w, t - w, c) for b, (w, t, c) in zip(self.buckets, rows)},
                    )
        return seeds

    def bounds(self, systems: Sequence[SystemConfig]) -> ServiceTimeBounds:
        """Evaluate the compiled shapes against a batch of ``systems``.

        Only the per-design broadcast runs here; the shape-side tables are
        compiled once per pricer, so calling this repeatedly with small
        system batches costs the same total broadcast work as one big call.
        """
        if not systems:
            raise ValueError("systems must not be empty")
        system_list = tuple(systems)
        n_points, n_shapes = len(system_list), len(self.shapes)

        prefill_s = np.zeros((n_points, n_shapes), dtype=np.float64)
        step_s = np.zeros((n_points, len(self.buckets)), dtype=np.float64)
        for points, grid, pool, cc_latency, _, traffic, compute in self._priced(
            system_list
        ):
            prefill_s[points] = cc_latency[:, self._cc_columns]
            # A batch-of-one decode step: one memory_cycles over the
            # stream's whole traffic at the MC bandwidth share.
            buffer_bytes = grid.mc_buffer if pool == "mc" else grid.cc_buffer
            memory = costs.memory_cycles(
                traffic,
                buffer_bytes=buffer_bytes[:, None],
                dram_bytes_per_cycle=grid.dram_bytes_per_cycle[:, None],
                bandwidth_fraction=1.0 - self.cc_bandwidth_fraction,
                request_overhead_cycles=grid.request_overhead_cycles[:, None],
                request_latency_cycles=grid.request_latency_cycles[:, None],
            )
            step_s[points] = np.maximum(memory, compute) / grid.frequency_hz[:, None]

        width, column_of = self.context_bucket, self._bucket_column
        first_columns = []
        decode_floor_s = np.zeros((n_points, n_shapes), dtype=np.float64)
        for column, shape in enumerate(self.shapes):
            # One single-stream step per output token, in the bucket it
            # decodes under (bucket b holds contexts b - width + 1 … b).
            first = self.model.prompt_tokens(shape)
            last = first + shape.output_tokens - 1
            reached = reachable_buckets(first, shape.output_tokens, width)
            first_columns.append(column_of[reached[0]])
            for bucket in reached:
                count = min(bucket, last) - max(bucket - width + 1, first) + 1
                decode_floor_s[:, column] += count * step_s[:, column_of[bucket]]
        first_step_s = step_s[:, first_columns]
        return ServiceTimeBounds(
            systems=system_list,
            shapes=self.shapes,
            prefill_s=prefill_s,
            first_step_s=first_step_s,
            min_ttft_s=prefill_s + first_step_s,
            min_latency_s=prefill_s + decode_floor_s,
        )


def batch_service_time_bounds(
    model: MLLMConfig,
    shapes: Sequence[InferenceRequest],
    systems: Sequence[SystemConfig],
    *,
    cc_bandwidth_fraction: float = 0.5,
    context_bucket: int = 32,
) -> ServiceTimeBounds:
    """Lower-bound serving service times of shapes across a design grid.

    One broadcasted pass prices every unique request shape's CC stage and
    every decode-context bucket against *all* ``systems`` at once — the
    array-native counterpart of asking each chip's serving cost model for
    its prefill latency and single-stream decode steps.  ``shapes`` are
    deduplicated; ``cc_bandwidth_fraction`` and ``context_bucket`` must
    match the serving configuration being bounded (decode gets the
    remaining ``1 - cc_bandwidth_fraction`` of the bandwidth, exactly like
    :class:`~repro.serving.queue.ContinuousBatchingSimulator`).

    The returned per-shape values are *bounds on a fleet of any size*: they
    assume zero queueing and batch-1 decode, both of which the exact
    event-driven simulator can only do worse than.  Chips that mix CC and
    MC pools, CC-only chips and MC-only chips are all supported (points are
    internally grouped by pool availability, matching the serving engine's
    pool fallback).

    This is the one-shot convenience wrapper over
    :class:`ServiceTimeBoundsPricer`; callers bounding many design batches
    against one trace should hold a pricer instead (the shape-side
    compilation dominates small batches).
    """
    return ServiceTimeBoundsPricer(
        model,
        shapes,
        cc_bandwidth_fraction=cc_bandwidth_fraction,
        context_bucket=context_bucket,
    ).bounds(systems)
