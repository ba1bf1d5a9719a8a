"""Phase-level performance simulator of the EdgeMM chip.

The simulator plays the role of the paper's in-house simulator: it executes
an operator-level workload against the architecture model and reports per-
phase latency, traffic and energy.  For every operator it computes

* **compute cycles** from the coprocessor cycle models (systolic array
  Eq. 2, CIM macro Eq. 3, or the Snitch SIMD datapath for baselines), with
  the work tensor-partitioned across the clusters of the assigned pool;
* **memory cycles** from the DRAM model: payload bytes divided by the
  bandwidth share granted to the pool, plus per-transfer overhead governed
  by the cluster's on-chip data memory (the effective-bandwidth behaviour
  of Fig. 6(b));

and takes the maximum of the two legs (compute/DMA double buffering), then
sums over the operators of the phase.  GEMM-like operators are routed to
CC-clusters and GEMV-like operators to MC-clusters when both are available
("auto" policy); homogeneous variants simply lack one of the pools.

Per-op cycle results are memoized by the cost-relevant signature
``(kind, m, k, n, traffic bytes, flops, prunable, pool, bandwidth,
keep_fraction)`` — decoder layers share shapes, so a 22-layer decode
phase resolves to a handful of cache entries.
:meth:`PerformanceSimulator.run_request` builds the workload (whose
lowering the model memoizes) and executes it through the op cache on
every call.  The serving layer never calls it: it prices through the
per-design :class:`~repro.serving.queue.ChipCosts` memo, which it keeps
in the simulator's ``derived`` dict.  :meth:`clear_cache` resets the op
cache and clears every ``derived`` memo in place, so every holder of one
prices against the new system (required after mutating ``self.system``
or chip state in place).

All cycle arithmetic routes through the shared array-aware kernels of
:mod:`repro.costs` (via :class:`PoolCostParams`), the same kernels the
batched engine in :mod:`repro.core.batch` broadcasts over whole design
grids — which is what makes batched sweeps bit-identical to this scalar
path.  The DRAM term is the one exception: :meth:`memory_cycles`, hot on
the serving path, performs :func:`repro.costs.memory_cycles`'s IEEE
operations in plain Python floats, ``==`` the kernel's result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

from .. import costs
from ..arch.area_power import AreaPowerModel, TechnologyConfig
from ..arch.chip import Chip, ChipConfig
from ..models.mllm import InferenceRequest, MLLMConfig
from ..models.ops import Op, OpKind, Phase, Workload
from .config import SystemConfig, default_system
from .metrics import PhaseResult, WorkloadResult


@dataclass(frozen=True)
class PoolCostParams:
    """Scalar cost-model parameters of one execution pool ('cc' or 'mc').

    The flattened view of the cluster/core/coprocessor object model that
    the shared :mod:`repro.costs` kernels consume.  The scalar simulator
    extracts one per pool; :class:`~repro.core.batch.DesignGrid` stacks one
    per design point into columns.
    """

    pool: str
    n_clusters: int
    n_cores: int
    dispatch_cycles: int
    #: Systolic geometry (CC pools) — zero for MC pools.
    sa_rows: int
    sa_cols: int
    #: CIM geometry (MC pools) — zero for CC pools.
    cim_subarrays: int
    cim_columns: int
    cim_activation_bits: int
    #: Vector-unit width used for elementwise work.
    lanes: int
    #: Double-buffered DMA staging space (the Fig. 6(b) lever).
    buffer_bytes: int

    @classmethod
    def from_chip_config(cls, config: ChipConfig, pool: str) -> "PoolCostParams":
        if pool == "cc":
            cluster = config.group.cc_cluster
            systolic = cluster.core.systolic
            return cls(
                pool="cc",
                n_clusters=config.n_cc_clusters,
                n_cores=cluster.n_cores,
                dispatch_cycles=cluster.core.dispatch_overhead_cycles,
                sa_rows=systolic.rows,
                sa_cols=systolic.cols,
                cim_subarrays=0,
                cim_columns=0,
                cim_activation_bits=0,
                lanes=systolic.cols,
                buffer_bytes=cluster.data_memory_bytes,
            )
        if pool == "mc":
            cluster = config.group.mc_cluster
            cim = cluster.core.cim
            return cls(
                pool="mc",
                n_clusters=config.n_mc_clusters,
                n_cores=cluster.n_cores,
                dispatch_cycles=cluster.core.dispatch_overhead_cycles,
                sa_rows=0,
                sa_cols=0,
                cim_subarrays=cim.subarrays_per_column,
                cim_columns=cim.columns,
                cim_activation_bits=cim.activation_bits,
                lanes=cim.columns,
                buffer_bytes=cluster.data_memory_bytes,
            )
        raise ValueError("pool must be 'cc' or 'mc'")

    def compute_cycles(self, op: Op, n_clusters: int) -> float:
        """Coprocessor cycles for one operator partitioned over ``n_clusters``.

        Dispatches the operator's kind to the shared :mod:`repro.costs`
        kernel of this pool's coprocessor — the same arithmetic the batch
        engine broadcasts over whole design grids.
        """
        if op.kind in (OpKind.GEMM, OpKind.CONV, OpKind.ATTENTION):
            n_share = costs.partitioned_share(op.n, n_clusters)
            if self.pool == "cc":
                return float(
                    costs.systolic_gemm_cycles(
                        op.m,
                        op.k,
                        n_share,
                        rows=self.sa_rows,
                        cols=self.sa_cols,
                        n_cores=self.n_cores,
                        dispatch_cycles=self.dispatch_cycles,
                    )
                )
            return float(
                costs.cim_gemm_cycles(
                    op.m,
                    op.k,
                    n_share,
                    subarrays=self.cim_subarrays,
                    columns=self.cim_columns,
                    activation_bits=self.cim_activation_bits,
                    n_cores=self.n_cores,
                    dispatch_cycles=self.dispatch_cycles,
                )
            )
        if op.kind in (OpKind.GEMV, OpKind.EMBEDDING):
            n_share = costs.partitioned_share(op.n, n_clusters)
            if self.pool == "cc":
                return float(
                    costs.systolic_gemm_cycles(
                        1,
                        op.k,
                        n_share,
                        rows=self.sa_rows,
                        cols=self.sa_cols,
                        n_cores=self.n_cores,
                        dispatch_cycles=self.dispatch_cycles,
                    )
                )
            return float(
                costs.cim_gemv_cycles(
                    op.k,
                    n_share,
                    subarrays=self.cim_subarrays,
                    columns=self.cim_columns,
                    activation_bits=self.cim_activation_bits,
                    n_cores=self.n_cores,
                    dispatch_cycles=self.dispatch_cycles,
                )
            )
        if op.kind in (OpKind.ELEMENTWISE, OpKind.SOFTMAX, OpKind.NORM, OpKind.ACTIVATION):
            elements = costs.partitioned_share(op.m, n_clusters)
            flops_per_element = op.flops / op.m if op.m else 1.0
            return float(
                costs.elementwise_cycles(
                    elements,
                    max(flops_per_element, 1.0),
                    n_cores=self.n_cores,
                    lanes=self.lanes,
                )
            )
        # OpKind.OTHER: pure data movement (KV-cache reads/writes).
        return 0.0


@dataclass(frozen=True)
class OpExecution:
    """Execution record of one operator."""

    op_name: str
    pool: str
    compute_cycles: float
    memory_cycles: float
    dram_bytes: int

    @property
    def cycles(self) -> float:
        return max(self.compute_cycles, self.memory_cycles)


@dataclass(frozen=True)
class CacheInfo:
    """Hit/miss counters of the simulator's op cache."""

    op_hits: int
    op_misses: int


class PerformanceSimulator:
    """Executes operator workloads on an EdgeMM (or variant) chip model."""

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        *,
        technology: Optional[TechnologyConfig] = None,
        enable_cache: bool = True,
    ) -> None:
        self.system = system or default_system()
        self._technology_config = technology
        self._refresh_cost_params()
        self.enable_cache = enable_cache
        self._op_cache: Dict[tuple, Tuple[float, float, int]] = {}
        #: Memos other layers derive from this simulator's costs, keyed by
        #: their owner's choice of key; every holder of the simulator shares
        #: them, and :meth:`clear_cache` calls each one's ``clear()``.
        self.derived: Dict[Hashable, Any] = {}
        self._op_hits = 0
        self._op_misses = 0

    # ------------------------------------------------------------------
    # Memoization
    # ------------------------------------------------------------------
    def _refresh_cost_params(self) -> None:
        """Rebuild the chip model and flattened cost parameters from the system.

        Everything cost-relevant derives from ``self.system`` here — the
        chip object, the area/power model and the kernel parameters — so a
        caller that replaces ``self.system`` and calls :meth:`clear_cache`
        gets a coherent simulator, never a mix of old and new configs.
        """
        self.chip = Chip(self.system.chip)
        self.area_power = AreaPowerModel(self.system.chip, self._technology_config)
        self._technology = self.area_power.technology
        self._pool_params = {
            pool: PoolCostParams.from_chip_config(self.system.chip, pool)
            for pool in ("cc", "mc")
        }
        self._dram_bytes_per_cycle = self.chip.dram_bytes_per_cycle()
        self._request_overhead_cycles = self.chip.dram.config.request_overhead_cycles
        self._request_latency_cycles = self.chip.interconnect.request_latency_cycles()

    def clear_cache(self) -> None:
        """Drop all memoized results (call after mutating the system).

        The ``derived`` memos are cleared in place, after the cost
        parameters are rebuilt, because chips built earlier hold them.
        """
        self._op_cache.clear()
        self._op_hits = self._op_misses = 0
        self._refresh_cost_params()
        for memo in self.derived.values():
            memo.clear()

    def cache_info(self) -> CacheInfo:
        """Hit/miss counters of the op cache."""
        return CacheInfo(op_hits=self._op_hits, op_misses=self._op_misses)

    # ------------------------------------------------------------------
    # Pool selection
    # ------------------------------------------------------------------
    @property
    def has_cc(self) -> bool:
        return self.chip.n_cc_clusters > 0

    @property
    def has_mc(self) -> bool:
        return self.chip.n_mc_clusters > 0

    def pool_for(self, op: Op) -> str:
        """Choose the execution pool ('cc' or 'mc') for an operator."""
        if not self.has_cc and not self.has_mc:
            raise RuntimeError("chip has no clusters")
        prefers_mc = op.kind in (OpKind.GEMV, OpKind.EMBEDDING)
        if prefers_mc:
            return "mc" if self.has_mc else "cc"
        return "cc" if self.has_cc else "mc"

    def _pool_cluster_count(self, pool: str) -> int:
        return self.chip.n_cc_clusters if pool == "cc" else self.chip.n_mc_clusters

    # ------------------------------------------------------------------
    # Operator execution
    # ------------------------------------------------------------------
    def _compute_cycles(self, op: Op, pool: str, n_clusters: int) -> float:
        """Coprocessor cycles with the work partitioned across clusters."""
        return self._pool_params[pool].compute_cycles(op, n_clusters)

    def effective_keep_fraction(self, keep_fraction: Optional[float] = None) -> float:
        """Resolve an explicit keep fraction against the pruning config.

        ``None`` means "use the system default": the calibrated average keep
        fraction when pruning is enabled, otherwise 1.0.  Every layer that
        prices pruned weight traffic (operator execution, the pipeline
        model, the serving cost model) resolves through this one helper.
        """
        if keep_fraction is not None:
            return keep_fraction
        if self.system.pruning.enabled:
            return self.system.pruning.average_keep_fraction
        return 1.0

    def _op_traffic_bytes(self, op: Op, keep_fraction: float) -> int:
        return (
            op.pruned_weight_bytes(keep_fraction)
            + op.activation_bytes
            + op.output_bytes
        )

    def memory_cycles(
        self, traffic_bytes: int, pool: str, bandwidth_fraction: float
    ) -> float:
        """DRAM cycles to move ``traffic_bytes`` with a pool's bandwidth share.

        Public cost primitive: the pipeline model, the mapping explorer and
        the serving layer price custom traffic patterns (e.g. batch-shared
        weight reads) with it.  :func:`repro.costs.memory_cycles` in plain
        floats: the same IEEE operations in the same order (the ceiling of
        the true quotient, the two overhead products, the stream term), so
        the result is ``==`` the kernel's (property-tested) without its
        NumPy scalar calls.
        """
        if traffic_bytes <= 0:
            return 0.0
        if bandwidth_fraction <= 0:
            raise ValueError("bandwidth_fraction must be positive")
        transfers = float(
            math.ceil(traffic_bytes / self._pool_params[pool].buffer_bytes)
        )
        stream_cycles = traffic_bytes / (
            self._dram_bytes_per_cycle * bandwidth_fraction
        )
        return float(
            transfers * self._request_overhead_cycles
            + transfers * self._request_latency_cycles
            + stream_cycles
        )

    def execute_op(
        self,
        op: Op,
        *,
        pool: Optional[str] = None,
        bandwidth_fraction: float = 1.0,
        keep_fraction: Optional[float] = None,
    ) -> OpExecution:
        """Execute one operator and return its cycle accounting."""
        pool = pool or self.pool_for(op)
        if pool not in ("cc", "mc"):
            raise ValueError("pool must be 'cc' or 'mc'")
        n_clusters = self._pool_cluster_count(pool)
        if n_clusters == 0:
            raise ValueError(f"chip {self.system.name!r} has no {pool.upper()} clusters")
        keep_fraction = self.effective_keep_fraction(keep_fraction)
        key = None
        if self.enable_cache:
            # Only the cost-relevant signature: ops with the same shape,
            # traffic and routing (e.g. every decoder layer's FFN GEMV)
            # share one entry regardless of name or layer index.
            key = (
                op.kind,
                op.m,
                op.k,
                op.n,
                op.weight_bytes,
                op.activation_bytes,
                op.output_bytes,
                op.flops,
                op.prunable,
                pool,
                bandwidth_fraction,
                keep_fraction,
            )
            cached = self._op_cache.get(key)
            if cached is not None:
                self._op_hits += 1
                compute, memory, traffic = cached
                return OpExecution(
                    op_name=op.name,
                    pool=pool,
                    compute_cycles=compute,
                    memory_cycles=memory,
                    dram_bytes=traffic,
                )
            self._op_misses += 1
        traffic = self._op_traffic_bytes(op, keep_fraction)
        compute = self._compute_cycles(op, pool, n_clusters)
        if op.prunable and keep_fraction < 1.0 and op.kind is OpKind.GEMV:
            # Pruning also removes the matching MACs (smaller reduction dim).
            compute *= keep_fraction
        memory = self.memory_cycles(traffic, pool, bandwidth_fraction)
        if key is not None:
            self._op_cache[key] = (compute, memory, traffic)
        return OpExecution(
            op_name=op.name,
            pool=pool,
            compute_cycles=compute,
            memory_cycles=memory,
            dram_bytes=traffic,
        )

    # ------------------------------------------------------------------
    # Phase / workload execution
    # ------------------------------------------------------------------
    def execute_phase(
        self,
        phase: Phase,
        *,
        pool: Optional[str] = None,
        bandwidth_fraction: float = 1.0,
        keep_fraction: Optional[float] = None,
    ) -> PhaseResult:
        """Execute one phase; operators run back-to-back with DMA overlap."""
        total_compute = 0.0
        total_memory = 0.0
        total_cycles = 0.0
        total_bytes = 0
        total_flops = 0
        pool_votes: Dict[str, float] = {"cc": 0.0, "mc": 0.0}
        for op in phase.ops:
            execution = self.execute_op(
                op,
                pool=pool,
                bandwidth_fraction=bandwidth_fraction,
                keep_fraction=keep_fraction,
            )
            total_compute += execution.compute_cycles
            total_memory += execution.memory_cycles
            total_cycles += execution.cycles
            total_bytes += execution.dram_bytes
            total_flops += op.flops
            pool_votes[execution.pool] += execution.cycles
        repeat = phase.repeat
        total_compute *= repeat
        total_memory *= repeat
        total_cycles *= repeat
        total_bytes *= repeat
        total_flops *= repeat
        dominant_pool = max(pool_votes, key=pool_votes.get) if total_cycles else (pool or "cc")
        return PhaseResult(
            name=phase.name,
            cycles=total_cycles,
            compute_cycles=total_compute,
            memory_cycles=total_memory,
            latency_s=self.chip.cycles_to_seconds(total_cycles),
            dram_bytes=int(total_bytes),
            flops=int(total_flops),
            op_count=repeat * len(phase.ops),
            cluster_kind=dominant_pool,
        )

    def execute_workload(
        self,
        workload: Workload,
        *,
        output_tokens: Optional[int] = None,
        bandwidth_fraction: float = 1.0,
    ) -> WorkloadResult:
        """Execute all phases of a workload sequentially."""
        phase_results: Dict[str, PhaseResult] = {}
        for phase in workload.phases:
            phase_results[phase.name] = self.execute_phase(
                phase, bandwidth_fraction=bandwidth_fraction
            )
        if output_tokens is None:
            decode = next(
                (p for p in workload.phases if p.name == "llm_decode"), None
            )
            output_tokens = decode.repeat if decode is not None else 1
        return WorkloadResult(
            workload_name=workload.name,
            hardware_name=self.system.name,
            phases=phase_results,
            output_tokens=output_tokens,
            power_w=self.average_power_w(phase_results),
        )

    def run_request(self, model: MLLMConfig, request: InferenceRequest) -> WorkloadResult:
        """Build the workload for an inference request and execute it."""
        workload = model.build_workload(request)
        return self.execute_workload(workload, output_tokens=request.output_tokens)

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------
    def average_power_w(self, phase_results: Dict[str, PhaseResult]) -> float:
        """Average chip + DRAM power over the executed phases."""
        total_cycles = sum(result.cycles for result in phase_results.values())
        if total_cycles == 0:
            return self.area_power.power_report(0.0).total_mw / 1e3
        total_compute = sum(result.compute_cycles for result in phase_results.values())
        utilization = min(total_compute / total_cycles, 1.0)
        chip_power_w = self.area_power.power_report(utilization).total_mw / 1e3
        total_bytes = sum(result.dram_bytes for result in phase_results.values())
        total_seconds = self.chip.cycles_to_seconds(total_cycles)
        if total_seconds == 0:
            return chip_power_w
        dram_energy_j = (
            total_bytes * self._technology.dram_access_energy_pj_per_byte * 1e-12
        )
        return chip_power_w + dram_energy_j / total_seconds
