"""Operator-level intermediate representation of MLLM workloads.

EdgeMM's in-house simulator works at the granularity of tensor operators
(GEMM, GEMV, attention, elementwise).  This module defines a small operator
IR that carries exactly the quantities the performance model needs:

* arithmetic work (multiply-accumulate count / FLOPs),
* memory traffic (weight bytes, activation bytes, output bytes),
* the kind of operator, which determines which coprocessor (systolic array
  or CIM macro) is the natural execution target.

Every higher-level model (vision encoders, projectors, LLMs) lowers to a
flat list of :class:`Op` objects grouped into :class:`Phase` objects.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .. import costs


class OpKind(enum.Enum):
    """Classification of an operator by its compute/memory behaviour."""

    GEMM = "gemm"
    GEMV = "gemv"
    ATTENTION = "attention"
    ELEMENTWISE = "elementwise"
    SOFTMAX = "softmax"
    NORM = "norm"
    ACTIVATION = "activation"
    EMBEDDING = "embedding"
    CONV = "conv"
    OTHER = "other"


#: Operator kinds whose dominant work is a matrix-matrix product.  These map
#: naturally onto the compute-centric (systolic-array) cores.
COMPUTE_BOUND_KINDS = frozenset({OpKind.GEMM, OpKind.CONV, OpKind.ATTENTION})

#: Operator kinds whose dominant work is a matrix-vector product.  These map
#: naturally onto the memory-centric (CIM) cores.
MEMORY_BOUND_KINDS = frozenset({OpKind.GEMV, OpKind.EMBEDDING})


@dataclass(frozen=True)
class Op:
    """A single tensor operator with its work and traffic accounting.

    Attributes
    ----------
    name:
        Human-readable name, e.g. ``"decoder.3.ffn.gate"``.
    kind:
        The :class:`OpKind` classification.
    m, k, n:
        Logical GEMM dimensions: the operator computes an (m x k) by
        (k x n) product.  For a GEMV, ``m == 1``.  Non-matmul operators
        use ``m`` for the number of elements processed and ``k = n = 1``.
    weight_bytes:
        Bytes of model parameters that must be read from DRAM (zero for
        operators with no weights, e.g. softmax).
    activation_bytes:
        Bytes of input activations read.
    output_bytes:
        Bytes of output activations written.
    flops:
        Total floating-point operations (2 * MACs for matmul-like ops).
    prunable:
        Whether the operator is a candidate for activation-aware weight
        pruning (the FFN GEMVs of the decode phase in the paper).
    layer_index:
        Index of the encoder layer this op belongs to, if any.  Decoder
        ops are shared by every decoder layer and carry ``None``.
    tag:
        Free-form grouping tag used by the profiler, e.g. ``"ffn"``,
        ``"attention"``, ``"kv_cache"``.
    """

    name: str
    kind: OpKind
    m: int = 1
    k: int = 1
    n: int = 1
    weight_bytes: int = 0
    activation_bytes: int = 0
    output_bytes: int = 0
    flops: int = 0
    prunable: bool = False
    layer_index: Optional[int] = None
    tag: str = ""

    def __post_init__(self) -> None:
        if self.m <= 0 or self.k <= 0 or self.n <= 0:
            raise ValueError(
                f"op {self.name!r}: dimensions must be positive, got "
                f"m={self.m}, k={self.k}, n={self.n}"
            )
        for label, value in (
            ("weight_bytes", self.weight_bytes),
            ("activation_bytes", self.activation_bytes),
            ("output_bytes", self.output_bytes),
            ("flops", self.flops),
        ):
            if value < 0:
                raise ValueError(f"op {self.name!r}: {label} must be >= 0")

    @property
    def total_bytes(self) -> int:
        """Total DRAM-visible traffic of the operator."""
        return self.weight_bytes + self.activation_bytes + self.output_bytes

    @property
    def macs(self) -> int:
        """Multiply-accumulate count (flops are counted as 2 per MAC)."""
        return self.flops // 2

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of traffic; the roofline x-axis."""
        if self.total_bytes == 0:
            return math.inf if self.flops > 0 else 0.0
        return self.flops / self.total_bytes

    @property
    def is_compute_bound_kind(self) -> bool:
        return self.kind in COMPUTE_BOUND_KINDS

    @property
    def is_memory_bound_kind(self) -> bool:
        return self.kind in MEMORY_BOUND_KINDS

    def pruned_weight_bytes(self, keep_fraction: float) -> int:
        """Weight traffic after activation-aware pruning at ``keep_fraction``.

        The single source of truth for how pruning scales weight reads:
        the simulator, the pipeline model and the serving cost model all
        account batches' shared weight traffic through this method.
        """
        if not 0.0 <= keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in [0, 1]")
        return int(
            costs.pruned_weight_bytes(self.weight_bytes, self.prunable, keep_fraction)
        )

    def scaled_traffic(self, weight_keep_fraction: float) -> "Op":
        """Return a copy with weight traffic scaled by ``weight_keep_fraction``.

        Used to apply activation-aware pruning: keeping a fraction ``f`` of
        the channels reads only ``f`` of the weight rows from DRAM and
        performs only ``f`` of the MACs.
        """
        if not 0.0 <= weight_keep_fraction <= 1.0:
            raise ValueError("weight_keep_fraction must be in [0, 1]")
        return replace(
            self,
            weight_bytes=int(round(self.weight_bytes * weight_keep_fraction)),
            flops=int(round(self.flops * weight_keep_fraction)),
        )


def matmul_op(
    name: str,
    m: int,
    k: int,
    n: int,
    *,
    weight_bytes_per_element: float = 1.0,
    activation_bytes_per_element: float = 2.0,
    weights_resident: bool = False,
    prunable: bool = False,
    layer_index: Optional[int] = None,
    tag: str = "",
) -> Op:
    """Build a GEMM/GEMV operator for an (m x k) @ (k x n) product.

    The operator is classified as :attr:`OpKind.GEMV` when ``m == 1``
    (a single embedding vector against the whole weight matrix, the decode
    case) and as :attr:`OpKind.GEMM` otherwise.

    Parameters
    ----------
    weight_bytes_per_element:
        Storage bytes per weight element (1.0 for INT8, 2.0 for BF16).
    activation_bytes_per_element:
        Storage bytes per activation element.
    weights_resident:
        If True the (k x n) operand is not a model parameter read from DRAM
        (e.g. attention score @ value products); its traffic is counted as
        activation traffic instead.
    """
    if m <= 0 or k <= 0 or n <= 0:
        raise ValueError("matmul dimensions must be positive")
    kind = OpKind.GEMV if m == 1 else OpKind.GEMM
    macs = m * k * n
    weight_elements = k * n
    act_elements = m * k
    out_elements = m * n
    if weights_resident:
        weight_bytes = 0
        activation_bytes = int(
            round((act_elements + weight_elements) * activation_bytes_per_element)
        )
    else:
        weight_bytes = int(round(weight_elements * weight_bytes_per_element))
        activation_bytes = int(round(act_elements * activation_bytes_per_element))
    return Op(
        name=name,
        kind=kind,
        m=m,
        k=k,
        n=n,
        weight_bytes=weight_bytes,
        activation_bytes=activation_bytes,
        output_bytes=int(round(out_elements * activation_bytes_per_element)),
        flops=2 * macs,
        prunable=prunable,
        layer_index=layer_index,
        tag=tag,
    )


def elementwise_op(
    name: str,
    elements: int,
    *,
    kind: OpKind = OpKind.ELEMENTWISE,
    bytes_per_element: float = 2.0,
    flops_per_element: float = 1.0,
    reads: int = 2,
    writes: int = 1,
    layer_index: Optional[int] = None,
    tag: str = "",
) -> Op:
    """Build an elementwise/softmax/norm/activation operator."""
    if elements <= 0:
        raise ValueError("elements must be positive")
    return Op(
        name=name,
        kind=kind,
        m=elements,
        k=1,
        n=1,
        weight_bytes=0,
        activation_bytes=int(round(elements * bytes_per_element * reads)),
        output_bytes=int(round(elements * bytes_per_element * writes)),
        flops=int(round(elements * flops_per_element)),
        layer_index=layer_index,
        tag=tag,
    )


@dataclass
class Phase:
    """An ordered group of operators making up one inference phase.

    The paper distinguishes four phases of an MLLM forward pass:
    vision encoding, projection, LLM prefill and LLM decode.  A decode
    phase object describes the work of a *single* decode step; drivers
    multiply by the number of generated tokens.
    """

    name: str
    ops: List[Op] = field(default_factory=list)
    repeat: int = 1

    def __post_init__(self) -> None:
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")

    def add(self, op: Op) -> None:
        self.ops.append(op)

    def extend(self, ops: Iterable[Op]) -> None:
        self.ops.extend(ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def flops(self) -> int:
        return self.repeat * sum(op.flops for op in self.ops)

    @property
    def weight_bytes(self) -> int:
        return self.repeat * sum(op.weight_bytes for op in self.ops)

    @property
    def activation_bytes(self) -> int:
        return self.repeat * sum(op.activation_bytes for op in self.ops)

    @property
    def output_bytes(self) -> int:
        return self.repeat * sum(op.output_bytes for op in self.ops)

    @property
    def total_bytes(self) -> int:
        return self.weight_bytes + self.activation_bytes + self.output_bytes

    def pruned_weight_bytes(self, keep_fraction: float) -> int:
        """Phase weight traffic with pruning applied (including repeats)."""
        return self.repeat * sum(
            op.pruned_weight_bytes(keep_fraction) for op in self.ops
        )

    @property
    def arithmetic_intensity(self) -> float:
        total = self.total_bytes
        if total == 0:
            return 0.0
        return self.flops / total

    def ops_by_kind(self, kind: OpKind) -> List[Op]:
        return [op for op in self.ops if op.kind is kind]

    def ops_by_tag(self, tag: str) -> List[Op]:
        return [op for op in self.ops if op.tag == tag]

    def traffic_by_tag(self) -> dict:
        """Total DRAM traffic per tag (used for Fig. 2(c))."""
        totals: dict = {}
        for op in self.ops:
            totals[op.tag] = totals.get(op.tag, 0) + op.total_bytes
        return {tag: self.repeat * total for tag, total in totals.items()}

    def scaled(self, repeat: int) -> "Phase":
        """Return a copy of this phase with a different repeat count."""
        return Phase(name=self.name, ops=list(self.ops), repeat=repeat)


@dataclass
class Workload:
    """A complete MLLM inference workload: an ordered list of phases."""

    name: str
    phases: List[Phase] = field(default_factory=list)

    def add(self, phase: Phase) -> None:
        self.phases.append(phase)

    def phase(self, name: str) -> Phase:
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise KeyError(f"workload {self.name!r} has no phase named {name!r}")

    def has_phase(self, name: str) -> bool:
        return any(phase.name == name for phase in self.phases)

    @property
    def phase_names(self) -> Tuple[str, ...]:
        return tuple(phase.name for phase in self.phases)

    @property
    def flops(self) -> int:
        return sum(phase.flops for phase in self.phases)

    @property
    def total_bytes(self) -> int:
        return sum(phase.total_bytes for phase in self.phases)

    def __iter__(self) -> Iterator[Phase]:
        return iter(self.phases)

    def __len__(self) -> int:
        return len(self.phases)


def merge_phases(name: str, phases: Sequence[Phase]) -> Phase:
    """Flatten several phases into one (expanding their repeat counts)."""
    merged = Phase(name=name)
    for phase in phases:
        for _ in range(phase.repeat):
            merged.extend(phase.ops)
    return merged
