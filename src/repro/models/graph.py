"""Lightweight operator-partitioning utilities.

The performance simulator consumes flat phases; these helpers split a
list of operators across cores for coarse op-level load balancing.
"""

from __future__ import annotations

from typing import List, Sequence

from .ops import Op


def partition_ops_round_robin(ops: Sequence[Op], n_partitions: int) -> List[List[Op]]:
    """Distribute operators across ``n_partitions`` workers round-robin.

    Used for coarse op-level load balancing when a phase's layers contain
    more independent operators than cores.
    """
    if n_partitions <= 0:
        raise ValueError("n_partitions must be positive")
    partitions: List[List[Op]] = [[] for _ in range(n_partitions)]
    # Sort largest-first so the round-robin assignment approximates LPT
    # (longest-processing-time) scheduling.
    for rank, op in enumerate(sorted(ops, key=lambda o: o.flops, reverse=True)):
        partitions[rank % n_partitions].append(op)
    return partitions


def partition_balance(partitions: Sequence[Sequence[Op]]) -> float:
    """Load-balance quality: max partition FLOPs / mean partition FLOPs."""
    if not partitions:
        raise ValueError("partitions must not be empty")
    loads = [sum(op.flops for op in part) for part in partitions]
    mean = sum(loads) / len(loads)
    if mean == 0:
        return 1.0
    return max(loads) / mean
