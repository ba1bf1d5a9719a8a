"""Tests for the operator-partitioning utilities (repro.models.graph)."""

import pytest

from repro.models.graph import partition_balance, partition_ops_round_robin
from repro.models.ops import matmul_op


class TestPartitioning:
    def _ops(self, count=10):
        return [matmul_op(f"op{i}", 2, 16, 16 * (i + 1)) for i in range(count)]

    def test_round_robin_covers_all_ops(self):
        ops = self._ops(10)
        partitions = partition_ops_round_robin(ops, 3)
        assert sum(len(part) for part in partitions) == 10
        names = {op.name for part in partitions for op in part}
        assert names == {op.name for op in ops}

    def test_round_robin_rejects_bad_partitions(self):
        with pytest.raises(ValueError):
            partition_ops_round_robin(self._ops(), 0)

    def test_balance_of_identical_ops_is_one(self):
        ops = [matmul_op(f"op{i}", 2, 16, 16) for i in range(8)]
        partitions = partition_ops_round_robin(ops, 4)
        assert partition_balance(partitions) == pytest.approx(1.0)

    def test_balance_never_below_one(self):
        partitions = partition_ops_round_robin(self._ops(7), 3)
        assert partition_balance(partitions) >= 1.0

    def test_lpt_ordering_beats_naive_split_in_balance(self):
        ops = self._ops(9)
        lpt = partition_ops_round_robin(ops, 3)
        naive = [ops[0:3], ops[3:6], ops[6:9]]
        assert partition_balance(lpt) <= partition_balance(naive)

    def test_balance_rejects_empty(self):
        with pytest.raises(ValueError):
            partition_balance([])
