"""Compositions, set partitions and their weights (the oracles of
`brute_force.py`), and block shapes."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brute_force import compositions, partition_shape, partition_weight, set_partitions
from evenzeta import block_shapes

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


class TestCompositions:
    def test_small_cases(self):
        assert list(compositions(3, 2)) == [(1, 2), (2, 1)]
        assert list(compositions(4, 1)) == [(4,)]
        assert list(compositions(2, 3)) == []

    def test_lexicographic_order(self):
        out = list(compositions(6, 3))
        assert out == sorted(out)

    def test_counts(self):
        # C(total - 1, parts - 1) compositions into positive parts.
        for total in range(1, 9):
            for parts in range(1, total + 1):
                expected = math.comb(total - 1, parts - 1)
                assert sum(1 for _ in compositions(total, parts)) == expected

    def test_parts_domain(self):
        with pytest.raises(ValueError):
            list(compositions(3, 0))

    @given(st.integers(1, 10), st.integers(1, 6))
    def test_every_entry_sums(self, total, parts):
        for comp in compositions(total, parts):
            assert len(comp) == parts
            assert sum(comp) == total
            assert all(c >= 1 for c in comp)


class TestSetPartitions:
    def test_bell_counts(self):
        for n in range(1, 9):
            assert len(set_partitions(n)) == BELL[n]

    def test_partitions_are_distinct(self):
        parts = set_partitions(6)
        assert len(set(parts)) == len(parts)

    def test_each_covers_ground_set(self):
        for partition in set_partitions(5):
            seen = sorted(x for block in partition for x in block)
            assert seen == list(range(1, 6))

    def test_canonical_block_order(self):
        # Elements ascending inside blocks; blocks ordered by first element.
        for partition in set_partitions(6):
            for block in partition:
                assert list(block) == sorted(block)
            firsts = [block[0] for block in partition]
            assert firsts == sorted(firsts)

    def test_extremes_present(self):
        parts = set_partitions(4)
        assert ((1, 2, 3, 4),) in parts
        assert ((1,), (2,), (3,), (4,)) in parts

    def test_domain(self):
        with pytest.raises(ValueError):
            set_partitions(0)


class TestBlockShapes:
    def test_small_cases(self):
        assert block_shapes(1) == [(1,)]
        assert block_shapes(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_partition_counts(self):
        expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
        for n, count in expected.items():
            assert len(block_shapes(n)) == count

    def test_shapes_are_nonincreasing_partitions(self):
        for shape in block_shapes(7):
            assert sum(shape) == 7
            assert all(shape[i] >= shape[i + 1] for i in range(len(shape) - 1))

    def test_shape_of_every_partition_is_listed(self):
        shapes = set(block_shapes(5))
        for partition in set_partitions(5):
            assert partition_shape(partition) in shapes


class TestPartitionWeight:
    def test_singletons(self):
        w = partition_weight(((1,), (2,), (3,)))
        assert w.c == 1
        assert w.c_tilde == 1

    def test_single_block(self):
        w = partition_weight(((1, 2, 3),))
        assert w.c == 2
        assert w.c_tilde == 2  # n - blocks = 2, even sign

    def test_mixed(self):
        w = partition_weight(((1, 3), (2,)))
        assert w.c == 1
        assert w.c_tilde == -1

    def test_block_product_formula(self):
        for partition in set_partitions(5):
            w = partition_weight(partition)
            expected = math.prod(math.factorial(len(b) - 1) for b in partition)
            assert w.c == expected
            sign = (-1) ** (5 - len(partition))
            assert w.c_tilde == sign * expected

    def test_weights_count_permutations(self):
        # Exactly prod (|B|-1)! permutations have cycle support equal to a
        # given partition, so the c-weights over all partitions sum to n!.
        for n in range(1, 7):
            total = sum(partition_weight(p).c for p in set_partitions(n))
            assert total == math.factorial(n)

    def test_signed_weights_count_signed_permutations(self):
        # With the sign (-1)^(n - blocks) each permutation contributes its
        # signature, so the signed total is 0 for n >= 2 (equally many even
        # and odd permutations); n = 1 gives 1.
        assert sum(partition_weight(p).c_tilde for p in set_partitions(1)) == 1
        for n in range(2, 7):
            assert sum(partition_weight(p).c_tilde for p in set_partitions(n)) == 0
