"""Deterministic enumeration of set partitions and block shapes, and the
weights set partitions carry."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "PartitionWeight",
    "SetPartition",
    "block_shapes",
    "partition_weight",
    "set_partitions",
]

#: A set partition of {1, ..., n}: each block is a sorted tuple of indices,
#: and blocks are ordered by their smallest element.
SetPartition = tuple[tuple[int, ...], ...]


def set_partitions(n: int) -> list[SetPartition]:
    """All partitions of {1, ..., n} into nonempty blocks, in a fixed order.

    Built by inserting elements 1, 2, ..., n one at a time: each existing
    partition spawns one child per block (element joins the block) plus one
    child with a new singleton block.  The result has Bell(n) entries and the
    order is reproducible across runs.
    """
    if n < 1:
        raise ValueError(f"set partitions need n >= 1, got {n}")
    parts: list[SetPartition] = [((1,),)]
    for element in range(2, n + 1):
        grown: list[SetPartition] = []
        for partition in parts:
            for i, block in enumerate(partition):
                grown.append(partition[:i] + (block + (element,),) + partition[i + 1 :])
            grown.append(partition + ((element,),))
        parts = grown
    return parts


def block_shapes(n: int) -> list[tuple[int, ...]]:
    """Nonincreasing integer partitions of n (possible block-size shapes)."""
    if n < 1:
        raise ValueError(f"block shapes need n >= 1, got {n}")

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first, *rest)

    return list(rec(n, n))


@dataclass(frozen=True)
class PartitionWeight:
    """Multiplicities a set partition carries in symmetric-sum expansions.

    ``c`` is the product over blocks of (size - 1)!; ``c_tilde`` attaches the
    sign (-1)**(n - number of blocks).
    """

    c: int
    c_tilde: int


def partition_weight(partition: SetPartition) -> PartitionWeight:
    n = sum(len(block) for block in partition)
    c = math.prod(math.factorial(len(block) - 1) for block in partition)
    sign = -1 if (n - len(partition)) % 2 else 1
    return PartitionWeight(c=c, c_tilde=sign * c)
