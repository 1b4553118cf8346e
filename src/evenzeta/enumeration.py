"""Deterministic enumeration of block shapes: the integer partitions that
index the collapsed sums of multiple zeta values."""

from __future__ import annotations

from typing import Iterator

__all__ = ["block_shapes"]


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
