"""Exact Bernoulli numbers.

Every quantity in this package is an exact ``fractions.Fraction``; nothing is
ever rounded.  This module also owns the append-only table class shared
between threads.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Callable

__all__ = ["bernoulli"]


class GrowableTable:
    """Append-only table grown on demand: entry i is ``step(entries[:i])``.

    Extension is guarded by a lock and entries are only ever appended, so an
    entry or prefix handed out stays valid and concurrent readers see the
    same objects.
    """

    def __init__(self, first: object, step: Callable[[list], object]) -> None:
        self._values: list = [first]
        self._step = step
        self._lock = threading.Lock()

    def value(self, i: int):
        if i < 0:
            raise ValueError(f"table index must be >= 0, got {i}")
        values = self._values
        if i >= len(values):
            with self._lock:
                while len(values) <= i:
                    values.append(self._step(values))
        return values[i]

    def prefix(self, depth: int) -> tuple:
        """Entries 0..depth."""
        self.value(depth)
        return tuple(self._values[: depth + 1])


def _next_bernoulli(values: list[Fraction]) -> Fraction:
    # sum_{j=0}^{n} C(n+1, j) B_j = 0 (n >= 1) solved for B_n; from B_0 = 1
    # alone it gives B_1 = -1/2.
    n = len(values)
    acc = Fraction(0)
    for j, b in enumerate(values):
        if b:
            acc += math.comb(n + 1, j) * b
    return -acc / (n + 1)


_SHARED_TABLE = GrowableTable(Fraction(1), _next_bernoulli)


def bernoulli(i: int) -> Fraction:
    """Exact Bernoulli number B_i, i! times the i-th Taylor coefficient of
    t/(e^t - 1), so B_1 = -1/2.  Entries come from the classical recurrence,
    seeded only with B_0 = 1, in a ``GrowableTable`` that threads share."""
    return _SHARED_TABLE.value(i)
