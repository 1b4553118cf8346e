"""Exact Bernoulli numbers and even zeta values over pi.

Every quantity in this package is an exact ``fractions.Fraction``; nothing is
ever rounded.  A product of zeta values at even arguments with argument
total 2k is an exact rational multiple of pi^(2k), so ``zeta_even(j)`` is
zeta(2j)/pi^(2j), read off B_{2j}.  This module also owns the append-only
table class shared between threads.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Callable

__all__ = ["bernoulli", "zeta_even"]

#: Entries kept by the ``zeta_even`` cache: zeta(2j) for every j a run asks
#: for.  The benchmark workloads ask for at most 16.
_ZETA_EVEN_CACHE_SIZE = 256


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


@lru_cache(maxsize=_ZETA_EVEN_CACHE_SIZE)
def zeta_even(j: int) -> Fraction:
    """zeta(2j)/pi^(2j) as an exact rational; zeta(0) is the formal -1/2.

    For j >= 1: zeta(2j) = (-1)^(j+1) * B_{2j} * 2^(2j) / (2 * (2j)!) * pi^(2j).
    """
    if j < 0:
        raise ValueError(f"argument index must be >= 0, got {j}")
    if j == 0:
        return Fraction(-1, 2)
    return (-1) ** (j + 1) * bernoulli(2 * j) * Fraction(2 ** (2 * j), 2 * math.factorial(2 * j))
