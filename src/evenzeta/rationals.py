"""Exact factorials, binomial coefficients, and Bernoulli numbers.

Every quantity in this package is an exact ``fractions.Fraction``; nothing is
ever rounded.  This module also owns the append-only table class shared
between threads.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Callable

__all__ = ["BernoulliTable", "bernoulli", "binomial", "factorial"]


def factorial(n: int) -> int:
    """Exact n! for n >= 0."""
    if n < 0:
        raise ValueError(f"factorial undefined for negative argument {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); requires 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"binomial undefined for n={n}, k={k}")
    return math.comb(n, k)


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
    # sum_{j=0}^{n} C(n+1, j) B_j = 0 solved for B_n
    n = len(values)
    acc = Fraction(0)
    for j, b in enumerate(values):
        if b:
            acc += math.comb(n + 1, j) * b
    return -acc / (n + 1)


class BernoulliTable(GrowableTable):
    """Growable cache of Bernoulli numbers B_0, B_1, B_2, ...

    Uses the convention B_1 = -1/2, i.e. B_i is i! times the i-th Taylor
    coefficient of t/(e^t - 1).  Entries are produced by the classical
    recurrence sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1, seeded only with
    B_0 = 1, in a ``GrowableTable`` that threads can share.
    """

    def __init__(self) -> None:
        super().__init__(Fraction(1), _next_bernoulli)


_SHARED_TABLE = BernoulliTable()


def bernoulli(i: int) -> Fraction:
    """Exact Bernoulli number B_i, with B_1 = -1/2."""
    return _SHARED_TABLE.value(i)
