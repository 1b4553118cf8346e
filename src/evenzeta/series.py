"""Truncated power series over nilpotent markers: one kernel for the left
side of every identity.

A series here is sum_{k=0}^{H} c_k t^k, cut at the horizon H, whose
coefficients lie in Q[eps_0, ..., eps_{l-1}] with eps_r^2 = 0.  Each
coefficient is stored as 2^l integer numerators, one per marker subset
(keyed by its bitmask), over one denominator shared by the whole series.

Nothing here comes from the identity pipeline: the values below are built
from factorials alone, and every composition sum is read off a product.

* Even zeta values.  sin(pi x)/(pi x) = prod_{m>=1} (1 - x^2/m^2), so the
  elementary symmetric functions of the numbers 1/(pi^2 m^2) are
  e_j = 1/(2j+1)!.  Their power sums are zeta(2j)/pi^(2j), which Newton's
  identities j e_j = sum_{i=1}^{j} (-1)^(i-1) e_{j-i} p_i recover one j at a
  time.
* Products of single values.  With c_a = zeta(2a)/pi^(2a),
  sum_{k_1+...+k_n=k} k_1^{m_1} ... k_n^{m_n} c_{k_1} ... c_{k_n} is [t^k]
  of the product of the series sum_a a^{m_j} c_a t^a.  As
  B_{2a}/(2a)! = (-1)^(a+1) * 2 * c_a / 4^a and k_1 + ... + k_n = k, the
  same sum over Bernoulli values is (-1)^(k+n) 2^n 4^(-k) times this one.
* Multiple zeta(-star) values.  For a partition mu = (mu_0, ..., mu_{l-1}),
  put phi(x) = sum_{a>=1} (1 + sum_r eps_r a^{mu_r}) x^a and x_m = t/m^2.
  The power sums P_j = sum_m phi(x_m)^j = sum_a [x^a] phi^j * zeta(2a) t^a
  give, by Newton's identities, the elementary and complete symmetric
  functions e_n and h_n of the values phi(x_m): the sums of
  phi(x_{m_1}) ... phi(x_{m_n}) over m_1 > ... > m_n and over
  m_1 >= ... >= m_n.  As eps_r^2 = 0, the coefficient of eps_0 ... eps_{l-1}
  puts every marker on a different index, so it is the composition sum of
  m_mu(k_1, ..., k_n) zeta(2k_1, ..., 2k_n) (zeta* for h_n) times the
  product of the factorials of the multiplicities of mu's parts.

Every series is built to the largest k asked for, at least 16, and cached
on that horizon, so a verification grid reads all its k off one series.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .rationals import GrowableTable

__all__ = ["Series", "composition_sum", "symmetric_sum", "zeta_over_pi"]

#: Smallest horizon a series is built to.
MIN_HORIZON = 16

#: Weight series kept, one per horizon.
_WEIGHTS_CACHE_SIZE = 64

#: Products kept, one per (sorted exponents, horizon) and every
#: prefix of the exponents.
_PRODUCT_CACHE_SIZE = 1 << 10

#: Powers phi^j and power sums P_j kept, one per (mu, j, horizon).
_POWER_CACHE_SIZE = 1 << 10

#: Symmetric functions e_n or h_n kept, one per (mu, n, star, horizon).
_SYMMETRIC_CACHE_SIZE = 1 << 10


class Series:
    """Truncated series sum_k sum_mask nums[k][mask]/den eps^mask t^k.

    ``nums`` has one row per power of t up to the horizon and 2^l entries
    per row; ``den > 0`` and gcd(den, *nums) == 1.  Immutable by
    convention: every operation returns a new series.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: Iterable[Sequence[int]], den: int = 1) -> None:
        rows = [tuple(row) for row in nums]
        common = math.gcd(den, *itertools.chain.from_iterable(rows))
        self.nums = tuple(tuple(x // common for x in row) for row in rows)
        self.den = den // common

    @staticmethod
    def one(markers: int, horizon: int) -> "Series":
        rows = [[0] * (1 << markers) for _ in range(horizon + 1)]
        rows[0][0] = 1
        return Series(rows)

    @property
    def horizon(self) -> int:
        return len(self.nums) - 1

    def __neg__(self) -> "Series":
        return Series(([-x for x in row] for row in self.nums), self.den)

    @staticmethod
    def dot(pairs: Iterable[tuple["Series", "Series"]], divisor: int = 1) -> "Series":
        """The sum of a * b over ``pairs``, divided by ``divisor``.

        Every pair shares a horizon and a marker count.  Each product is
        convolved on integer numerators over the lcm of the pairs'
        denominators, keeping only products of disjoint marker subsets, and
        the sum is normalised once.
        """
        pairs = list(pairs)
        horizon, size = pairs[0][0].horizon, len(pairs[0][0].nums[0])
        disjoint = [(p, q) for p in range(size) for q in range(size) if not p & q]
        den = math.lcm(*(a.den * b.den for a, b in pairs))
        acc = [[0] * size for _ in range(horizon + 1)]
        for a, b in pairs:
            scale = den // (a.den * b.den)
            for i, left in enumerate(a.nums):
                if not any(left):
                    continue
                left = [x * scale for x in left]
                for j in range(horizon + 1 - i):
                    right, row = b.nums[j], acc[i + j]
                    for p, q in disjoint:
                        row[p | q] += left[p] * right[q]
        return Series(acc, den * divisor)

    def __mul__(self, other: "Series") -> "Series":
        return Series.dot([(self, other)])


def _next_zeta(values: list[Fraction]) -> Fraction:
    # Newton's identity solved for p_j, with e_i = 1/(2i+1)!.
    j = len(values)
    acc = Fraction(j, math.factorial(2 * j + 1))
    for i in range(1, j):
        acc -= (-1) ** (i - 1) * values[i] / math.factorial(2 * (j - i) + 1)
    return (-1) ** (j - 1) * acc


#: zeta(2j)/pi^(2j) for j >= 1; entry 0 is the formal zeta(0) = -1/2, which
#: the recursion never reads.
_ZETA_TABLE = GrowableTable(Fraction(-1, 2), _next_zeta)


def zeta_over_pi(j: int) -> Fraction:
    """zeta(2j)/pi^(2j) from the sinc product; the formal -1/2 at j = 0."""
    return _ZETA_TABLE.value(j)


@lru_cache(maxsize=_WEIGHTS_CACHE_SIZE)
def _weights(horizon: int) -> Series:
    """sum_{a=1}^{horizon} zeta(2a)/pi^(2a) t^a."""
    values = [Fraction(0)] + [zeta_over_pi(a) for a in range(1, horizon + 1)]
    den = math.lcm(*(v.denominator for v in values))
    return Series([(v.numerator * (den // v.denominator),) for v in values], den)


@lru_cache(maxsize=_PRODUCT_CACHE_SIZE)
def _product(mvec: tuple[int, ...], horizon: int) -> Series:
    # Called with sorted exponents, so each prefix is itself a cached key.
    weights = _weights(horizon)
    factor = Series([(a ** mvec[-1] * row[0],) for a, row in enumerate(weights.nums)], weights.den)
    return factor if len(mvec) == 1 else _product(mvec[:-1], horizon) * factor


def _composition_sums(mvec: Sequence[int], ks: Sequence[int]) -> tuple[list[int], int]:
    """``composition_sum`` at each k of ``ks``: numerators over one denominator."""
    mvec = tuple(sorted(operator.index(m) for m in mvec))
    if not mvec or mvec[0] < 0:
        raise ValueError(f"need at least one exponent, all >= 0, got {mvec}")
    if min(ks, default=0) < 0:
        raise ValueError(f"need k >= 0, got {min(ks)}")
    product = _product(mvec, max((MIN_HORIZON, *ks)))
    return [product.nums[k][0] for k in ks], product.den


def _combine(parts: Iterable[tuple[int, tuple[list[int], int]]], size: int, divisor: int) -> list:
    """The sums over ``parts`` (c, (nums, den)) of c * nums[i] / den / divisor
    for i < size, on integers over a running lcm: one ``Fraction`` each."""
    totals, den = [0] * size, 1
    for c, (nums, bottom) in parts:
        common = math.gcd(den, bottom)
        totals = [t * (bottom // common) + c * x * (den // common) for t, x in zip(totals, nums)]
        den *= bottom // common
    return [Fraction(t, den * divisor) for t in totals]


def composition_sum(mvec: Sequence[int], k: int) -> Fraction:
    """sum over k_1 + ... + k_n = k, k_j >= 1, of k_1^{m_1} ... k_n^{m_n}
    c_{k_1} ... c_{k_n}, with c_a = zeta(2a)/pi^(2a)."""
    (num,), den = _composition_sums(mvec, (k,))
    return Fraction(num, den)


@lru_cache(maxsize=_POWER_CACHE_SIZE)
def _phi_power(mu: tuple[int, ...], j: int, horizon: int) -> tuple[Series, Series]:
    """phi^j in x for j >= 1, and the power sum
    P_j = sum_a [x^a] phi^j * zeta(2a)/pi^(2a) t^a."""
    rows = [[0] * (1 << len(mu)) for _ in range(horizon + 1)]
    for a in range(1, horizon + 1):
        rows[a][0] = 1
        for r, part in enumerate(mu):
            rows[a][1 << r] = a**part
    power = Series(rows) if j == 1 else _phi_power(mu, j - 1, horizon)[0] * Series(rows)
    zeta = _weights(horizon)
    power_sum = Series(
        ([x * z for x in row] for row, (z,) in zip(power.nums, zeta.nums)), power.den * zeta.den
    )
    return power, power_sum


@lru_cache(maxsize=_SYMMETRIC_CACHE_SIZE)
def _symmetric(mu: tuple[int, ...], n: int, star: bool, horizon: int) -> Series:
    """e_n (h_n when ``star``) of the values phi(x_m), by Newton's identities
    n e_n = sum_i (-1)^(i-1) e_{n-i} P_i and n h_n = sum_i h_{n-i} P_i."""
    if n == 0:
        return Series.one(len(mu), horizon)
    pairs = []
    for i in range(1, n + 1):
        power_sum = _phi_power(mu, i, horizon)[1]
        if not star and i % 2 == 0:
            power_sum = -power_sum
        pairs.append((_symmetric(mu, n - i, star, horizon), power_sum))
    return Series.dot(pairs, divisor=n)


def _symmetric_sums(mu: Sequence[int], n: int, ks: Sequence[int], star: bool) -> tuple[list, int]:
    """``symmetric_sum`` at each k of ``ks``: numerators over one denominator."""
    mu = tuple(sorted((operator.index(p) for p in mu), reverse=True))
    if mu and mu[-1] < 1:
        raise ValueError(f"parts must be positive, got {mu}")
    if n < 1 or len(mu) > n:
        raise ValueError(f"need n >= 1 and at most n parts, got n = {n}, mu = {mu}")
    if min(ks, default=0) < 0:
        raise ValueError(f"need k >= 0, got {min(ks)}")
    series = _symmetric(mu, n, star, max((MIN_HORIZON, *ks)))
    mask = (1 << len(mu)) - 1
    multiplicities = math.prod(math.factorial(c) for c in Counter(mu).values())
    return [series.nums[k][mask] for k in ks], series.den * multiplicities


def symmetric_sum(mu: Sequence[int], n: int, k: int, star: bool = False) -> Fraction:
    """sum over k_1 + ... + k_n = k, k_j >= 1, of m_mu(k_1, ..., k_n) times
    zeta(2k_1, ..., 2k_n)/pi^(2k), or zeta*(...)/pi^(2k) when ``star``.

    ``mu`` lists the positive exponents of the monomial symmetric function
    m_mu, the sum of the distinct monomials whose exponents permute
    (mu, 0, ..., 0); it needs len(mu) <= n.
    """
    (num,), den = _symmetric_sums(mu, n, (k,), star)
    return Fraction(num, den)
