"""Weighted sums of Bernoulli-number products over compositions.

For nonnegative integer exponents (m_1, ..., m_n), the composition sum

    sum_{k_1+...+k_n = k, k_j >= 1}  k_1^{m_1} ... k_n^{m_n}
        * B_{2k_1}/(2k_1)! * ... * B_{2k_n}/(2k_n)!

collapses, for every k >= n, to a short combination

    sum_{l=0}^{min(T, k)}  p_l(k) * B_{2k-2l}/(2k-2l)!

whose coefficient polynomials p_l are produced exactly here from the
derivative tables: multiply the rows for m_1, ..., m_n (a convolution in the
power of h(t) = t/(e^t - 1)), rewrite the powers of h through the inverse
triangle, and read off even Taylor coefficients.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar, Sequence

from .checks import CheckResult
from .derivative_tables import f_table, g_table
from .polynomials import UniPoly
from .rationals import bernoulli, factorial
from .series import composition_sum

__all__ = [
    "BernoulliIdentity",
    "a_coeffs",
    "bernoulli_identity",
    "bernoulli_lhs",
    "big_F",
    "f_prod",
    "truncation_depth",
    "verify_bernoulli",
]


def _validated_mvec(mvec: Sequence[int]) -> tuple[int, ...]:
    out = tuple(operator.index(m) for m in mvec)
    if not out:
        raise ValueError("need at least one exponent")
    if any(m < 0 for m in out):
        raise ValueError(f"exponents must be >= 0, got {out}")
    return out


def truncation_depth(mvec: Sequence[int]) -> int:
    """Largest index l that can appear on the collapsed side.

    T = max(floor((sum(m) + n - 2) / 2), floor((n - 1) / 2)).
    """
    return _depth(_validated_mvec(mvec))


def _depth(mvec: tuple[int, ...]) -> int:
    """``truncation_depth`` of a validated exponent tuple."""
    n, s = len(mvec), sum(mvec)
    return max((s + n - 2) // 2, (n - 1) // 2)


def f_prod(mvec: Sequence[int]) -> tuple[UniPoly, ...]:
    """Coefficients of h^i in the product D^{m_1} f * ... * D^{m_n} f.

    Entry i of the result convolves the forward-triangle rows m_1, ..., m_n
    over all splittings i_1 + ... + i_n = i; there are sum(m) + n + 1 entries.
    Every f entry reads over 2, so the product runs on numerators over 2^n.
    """
    mvec = _validated_mvec(mvec)
    table = f_table(max(mvec))
    product, *rows = ([[x * (2 // p.den) for x in p.nums] for p in table.row(m)] for m in mvec)
    for row in rows:
        merged: list[list[int]] = [[] for _ in range(len(product) + len(row) - 1)]
        for a, left in enumerate(product):
            for b, right in enumerate(row):
                acc = merged[a + b]
                acc.extend([0] * (len(left) + len(right) - 1 - len(acc)))
                for c, x in enumerate(left):
                    if x:
                        for d, y in enumerate(right, c):
                            acc[d] += x * y
        product = merged
    return tuple(UniPoly._normalised(nums, 2 ** len(mvec)) for nums in product)


def big_F(mvec: Sequence[int]) -> tuple[UniPoly, ...]:
    """Collapse ``f_prod`` through the inverse triangle.

    Writing N = sum(m) + n and (f_0, ..., f_N) = f_prod(mvec), the product of
    derivatives equals F_0(t) + sum_{j=1}^{N} F_j(t) * D^{j-1} g(t) with

        F_0 = f_0 + (1/2) * sum_{i>=1} (-1)^i f_i t^i
        F_j = sum_{i=j}^{N} f_i * g_{i-1,j}

    All entries are even polynomials; entry 0 collects the polynomial part
    left over when each h^i is replaced by its derivative expression.  As
    deg f_i <= N - i and deg g_{i-1,j} <= i - j, each term of F_j has degree
    at most N - j; F_j is summed on its even coefficients alone, over the one
    denominator lcm(f dens) * (N-1)! (g_{i-1,j} reads over (i-1)!).
    """
    mvec = _validated_mvec(mvec)
    fs = f_prod(mvec)
    total = len(fs) - 1
    inverse = g_table(total - 1)
    # 2*F_0 = 2*f_0 + sum_{i>=1} (-1)^i t^i f_i, on numerators over 2*lcm.
    den = math.lcm(*(f.den for f in fs))
    head = [2 * (den // fs[0].den) * x for x in fs[0].nums]
    for i in range(1, total + 1):
        scale = (-1) ** i * (den // fs[i].den)
        head.extend([0] * (i + len(fs[i].nums) - len(head)))
        for k, x in enumerate(fs[i].nums, i):
            head[k] += scale * x
    out = [UniPoly._normalised(head, 2 * den)]
    top = factorial(total - 1)
    for j in range(1, total + 1):
        # acc[e] is the numerator of t^(2e) over den * (N-1)!; only the
        # products of f_i's t^c and g's t^d with c = d mod 2 reach it.
        acc = [0] * ((total - j) // 2 + 1)
        for i in range(j, total + 1):
            g = inverse.entry(i - 1, j)
            scale = (den // fs[i].den) * (top // g.den)
            halves = (g.nums[0::2], g.nums[1::2])
            for c, x in enumerate(fs[i].nums):
                if x:
                    x *= scale
                    for e, y in enumerate(halves[c & 1], (c + 1) >> 1):
                        acc[e] += x * y
        out.append(UniPoly._normalised([v for a in acc for v in (a, 0)], den * top))
    return tuple(out)


def a_coeffs(mvec: Sequence[int]) -> dict[tuple[int, int], Fraction]:
    """Even Taylor coefficients of the collapsed polynomials.

    Maps (j, l) to the coefficient of t^(2l) in entry j of ``big_F``, for
    1 <= j <= sum(m) + n and 0 <= 2l <= sum(m) + n - j (the a priori degree
    bound); zeros inside that range are included.
    """
    mvec = _validated_mvec(mvec)
    collapsed = big_F(mvec)
    total = len(collapsed) - 1
    out: dict[tuple[int, int], Fraction] = {}
    for j in range(1, total + 1):
        for l in range((total - j) // 2 + 1):
            out[(j, l)] = collapsed[j].coefficient(2 * l)
    return out


@dataclass(frozen=True)
class BernoulliIdentity:
    """Collapsed form of a weighted Bernoulli-product sum.

    For every integer k >= n the composition sum with exponents ``mvec``
    equals sum_{l=0}^{min(T, k)} rhs[l](k) * B_{2k-2l}/(2k-2l)!.
    """

    kind: ClassVar[str] = "bernoulli"

    mvec: tuple[int, ...]
    T: int
    rhs: tuple[UniPoly, ...]

    @property
    def n(self) -> int:
        return len(self.mvec)

    def rhs_value(self, k: int) -> Fraction:
        """Exact value of the collapsed side at an integer k >= n, summed by
        ``_collapsed_sum`` over one running denominator."""
        if k < self.n:
            raise ValueError(f"need k >= n = {self.n}, got {k}")
        return _collapsed_sum(self.rhs[: min(self.T, k) + 1], k, _bernoulli_basis)


def _bernoulli_basis(k: int, l: int) -> tuple[int, int]:
    """B_{2k-2l}/(2k-2l)! as an unreduced (numerator, denominator) pair."""
    value = bernoulli(2 * k - 2 * l)
    return value.numerator, value.denominator * factorial(2 * k - 2 * l)


def _collapsed_sum(
    polys: Sequence[UniPoly], k: int, basis: Callable[[int, int], tuple[int, int]]
) -> Fraction:
    """sum_l polys[l](k) * basis(k, l) over every l < len(polys), exactly.

    Each p_l(k) runs Horner on the integer numerators at the integer k; a
    zero value skips its basis.  The terms accumulate as one numerator over
    a running denominator, the lcm of theirs, and one ``Fraction`` is built
    at the end.  Shared by the Bernoulli and the zeta collapsed sides; the
    left-side evaluators never call it.
    """
    num, den = 0, 1
    for l, poly in enumerate(polys):
        value = 0
        for c in reversed(poly.nums):
            value = value * k + c
        if value:
            top, bottom = basis(k, l)
            bottom *= poly.den
            common = math.gcd(den, bottom)
            num = num * (bottom // common) + value * top * (den // common)
            den *= bottom // common
    return Fraction(num, den)


def bernoulli_identity(mvec: Sequence[int]) -> BernoulliIdentity:
    """Construct the collapsed identity for the given exponent tuple.

    The coefficient of B_{2k-2l}/(2k-2l)! is the polynomial

        p_l(k) = sum_{j=1}^{sum(m)+n-2l} a_{j,l} * 2^(j-1-sum(m)) * (k-l)^(j-1).

    Each p_l is assembled on integers: the numerators of a_{j,l} over their
    lcm, shifted left by j - 1, over lcm * 2^sum(m), then one integer shift
    of the variable by l.
    """
    mvec = _validated_mvec(mvec)
    coeffs = a_coeffs(mvec)
    n, s = len(mvec), sum(mvec)
    rhs = []
    for l in range(truncation_depth(mvec) + 1):
        row = [coeffs[(j, l)] for j in range(1, s + n - 2 * l + 1)]
        lcm = math.lcm(*(a.denominator for a in row))
        nums = [a.numerator * (lcm // a.denominator) << (j - 1) for j, a in enumerate(row, 1)]
        rhs.append(UniPoly._normalised(nums, lcm << s).shift(l))
    return BernoulliIdentity(mvec=mvec, T=len(rhs) - 1, rhs=tuple(rhs))


def bernoulli_lhs(mvec: Sequence[int], k: int) -> Fraction:
    """Exact composition sum on the left side, for k >= n.

    Read as [t^k] of the product of the series sum_a a^{m_j} B_{2a}/(2a)! t^a
    (``series.composition_sum``), whose Bernoulli values come from the sinc
    product: it shares no code with the tables or the Bernoulli recurrence.
    """
    mvec = _validated_mvec(mvec)
    n = len(mvec)
    if k < n:
        raise ValueError(f"need k >= n = {n}, got {k}")
    return composition_sum("bernoulli", mvec, k)


def verify_bernoulli(
    mvec: Sequence[int], k: int, identity: BernoulliIdentity | None = None
) -> CheckResult:
    """Compare the series left side against the collapsed side at one k.

    A given ``identity`` must be the Bernoulli identity of ``mvec``;
    otherwise ``ValueError`` is raised before anything is evaluated.
    """
    mvec = _validated_mvec(mvec)
    if identity is None:
        identity = bernoulli_identity(mvec)
    elif identity.kind != "bernoulli" or identity.mvec != mvec:
        raise ValueError(f"identity is for {identity.kind} m={identity.mvec}, not m={mvec}")
    left = bernoulli_lhs(mvec, k)
    right = identity.rhs_value(k)
    return CheckResult(
        ok=left == right,
        label=f"bernoulli weighted sum m={mvec} k={k}",
        lhs=str(left),
        rhs=str(right),
    )
