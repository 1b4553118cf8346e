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

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Sequence

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
    out = tuple(int(m) for m in mvec)
    if not out:
        raise ValueError("need at least one exponent")
    if any(m < 0 for m in out):
        raise ValueError(f"exponents must be >= 0, got {out}")
    return out


def truncation_depth(mvec: Sequence[int]) -> int:
    """Largest index l that can appear on the collapsed side.

    T = max(floor((sum(m) + n - 2) / 2), floor((n - 1) / 2)).
    """
    mvec = _validated_mvec(mvec)
    n, s = len(mvec), sum(mvec)
    return max((s + n - 2) // 2, (n - 1) // 2)


def f_prod(mvec: Sequence[int]) -> tuple[UniPoly, ...]:
    """Coefficients of h^i in the product D^{m_1} f * ... * D^{m_n} f.

    Entry i of the result convolves the forward-triangle rows m_1, ..., m_n
    over all splittings i_1 + ... + i_n = i; there are sum(m) + n + 1 entries.
    """
    mvec = _validated_mvec(mvec)
    table = f_table(max(mvec))
    product = table.row(mvec[0])
    for m in mvec[1:]:
        row = table.row(m)
        pairs: list[list] = [[] for _ in range(len(product) + len(row) - 1)]
        for a, left in enumerate(product):
            for b, right in enumerate(row):
                pairs[a + b].append((left, right))
        product = tuple(UniPoly.dot(terms) for terms in pairs)
    return product


def big_F(mvec: Sequence[int]) -> tuple[UniPoly, ...]:
    """Collapse ``f_prod`` through the inverse triangle.

    Writing N = sum(m) + n and (f_0, ..., f_N) = f_prod(mvec), the product of
    derivatives equals F_0(t) + sum_{j=1}^{N} F_j(t) * D^{j-1} g(t) with

        F_0 = f_0 + (1/2) * sum_{i>=1} (-1)^i f_i t^i
        F_j = sum_{i=j}^{N} f_i * g_{i-1,j}

    All entries are even polynomials; entry 0 collects the polynomial part
    left over when each h^i is replaced by its derivative expression.
    """
    mvec = _validated_mvec(mvec)
    fs = f_prod(mvec)
    total = len(fs) - 1
    inverse = g_table(total - 1)
    head = fs[0]
    for i in range(1, total + 1):
        if fs[i].is_zero():
            continue
        sign = Fraction(-1 if i % 2 else 1, 2)
        head = head + sign * (fs[i] * UniPoly.monomial(i))
    return (head,) + tuple(
        UniPoly.dot((fs[i], inverse.entry(i - 1, j)) for i in range(j, total + 1))
        for j in range(1, total + 1)
    )


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
        """Exact value of the collapsed side at an integer k >= n."""
        if k < self.n:
            raise ValueError(f"need k >= n = {self.n}, got {k}")
        total = Fraction(0)
        for l in range(min(self.T, k) + 1):
            value = self.rhs[l](k)
            if value:
                total += value * bernoulli(2 * k - 2 * l) / factorial(2 * k - 2 * l)
        return total


def bernoulli_identity(mvec: Sequence[int]) -> BernoulliIdentity:
    """Construct the collapsed identity for the given exponent tuple.

    The coefficient of B_{2k-2l}/(2k-2l)! is the polynomial

        p_l(k) = sum_{j=1}^{sum(m)+n-2l} a_{j,l} * 2^(j-1-sum(m)) * (k-l)^(j-1).
    """
    mvec = _validated_mvec(mvec)
    coeffs = a_coeffs(mvec)
    n, s = len(mvec), sum(mvec)
    rhs = tuple(
        UniPoly(
            coeffs[(j, l)] * Fraction(2) ** (j - 1 - s) for j in range(1, s + n - 2 * l + 1)
        ).shift(l)
        for l in range(truncation_depth(mvec) + 1)
    )
    return BernoulliIdentity(mvec=mvec, T=len(rhs) - 1, rhs=rhs)


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
    """Compare the series left side against the collapsed side at one k."""
    mvec = _validated_mvec(mvec)
    if identity is None:
        identity = bernoulli_identity(mvec)
    left = bernoulli_lhs(mvec, k)
    right = identity.rhs_value(k)
    return CheckResult(
        ok=left == right,
        label=f"bernoulli weighted sum m={mvec} k={k}",
        lhs=str(left),
        rhs=str(right),
    )
