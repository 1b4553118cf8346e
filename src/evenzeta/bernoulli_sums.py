"""Weighted sums of Bernoulli-number products over compositions.

For nonnegative integer exponents (m_1, ..., m_n), the composition sum

    sum_{k_1+...+k_n = k, k_j >= 1}  k_1^{m_1} ... k_n^{m_n}
        * B_{2k_1}/(2k_1)! * ... * B_{2k_n}/(2k_n)!

collapses, for every k >= n, to a short combination

    sum_{l=0}^{min(T, k)}  p_l(k) * B_{2k-2l}/(2k-2l)!

whose coefficient polynomials p_l are produced exactly here from the
forward derivative triangle: multiply the rows for m_1, ..., m_n (a
convolution in the power of h(t) = t/(e^t - 1), one integer product per
pair of entries by Kronecker substitution), eliminate the powers of h from
the top, and read each p_l straight off the even Taylor coefficients of
the eliminated rows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, ClassVar, Sequence

# g_table is not called here; the benchmark's tracer rebinds it in this module.
from .derivative_tables import f_table, g_table  # noqa: F401
from .polynomials import UniPoly
from .rationals import bernoulli
from .series import _composition_sums

__all__ = [
    "BernoulliIdentity",
    "bernoulli_identity",
    "bernoulli_lhs",
    "f_prod",
    "truncation_depth",
]

#: Elimination rows kept by ``_identity_rows``, one per sorted exponent
#: tuple, shared by the Bernoulli and the zeta identities.
_ROWS_CACHE_SIZE = 1 << 10


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

    The convolution in t is one integer product per pair of entries
    (Kronecker substitution): each entry is packed as its value at t = 2^(8w),
    and the signed coefficients are read back as w-byte digits.  Every entry
    has t-degree at most top = sum(m) + n, and each coefficient of the
    product sums at most prod(len(row) * (top + 1)) terms, each at most
    prod(max |row|) in magnitude; 8w exceeds the bits of those two products
    plus one, so every digit lies in (-2^(8w-1), 2^(8w-1)).
    """
    mvec = _validated_mvec(mvec)
    table = f_table(max(mvec))
    rows = [[[x * (2 // p.den) for x in p.nums] for p in table.row(m)] for m in mvec]
    top = sum(mvec) + len(mvec)
    bound = sum(
        max(abs(x) for entry in row for x in entry).bit_length()
        + (len(row) * (top + 1)).bit_length()
        for row in rows
    )
    width = (bound + 1) // 8 + 1
    shift, half = 8 * width, 1 << (8 * width - 1)
    product, *rest = ([sum(x << (shift * c) for c, x in enumerate(e)) for e in row] for row in rows)
    for row in rest:
        merged = [0] * (len(product) + len(row) - 1)
        for a, x in enumerate(product):
            if x:
                for b, y in enumerate(row, a):
                    merged[b] += x * y
        product = merged
    # Adding half to every digit makes each one nonnegative, so the bytes
    # of the sum are the digits plus half, lowest first.
    size = (top + 1) * width
    bias = int.from_bytes(half.to_bytes(width, "little") * (top + 1), "little")
    out = []
    for packed in product:
        data = (packed + bias).to_bytes(size, "little")
        nums = [int.from_bytes(data[c : c + width], "little") for c in range(0, size, width)]
        out.append(UniPoly._normalised([x - half for x in nums], 2 ** len(mvec)))
    return tuple(out)


def _eliminate(fs: Sequence[UniPoly]) -> tuple[list[list[int]], int]:
    """Rows A_0, ..., A_{N-1} with sum_{i>=1} f_i h^i = sum_j D^j(A_j h).

    ``fs`` is (f_0, ..., f_N) from ``f_prod``.  By t*h' = (1 - t)*h - h^2,

        c * h^i = ((1 - t)*c + D c/(i-1)) * h^(i-1) - D(c * h^(i-1))/(i-1),

    so sweeping i = N, ..., 2 rewrites the sum, level by level: the first
    part stays at level j and the second moves to level j + 1.  Returns the
    integer numerators of the A_j (A_j padded to its degree bound N - 1 - j)
    and their one denominator lcm(f dens) * (N-1)!.
    """
    total = len(fs) - 1
    den = math.lcm(*(f.den for f in fs))
    # At power i, levels[j] holds the numerators of the coefficient of h^i
    # under D^j over den * scale, scale = (N-1)!/(i-1)!, padded to its degree
    # bound N - i - j.  Stepping to i - 1 multiplies scale by i - 1, so the
    # division by i - 1 needs none.
    levels = [[x * (den // fs[total].den) for x in fs[total].nums]]
    scale = 1
    for i in range(total, 1, -1):
        d = i - 1
        scale *= d
        # Level j at power i - 1 keeps level j's terms and loses the part
        # moved up from level j - 1; level 0 gains f_{i-1} instead.
        f = fs[i - 1]
        below = [-x * (den // f.den) * scale for x in f.nums]
        below.extend([0] * (total - d + 1 - len(below)))
        lower = []
        for c in levels:
            steps = zip(c + [0], [0] + c, below)
            lower.append([(d + k) * x - d * y - z for k, (x, y, z) in enumerate(steps)])
            below = c
        lower.append([-z for z in below])
        levels = lower
    return levels, den * scale


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
    return value.numerator, value.denominator * math.factorial(2 * k - 2 * l)


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

        p_l(k) = 2^(-sum(m)) * sum_{b>=0} F_{b+1}[t^(2l)] * (2(k - l))^b,

    with F_j the even polynomials of the collapse onto the derivatives of
    g(t) = h(t) + t/2, D^{m_1} f * ... * D^{m_n} f = F_0 + sum_{j>=1} F_j *
    D^{j-1} g.  The rows A_j of ``_eliminate`` write sum_{i>=1} f_i h^i as
    sum_j D^j(A_j h); then h = g - t/2 and Leibniz give
    F_{b+1} = sum_{j>=b} C(j, b) * D^(j-b) A_j, where D scales t^k by k, so
    sum_b F_{b+1}[t^(2l)] y^b = sum_j A_j[t^(2l)] (y + 2l)^j, and at
    y = 2(k - l) the shift cancels:

        p_l(k) = 2^(-sum(m)) * sum_j A_j[t^(2l)] * 2^j * k^j.

    So each p_l is read straight off the integer rows, over their one
    denominator times 2^sum(m), with one normalisation.  The rows are looked
    up under the sorted exponents (see ``_identity_rows``); the record keeps
    the caller's order.
    """
    mvec = _validated_mvec(mvec)
    rows, den = _identity_rows(tuple(sorted(mvec)))
    # _normalised drops trailing zeros from the list it is given in place,
    # so each cached row is handed over as a fresh list.
    rhs = tuple(UniPoly._normalised(list(nums), den) for nums in rows)
    return BernoulliIdentity(mvec=mvec, T=len(rhs) - 1, rhs=rhs)


@lru_cache(maxsize=_ROWS_CACHE_SIZE)
def _identity_rows(mvec: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The integer numerators of p_0, ..., p_T of ``bernoulli_identity``
    (low degree first) and their one denominator, for a validated tuple:
    ``f_prod``, then ``_eliminate``, then the rows' denominator times
    2^sum(m).  ``zeta_identities`` rescales the same rows.

    The rows depend only on the multiset of exponents: the product
    D^{m_1} f * ... * D^{m_n} f commutes, so every ordering gives the same
    ``f_prod`` and the same elimination.  Both callers pass sorted tuples,
    so each multiset is eliminated once for every ordering and both kinds.
    The cached rows are tuples, so no caller can change them.
    """
    levels, den = _eliminate(f_prod(mvec))
    rows = tuple(
        tuple(c[2 * l] << j if 2 * l < len(c) else 0 for j, c in enumerate(levels))
        for l in range(_depth(mvec) + 1)
    )
    return rows, den << sum(mvec)


def bernoulli_lhs(mvec: Sequence[int], k: int) -> Fraction:
    """Exact composition sum on the left side, for k >= n.

    As B_{2a}/(2a)! = (-1)^(a+1) * 2 * zeta(2a) / (pi^(2a) 4^a) and the k_j
    add up to k, it is (-1)^(k+n) 2^n 4^(-k) times the zeta(2a)/pi^(2a)
    composition sum (``series.composition_sum``), whose values come from the
    sinc product: it shares no code with the tables or the Bernoulli
    recurrence.
    """
    return _bernoulli_lhs_grid(mvec, (k,))[0]


def _bernoulli_lhs_grid(mvec: Sequence[int], ks: Sequence[int]) -> list[Fraction]:
    """``bernoulli_lhs`` at each k of ``ks``, read off one product series."""
    mvec = _validated_mvec(mvec)
    n = len(mvec)
    if min(ks, default=n) < n:
        raise ValueError(f"need k >= n = {n}, got {min(ks)}")
    nums, den = _composition_sums(mvec, ks)
    return [Fraction((-num if (k + n) % 2 else num) << n, den << 2 * k) for k, num in zip(ks, nums)]
