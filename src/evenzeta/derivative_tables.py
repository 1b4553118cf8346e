"""Triangular polynomial tables for rewriting derivatives of the even
Bernoulli series in powers of t/(e^t - 1).

Write D = t*d/dt and h(t) = t/(e^t - 1).  Everything below follows from the
first-order equation

    t*h' = (1 - t)*h - h^2.

The even series f(t) = h(t) - 1 + t/2 = sum_{i>=1} B_{2i} t^{2i} / (2i)!
satisfies

    D^m f(t) = sum_{i=0}^{m+1} f_{m,i}(t) * h(t)^i

for a triangle of polynomials f_{m,i}: applying D once more and using the
equation for D(h^i) = i*h^(i-1)*t*h' gives row m from row m - 1.  Conversely,
multiplying that equation by i*h^(i-1) gives

    h^(i+1) = (1 - t)*h^i - D(h^i)/i,

so every power of h is a polynomial combination of D^j h, hence of D^j g with
g(t) = h(t) + t/2 the even completion.  Collecting coefficients gives the
second triangle g_{m,i}, again by a first-order recursion in m, and it
inverts the first columnwise.  The two triangles are built independently, so
the inverse relation between them is a genuine cross-check.

Each triangle is grown on demand in one shared ``GrowableTable``: rows are
appended under a lock and never change afterwards, so ``f_table(d)`` and
``g_table(d)`` hold prefixes of the same rows for every depth d.  Each row
is stepped on integer numerators (f over 2, g scaled by r!), with one
normalisation per new entry.
Downstream modules consume only these triangles and their extreme
coefficients; the transcendental functions themselves are never evaluated.
The Bernoulli pipeline reads the forward triangle alone: ``bernoulli_sums``
applies the same equation to the product of f rows directly, and
``bernoulli_identity`` reads its p_l off the eliminated rows.  The inverse
triangle feeds the ``tables`` output, the tables suite and the tests'
inverse-triangle oracle of the collapsed identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .polynomials import UniPoly
from .rationals import GrowableTable

__all__ = ["Triangle", "c_coeffs", "d_coeffs", "f_table", "g_table"]

#: Depths kept by the ``f_table``/``g_table`` wrappers.  Each entry holds only
#: references to shared rows; the CLI admits depths up to 48.
_TABLE_CACHE_SIZE = 64

Row = tuple[UniPoly, ...]


@dataclass(frozen=True)
class Triangle:
    """Rows 0..depth of a triangle; row m holds entries i = first..m+1."""

    depth: int
    first: int
    rows: tuple[Row, ...]

    def row(self, m: int) -> Row:
        if not 0 <= m <= self.depth:
            raise ValueError(f"row index must be in 0..{self.depth}, got {m}")
        return self.rows[m]

    def entry(self, m: int, i: int) -> UniPoly:
        row = self.row(m)
        if not self.first <= i <= m + 1:
            raise ValueError(f"column index must be in {self.first}..{m + 1}, got {i}")
        return row[i - self.first]


def _f_step(rows: list[Row]) -> Row:
    # Row m - 1 on numerators over 2, padded with zero entries i = -1, m + 1:
    # 2*[t^k] f_{m,i} = (k + i)*a_k - i*a_{k-1} - (i - 1)*b_k, (a, b) = 2*f_{m-1,(i,i-1)}.
    prev = [[]] + [[x * (2 // p.den) for x in p.nums] for p in rows[-1]] + [[]]
    out = []
    for i in range(len(prev) - 1):
        b, a = prev[i], prev[i + 1]
        nums = [0] * max(len(a) + 1, len(b))
        for k, x in enumerate(a):
            nums[k] += (k + i) * x
            nums[k + 1] -= i * x
        for k, x in enumerate(b):
            nums[k] -= (i - 1) * x
        out.append(UniPoly._normalised(nums, 2))
    return tuple(out)


def _g_step(rows: list[Row]) -> Row:
    # Row r - 1 as G_{r-1}, padded with zero entries j = 0, r + 1:
    # [t^k] G_{r,j} = (r - k)*a_k - r*a_{k-1} - b_k, (a, b) = G_{r-1,(j,j-1)}.
    r = len(rows)
    scale = math.factorial(r - 1)
    prev = [[]] + [[x * (scale // p.den) for x in p.nums] for p in rows[-1]] + [[]]
    out = []
    for j in range(1, r + 2):
        b, a = prev[j - 1], prev[j]
        nums = [0] * max(len(a) + 1, len(b))
        for k, x in enumerate(a):
            nums[k] += (r - k) * x
            nums[k + 1] -= r * x
        for k, x in enumerate(b):
            nums[k] -= x
        out.append(UniPoly._normalised(nums, scale * r))
    return tuple(out)


_F_ROWS = GrowableTable((UniPoly((Fraction(-1), Fraction(1, 2))), UniPoly.one()), _f_step)
_G_ROWS = GrowableTable((UniPoly.one(),), _g_step)


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def f_table(depth: int) -> Triangle:
    """Rows 0..depth of the forward triangle, columns i = 0..m+1 in row m.

    Row 0 is (t/2 - 1, 1); each later row follows from

        f_{m,0}   = t * f_{m-1,0}'
        f_{m,i}   = t * f_{m-1,i}' + i*(1 - t)*f_{m-1,i} - (i - 1)*f_{m-1,i-1}

    for 1 <= i <= m + 1, with f_{m-1,m+1} = 0 (so f_{m,m+1} = -m * f_{m-1,m}).
    Every denominator divides 2, so rows are stepped on numerators over 2.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return Triangle(depth=depth, first=0, rows=_F_ROWS.prefix(depth))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def g_table(depth: int) -> Triangle:
    """Rows 0..depth of the inverse triangle, columns j = 1..r+1 in row r.

    Row 0 is (1,).  Writing h^(i+1) = (1 - t)*h^i - D(h^i)/i (from
    t*h' = (1 - t)*h - h^2) and expanding each side in D^j g gives

        g_{r,j} = (1 - t)*g_{r-1,j} - (t*g_{r-1,j}' + g_{r-1,j-1}) / r

    for 1 <= j <= r + 1, with g_{r-1,0} = g_{r-1,r+1} = 0; the diagonal is
    (-1)^r / r!.  Rows are stepped on the integer numerators G_r = r!*g_r, by
    G_{r,j} = r*(1 - t)*G_{r-1,j} - t*G_{r-1,j}' - G_{r-1,j-1}.  The
    triangle inverts the f-system columnwise,
    sum_{j=i}^{m+1} f_{m,j} * g_{j-1,i} = [i = m+1], but is not built from it.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return Triangle(depth=depth, first=1, rows=_G_ROWS.prefix(depth))


def c_coeffs(depth: int) -> tuple[tuple[Fraction, ...], ...]:
    """Leading coefficients of the forward triangle, by their own recursion.

    Row m holds (c_{m,0}, ..., c_{m,m+1}) where c_{m,i} is the coefficient of
    t^(m+1-i) in f_{m,i}.  The recursion c_{m,i} = -i*c_{m-1,i} -
    (i-1)*c_{m-1,i-1} (with c_{m,0} = 1/2 and c_{m,m+1} = (-1)^m * m!) is an
    independent path that tests cross-check against direct extraction.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    rows: list[tuple[Fraction, ...]] = [(Fraction(1, 2), Fraction(1))]
    for m in range(1, depth + 1):
        prev = rows[m - 1]
        row = [Fraction(1, 2)]
        for i in range(1, m + 1):
            row.append(-i * prev[i] - (i - 1) * prev[i - 1])
        row.append(Fraction((-1) ** m * math.factorial(m)))
        rows.append(tuple(row))
    return tuple(rows)


def d_coeffs(depth: int) -> tuple[tuple[Fraction, ...], ...]:
    """Top coefficients of the inverse triangle, by inverting ``c_coeffs``.

    Row m holds (d_{m,1}, ..., d_{m,m+1}) where d_{m,i} is the coefficient of
    t^(m+1-i) in g_{m,i} (the degree bound is not always attained, so d may
    be zero).  Satisfies d_{m,i} = (-1)^(m+1)/m! * sum_{j=i}^{m} c_{m,j}
    d_{j-1,i} with diagonal (-1)^m / m!.

    This stays an inversion of the leading coefficients on purpose: ``g_table``
    comes from its own recursion, so comparing d against the top
    coefficients of g checks the inverse relation through a derivation that
    shares nothing with the one that builds g.  The cost, O(depth^3) scalar
    operations, is negligible at the suite depths.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    cs = c_coeffs(depth)
    rows: list[tuple[Fraction, ...]] = [(Fraction(1),)]
    for m in range(1, depth + 1):
        scale = Fraction((-1) ** (m + 1), math.factorial(m))
        row = []
        for i in range(1, m + 1):
            row.append(scale * sum(cs[m][j] * rows[j - 1][i - 1] for j in range(i, m + 1)))
        row.append(Fraction((-1) ** m, math.factorial(m)))
        rows.append(tuple(row))
    return tuple(rows)
