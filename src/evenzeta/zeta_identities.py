"""The weighted sum identities for products zeta(2k_1) ... zeta(2k_n) of
even zeta values.

A product of zeta values at even arguments with argument total 2k is an exact
rational multiple of pi^(2k), so every evaluated side here is the
``Fraction`` coefficient of pi^(2k) (``rationals.zeta_even(j)`` is
zeta(2j)/pi^(2j)), and both sides of an identity at k are compared as such
coefficients.  The identities rewrite power-weighted composition sums of
such products as short combinations over the basis zeta(2l) * zeta(2k-2l),
with the l = 0 coefficient normalised to multiply plain zeta(2k).  The
formal value zeta(0) = -1/2 extends the composition sums to index value 0
and is what that normalisation folds in.  Each is a ``WeightedSumIdentity``
of kind "zeta", the record of ``bernoulli_sums``.

The identity for a monomial weight is the rescaled Bernoulli identity of
``bernoulli_sums``: ``_monomial_identity`` reads its terms off the integer
rows of the elimination, as ``bernoulli_identity`` does, and scales each by
an integer pair, ``_zeta_rescale``.  Both look the rows up under the sorted
exponents in one cache, so a multiset is eliminated once for every ordering
and both kinds.  Every other zeta, mzv or mzsv identity is a linear
combination of monomial identities, formed by ``_combined_identity`` from
the same rows on integers, rescaled once per orbit length and term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .bernoulli_sums import WeightedSumIdentity, _depth, _identity_rows, _validated_mvec
from .polynomials import MultiPoly, UniPoly
from .rationals import bernoulli
from .series import _combine, _composition_sums

__all__ = [
    "eval_identity_rhs",
    "eval_zeta_lhs",
    "zeta_identity_monomial",
    "zeta_identity_poly",
]

#: Monomial identities kept by the cache behind every zeta, mzv and mzsv
#: identity, one per sorted exponent tuple.
_MONOMIAL_CACHE_SIZE = 1 << 10


def _zeta_rescale(n: int, l: int) -> tuple[int, int]:
    """(top, bottom), bottom > 0, with term l of the zeta identity of an
    n-tuple equal to top/bottom times term l of its Bernoulli identity.

    Substituting B_{2j}/(2j)! = (-1)^(j+1) * 2 * zeta(2j) / (2 pi)^(2j) into
    the Bernoulli identity rescales p_l by (-1)^n 2^(2-n) (2l)!/B_{2l}; the
    l = 0 entry also takes zeta(0) = -1/2 to multiply plain zeta(2k).  The
    factor depends on n and l alone, not on the exponents.
    """
    b = bernoulli(2 * l)
    up, down = (2, 1) if n == 1 else (1, 1 << (n - 2))
    top = (-1 if n % 2 else 1) * up * math.factorial(2 * l) * b.denominator
    bottom = down * b.numerator * (-2 if l == 0 else 1)
    return (-top, -bottom) if bottom < 0 else (top, bottom)


@lru_cache(maxsize=_MONOMIAL_CACHE_SIZE)
def _monomial_identity(mvec: tuple[int, ...]) -> WeightedSumIdentity:
    # Called with sorted exponents only: permuting them permutes the
    # compositions, so every ordering has the identity of its sorted form.
    # Each term is a row of the Bernoulli identity times its integer pair,
    # with one normalisation.
    rows, den = _identity_rows(mvec)
    n = len(mvec)
    terms = []
    for l, nums in enumerate(rows):
        top, bottom = _zeta_rescale(n, l)
        terms.append(UniPoly._normalised([x * top for x in nums], den * bottom))
    return WeightedSumIdentity(kind="zeta", n=n, T=len(terms) - 1, terms=tuple(terms), mvec=mvec)


def _combined_identity(
    kind: str, n: int, nums: Iterable[tuple[tuple[int, ...], int]], den: int, poly: MultiPoly
) -> WeightedSumIdentity:
    """The sum of c/den * (monomial identity of exponents) over the pairs
    (exponents, c) of ``nums``, with integer c, den > 0 and every exponent
    tuple valid.

    A monomial identity depends only on the orbit of its exponents under
    permutation, so the numerators of pairs with equal sorted exponents are
    summed first.  The rescale from the Bernoulli rows to the zeta terms
    depends only on the orbit's length i and on l (``_zeta_rescale``), so
    the orbits are grouped by length: the elimination rows of each group
    (``_identity_rows``) are summed, weighted by their numerators, over the
    lcm of their denominators.  Each term l then rescales every group's sum
    once and adds them over one lcm, with one normalisation.  The depth T
    is the largest truncation depth among the orbits, those whose
    coefficients cancel included, or ``(n - 1) // 2`` when there are none;
    a term beyond an orbit's depth counts as zero.
    """
    orbits: dict[tuple[int, ...], int] = {}
    for expts, c in nums:
        key = tuple(sorted(expts))
        orbits[key] = orbits.get(key, 0) + c
    depth = max(map(_depth, orbits), default=(n - 1) // 2)
    groups: dict[int, list[tuple[int, tuple, int]]] = {}
    for key, c in orbits.items():
        if c:
            groups.setdefault(len(key), []).append((c, *_identity_rows(key)))
    # Per orbit length: the weighted sum of the rows, row l over lcm.
    sums = []
    for length, group in groups.items():
        lcm = math.lcm(*(row_den for _, _, row_den in group))
        acc: list[list[int]] = []
        for c, rows, row_den in group:
            scale = c * (lcm // row_den)
            for l, row in enumerate(rows):
                if l == len(acc):
                    acc.append([])
                out = acc[l]
                out.extend([0] * (len(row) - len(out)))
                for j, x in enumerate(row):
                    if x:
                        out[j] += scale * x
        sums.append((length, acc, lcm))
    terms = []
    for l in range(depth + 1):
        present = [(_zeta_rescale(length, l), acc[l], lcm) for length, acc, lcm in sums if l < len(acc)]
        common = math.lcm(*(bottom * lcm for (_, bottom), _, lcm in present))
        total = [0] * max((len(row) for _, row, _ in present), default=0)
        for (top, bottom), row, lcm in present:
            scale = top * (common // (bottom * lcm))
            for j, x in enumerate(row):
                total[j] += scale * x
        terms.append(UniPoly._normalised(total, den * common))
    return WeightedSumIdentity(kind=kind, n=n, T=depth, terms=tuple(terms), poly=poly)


def zeta_identity_monomial(mvec: Sequence[int]) -> WeightedSumIdentity:
    """Identity for the weight k_1^{m_1} ... k_n^{m_n} on products of even
    zeta values: for k >= n,

        sum_{k_1+...+k_n=k} k_1^{m_1}...k_n^{m_n} zeta(2k_1)...zeta(2k_n)
            = terms[0](k) zeta(2k)
            + sum_{l=1}^{min(T,k)} terms[l](k) zeta(2l) zeta(2k-2l).

    The identity is shared by every ordering of ``mvec``; the result carries
    the caller's ordering.
    """
    mvec = _validated_mvec(mvec)
    identity = _monomial_identity(tuple(sorted(mvec)))
    return identity if identity.mvec == mvec else identity.replace(mvec=mvec)


def zeta_identity_poly(F: MultiPoly, n: int) -> WeightedSumIdentity:
    """Identity for an arbitrary weight polynomial F(x1..xn), assembled as the
    linear combination of the monomial identities.  No symmetry is required.
    """
    if not isinstance(F, MultiPoly):
        raise TypeError(f"expected a MultiPoly weight, got {type(F).__name__}")
    if F.arity != n:
        raise ValueError(f"weight polynomial has arity {F.arity}, expected {n}")
    return _combined_identity("zeta", n, F.nums.items(), F.den, F)


def eval_zeta_lhs(F: MultiPoly, n: int, k: int) -> Fraction:
    """Exact left side: sum over compositions of F(k_1..k_n) * zeta(2k_1) ...
    zeta(2k_n), as its coefficient of pi^(2k).

    Each monomial's sum is [t^k] of a product of the series
    sum_a a^{m_j} zeta(2a)/pi^(2a) t^a (``series.composition_sum``), with
    zeta values from the sinc product rather than ``zeta_even``.  No
    symmetry is required.
    """
    return _zeta_lhs_grid(F, n, (k,))[0]


def _zeta_lhs_grid(F: MultiPoly, n: int, ks: Sequence[int]) -> list[Fraction]:
    """``eval_zeta_lhs`` at each k of ``ks``, summed on integers."""
    if F.arity != n:
        raise ValueError(f"weight polynomial has arity {F.arity}, expected {n}")
    if min(ks, default=n) < n:
        raise ValueError(f"need k >= n = {n}, got {min(ks)}")
    return _combine(((c, _composition_sums(e, ks)) for e, c in F.nums.items()), len(ks), F.den)


def eval_identity_rhs(identity: WeightedSumIdentity, k: int) -> Fraction:
    """``identity.rhs_value(k)``.  Kept for the benchmark workloads
    (``bench/workloads.py``), which call it by this name."""
    return identity.rhs_value(k)
