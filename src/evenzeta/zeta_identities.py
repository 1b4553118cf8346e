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
an integer pair.  Both look the rows up under the sorted exponents in one
cache, so a multiset is eliminated once for every ordering and both kinds.
Every other zeta, mzv or mzsv identity is a linear combination of monomial
identities, formed by ``_combined_identity``.
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


@lru_cache(maxsize=_MONOMIAL_CACHE_SIZE)
def _monomial_identity(mvec: tuple[int, ...]) -> WeightedSumIdentity:
    # Called with sorted exponents only: permuting them permutes the
    # compositions, so every ordering has the identity of its sorted form.
    # Substituting B_{2j}/(2j)! = (-1)^(j+1) * 2 * zeta(2j) / (2 pi)^(2j) into
    # the Bernoulli identity rescales p_l by (-1)^n 2^(2-n) (2l)!/B_{2l}; the
    # l = 0 entry also takes zeta(0) = -1/2 to multiply plain zeta(2k).  Each
    # factor is an integer pair applied to the rows of p_l, with one
    # normalisation per term.
    rows, den = _identity_rows(mvec)
    n = len(mvec)
    sign = -1 if n % 2 else 1
    up, down = (2, 1) if n == 1 else (1, 1 << (n - 2))
    terms = []
    for l, nums in enumerate(rows):
        b = bernoulli(2 * l)
        top = sign * up * math.factorial(2 * l) * b.denominator
        bottom = down * b.numerator * (-2 if l == 0 else 1)
        if bottom < 0:
            top, bottom = -top, -bottom
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
    summed first and one identity is built per orbit.  Each term l is then
    summed over the orbits as integer numerators over the lcm of their
    denominators, with one normalisation.  The depth T is the largest
    truncation depth among the orbits, those whose coefficients cancel
    included, or ``(n - 1) // 2`` when there are none; a term beyond an
    orbit's depth counts as zero.
    """
    orbits: dict[tuple[int, ...], int] = {}
    for expts, c in nums:
        key = tuple(sorted(expts))
        orbits[key] = orbits.get(key, 0) + c
    depth = max(map(_depth, orbits), default=(n - 1) // 2)
    rows = [(c, _monomial_identity(key).terms) for key, c in orbits.items() if c]
    terms = []
    for l in range(depth + 1):
        present = [(c, row[l]) for c, row in rows if l < len(row)]
        lcm = math.lcm(*(p.den for _, p in present))
        acc = [0] * max((len(p.nums) for _, p in present), default=0)
        for c, p in present:
            scale = c * (lcm // p.den)
            for i, x in enumerate(p.nums):
                acc[i] += scale * x
        terms.append(UniPoly._normalised(acc, den * lcm))
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
