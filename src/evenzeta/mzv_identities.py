"""Weighted sum identities for multiple zeta and zeta-star values with even
arguments.

The symmetric sum of zeta(2k_{sigma(1)}, ..., 2k_{sigma(n)}) over all
orderings sigma equals a signed sum over set partitions of {1..n} of products
of single zeta values: each partition Pi = {P_1, ..., P_i} contributes
(-1)^(n-i) * prod_j (|P_j| - 1)! times prod_j zeta(2 * sum_{l in P_j} k_l),
and the zeta-star analogue drops the sign.  For a *symmetric* weight
polynomial F this turns every weighted composition sum of multiple zeta
values into a combination of the single-zeta identities, one per block shape
lambda.  Divided by the n! orderings, the partitions of shape lambda weigh
eps_lambda / z_lambda together, where z_lambda = prod_j l_j * prod_c m_c!
(m_c the number of blocks of size c) is the centraliser order of the cycle
type lambda, and eps_lambda = (-1)^(n - len(lambda)) for zeta values (1 for
zeta-star).  The weight collapses block by block to exact composition power
sums, and the monomials of every collapsed weight, each scaled by its
shape's weight, go through the same combination step as a single-zeta
identity.

A composition power sum is counted off a generating function.  With
u = x/(1-x) and theta = x d/dx = u(1+u) d/du, sum_{a>=1} a^p x^a = theta^p u,
an integer polynomial E_p(u); and [x^k] u^m = C(k-1, m-1).  So the sum over
k_1 + ... + k_n = k of k_1^{p_1} ... k_n^{p_n} is sum_m c_m C(k-1, m-1), with
c_m the coefficients of E_{p_1}(u) ... E_{p_n}(u).

Every piece of that work is symmetric in its exponents, so it is done once
per permutation orbit, keyed on the sorted exponent tuple, and the
composition power sums are cached on it.  ``_orbit_split`` goes from F
straight to orbit sums in one pass per block shape: it merges the monomials
of F on their sorted blocks, with blocks of equal size unordered, expands
each merged key's power sums straight into sorted exponent tuples (both in
``_collapse``), and adds every shape, scaled by 1/z_lambda, into one of two
dicts of orbit numerators over one lcm: E for the shapes with n - len(lambda)
even, O for the odd ones.  The mzv sum is E - O and the mzsv sum E + O, so
the pair is cached per weight and the two kinds of one weight share one
collapse.  The combination step builds one monomial identity per orbit.

The depth T of the result is the largest truncation depth over the orbits
present, those whose sums cancel included, and equals
max((deg F + n - 2) // 2, (n - 1) // 2).  The shape (1, ..., 1) reproduces F
itself, so the orbit of F's top degree is present, with a nonzero sum
because F is symmetric (every monomial of the orbit has one coefficient).
A shape with i blocks gives orbits of length i and degree at most
deg F + n - i, whose depth is at most (deg F + n - 2) // 2 or
(i - 1) // 2 <= (n - 1) // 2.  A zero weight has no orbits and takes
(n - 1) // 2.

The symbolic pipeline (``mzv_identity``, ``mzsv_identity``) is checked
against ``mzv_lhs_exact``, which splits F into monomial symmetric functions
and reads each one's composition sum off a truncated series of elementary
(zeta) or complete (zeta-star) symmetric functions built by ``series`` from
the sinc product.  It shares neither the symmetric-sum theorem nor the
Bernoulli table with the pipeline.  Both sides at k are compared as their
``Fraction`` coefficients of pi^(2k).  ``mzv_numeric`` evaluates the defining
nested series to high precision.
"""

from __future__ import annotations

import decimal
import itertools
import math
import operator
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .enumeration import block_shapes
from .polynomials import MultiPoly, UniPoly
from .rationals import GrowableTable
from .series import _combine, _symmetric_sums
from .zeta_identities import WeightedSumIdentity, _combined_identity

__all__ = [
    "mzsv_identity",
    "mzv_identity",
    "mzv_lhs_exact",
    "mzv_numeric",
]

#: Composition power sums kept, one per sorted exponent tuple.
_COMPOSITION_CACHE_SIZE = 1 << 12

#: Orbit splits kept, one per symmetric weight, so that the mzv and mzsv
#: identities of a weight share one collapse.
_ORBIT_CACHE_SIZE = 1 << 8

#: Significant digits of the decimals returned by ``mzv_numeric``.
_DECIMAL_DIGITS = 40

#: Extra decimal places ``mzv_numeric`` first carries beyond 40; doubled
#: until the rounding is certified.  The bracket is depth * bound units
#: wide; with 16, tiny deep sums such as (5, 4, 4, 2, 2, 2) at bound 1000
#: are certified in one pass.
_GUARD_DIGITS = 16

_U_ONE_PLUS_U = UniPoly((0, 1, 1))

#: E_p(u) = theta^p u, by E_{p+1} = u(1+u) E_p'.
_THETA_POWERS = GrowableTable(UniPoly.x(), lambda rows: _U_ONE_PLUS_U * rows[-1].derivative())

#: C(k-1, i) as a polynomial in k, by C(k-1, i) = C(k-1, i-1) (k-i)/i.
_BINOMIALS = GrowableTable(
    UniPoly.one(), lambda rows: rows[-1] * UniPoly((-len(rows), 1)) / len(rows)
)


@lru_cache(maxsize=_COMPOSITION_CACHE_SIZE)
def _sorted_power_sum(pvec: tuple[int, ...]) -> UniPoly:
    """The polynomial in k equal, for every integer k >= 1, to

        sum_{k_1+...+k_n = k, k_j >= 1} k_1^{p_1} ... k_n^{p_n}

    (zero when k < n), for a nonempty sorted tuple of exponents >= 0.  It
    is sum_m c_m C(k-1, m-1), with c_m the coefficients of the product of
    the E_{p_j}(u) (see the module docstring).
    """
    counts = math.prod((_THETA_POWERS.value(p) for p in pvec), start=UniPoly.one())
    return UniPoly.dot(
        (UniPoly.constant(c), _BINOMIALS.value(m - 1)) for m, c in enumerate(counts.nums) if c
    )


def _collapse(F: MultiPoly, shape: tuple[int, ...]) -> tuple[dict[tuple[int, ...], int], int]:
    """The numerators of F collapsed onto the blocks of ``shape``, over
    F.den times the returned denominator, keyed on the sorted exponents of
    the block totals: a block of l consecutive positions stands for its
    total t, with F summed over every split of t into l positive parts.  For
    symmetric F, which positions form each block does not matter.

    Each block of a monomial collapses to the composition power sum of its
    exponents, which depends only on their orbit.  So the numerators of F
    are first merged on the sorted tuple of their sorted blocks, which
    merges blocks of equal size up to order (blocks of different sizes never
    compare equal).  Each merged key is expanded once, on the integer
    numerators of its power sums over the lcm of their denominators.
    """
    ends = list(itertools.accumulate(shape))
    spans = list(zip([0, *ends], ends))
    merged: dict[tuple[tuple[int, ...], ...], int] = {}
    for expts, c in F.nums.items():
        key = tuple(sorted([tuple(sorted(expts[a:b])) for a, b in spans]))
        merged[key] = merged.get(key, 0) + c
    factors = [
        (c, [_sorted_power_sum(block) for block in key]) for key, c in merged.items() if c
    ]
    dens = [math.prod(factor.den for factor in row) for _, row in factors]
    den = math.lcm(*dens)
    acc: dict[tuple[int, ...], int] = {}
    for (c, row), row_den in zip(factors, dens):
        # Expanded block by block, so each partial product is formed once.
        expansion = {(): c * (den // row_den)}
        for factor in row:
            expansion = {
                powers + (power,): y * x
                for powers, y in expansion.items()
                for power, x in enumerate(factor.nums)
                if x
            }
        for powers, y in expansion.items():
            powers = tuple(sorted(powers))
            acc[powers] = acc.get(powers, 0) + y
    return acc, den


def _shape_weight(shape: tuple[int, ...], signed: bool) -> Fraction:
    """eps_lambda / z_lambda for the block shape lambda (module docstring)."""
    centraliser = math.prod(shape) * math.prod(map(math.factorial, Counter(shape).values()))
    return Fraction(-1 if signed and (sum(shape) - len(shape)) % 2 else 1, centraliser)


@lru_cache(maxsize=_ORBIT_CACHE_SIZE)
def _orbit_split(F: MultiPoly) -> tuple[tuple, tuple, int]:
    """(E, O, den) of a symmetric F of arity n: every block shape lambda's
    ``_collapse``, scaled by 1/z_lambda, summed into orbit numerators over
    F.den * den, in E when n - len(lambda) is even and in O when it is odd,
    each as (exponents, numerator) pairs; a key whose sum cancels is kept."""
    collapsed = [
        (_shape_weight(shape, signed=True), *_collapse(F, shape)) for shape in block_shapes(F.arity)
    ]
    den = math.lcm(*(weight.denominator * shape_den for weight, _, shape_den in collapsed))
    even: dict[tuple[int, ...], int] = {}
    odd: dict[tuple[int, ...], int] = {}
    for weight, acc, shape_den in collapsed:
        orbits = odd if weight < 0 else even
        scale = den // (weight.denominator * shape_den)
        for key, c in acc.items():
            orbits[key] = orbits.get(key, 0) + c * scale
    return tuple(even.items()), tuple(odd.items()), den


def _symmetric_sum_identity(F: MultiPoly, n: int, kind: str) -> WeightedSumIdentity:
    if not isinstance(F, MultiPoly):
        raise TypeError(f"expected a MultiPoly weight, got {type(F).__name__}")
    if F.arity != n:
        raise ValueError(f"weight polynomial has arity {F.arity}, expected {n}")
    if not F.is_symmetric():
        raise ValueError(f"weight polynomial must be symmetric, got {F.render()}")
    even, odd, den = _orbit_split(F)
    sign = -1 if kind == "mzv" else 1
    # _combined_identity sums the pairs of one orbit, so E and O need no merge.
    nums = itertools.chain(even, ((key, sign * c) for key, c in odd))
    return _combined_identity(kind, n, nums, F.den * den, F)


def mzv_identity(F: MultiPoly, n: int) -> WeightedSumIdentity:
    """Collapsed identity for sum over compositions of F(k_1..k_n) *
    zeta(2k_1, ..., 2k_n); F must be symmetric.

    For k >= n the multiple-zeta composition sum equals terms[0](k) zeta(2k)
    + sum_{l=1}^{min(T,k)} terms[l](k) zeta(2l) zeta(2k-2l).
    """
    return _symmetric_sum_identity(F, n, "mzv")


def mzsv_identity(F: MultiPoly, n: int) -> WeightedSumIdentity:
    """Zeta-star analogue of ``mzv_identity`` (non-strict nesting)."""
    return _symmetric_sum_identity(F, n, "mzsv")


def mzv_lhs_exact(F: MultiPoly, n: int, k: int, star: bool = False) -> Fraction:
    """Exact composition sum of F(k_1..k_n) * zeta(2k_1, ..., 2k_n), or the
    zeta-star analogue when ``star``, as its coefficient of pi^(2k); F must
    be symmetric.

    F is the sum of c_mu * m_mu over the monomial symmetric functions m_mu,
    with c_mu the coefficient of its nonincreasing exponent tuple.  Each
    m_mu's composition sum is one coefficient of the series of
    ``series.symmetric_sum``, which never touches the identity pipeline, so
    this serves as an independent cross-check of it.
    """
    return _mzv_lhs_grid(F, n, (k,), star)[0]


def _mzv_lhs_grid(F: MultiPoly, n: int, ks: Sequence[int], star: bool = False) -> list[Fraction]:
    """``mzv_lhs_exact`` at each k of ``ks``: F checked and split into c_mu once."""
    if F.arity != n:
        raise ValueError(f"weight polynomial has arity {F.arity}, expected {n}")
    if not F.is_symmetric():
        raise ValueError(f"weight polynomial must be symmetric, got {F.render()}")
    if min(ks, default=n) < n:
        raise ValueError(f"need k >= n = {n}, got {min(ks)}")
    ordered = ((e, c) for e, c in F.nums.items() if all(a >= b for a, b in zip(e, e[1:])))
    parts = ((c, _symmetric_sums([p for p in e if p], n, ks, star)) for e, c in ordered)
    return _combine(parts, len(ks), F.den)


def _to_decimal(value: Fraction) -> Decimal:
    with decimal.localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        return Decimal(value.numerator) / Decimal(value.denominator)


def _nested_sum_bracket(kvec: tuple[int, ...], bound: int, scale: int) -> tuple[int, int]:
    """Integers lo <= S * scale < hi = lo + len(kvec) * bound for the
    truncated nested sum S.

    Level by level from the innermost argument, the prefix sums
    sum_{j <= m} prev[j - 1] / j^k are carried with every quotient floored,
    so lo never exceeds the exact scaled sum.  Each floor loses less than one
    unit, and a deficit below (level - 1) * (j - 1) divided by j^k >= j stays
    below level - 1, so the deficit at level l and index m is below l * m.
    """
    lo = [scale] * bound  # the empty inner sum is 1
    for exponent in reversed(kvec):
        powers = [m**exponent for m in range(1, bound + 1)]
        lo = [0, *itertools.accumulate(map(operator.floordiv, lo, powers))]
    return lo[bound], lo[bound] + len(kvec) * bound


def mzv_numeric(kvec: Sequence[int], bound: int) -> tuple[Decimal, Decimal]:
    """Partial sum of zeta(k_1, ..., k_n) = sum over m_1 > ... > m_n >= 1 of
    1/(m_1^{k_1} ... m_n^{k_n}), truncated at m_1 <= bound, as a Decimal,
    together with a tail estimate.

    The partial sum is correctly rounded (round-half-even) to 40 significant
    digits.  It is bracketed in fixed point with 40 + guard decimal places by
    ``_nested_sum_bracket``, one floor chain whose deficit is below
    depth * bound units; rounding is monotone, so when both ends of the
    bracket round to the same digits the exact sum does too.  Otherwise the
    guard digits are doubled and the sum redone.
    The tail estimate is (1645/1000)^(n-1) * bound^(1-k_1), a genuine bound
    when every argument is >= 2 (1.645 > zeta(2) dominates each inner sum).
    The word must be admissible: k_1 >= 2.
    """
    kvec = tuple(operator.index(k) for k in kvec)
    bound = operator.index(bound)
    if not kvec or any(k < 1 for k in kvec):
        raise ValueError(f"arguments must be positive integers, got {kvec}")
    if kvec[0] < 2:
        raise ValueError(f"inadmissible word: first argument must be >= 2, got {kvec[0]}")
    if bound < 10:
        raise ValueError(f"truncation bound must be at least 10, got {bound}")
    guard = _GUARD_DIGITS
    while True:
        scale = 10 ** (_DECIMAL_DIGITS + guard)
        lo, hi = _nested_sum_bracket(kvec, bound, scale)
        partial = _to_decimal(Fraction(lo, scale))
        # Compare digit tuples, not values: 0.5 and 0.5000 are equal values.
        if partial.as_tuple() == _to_decimal(Fraction(hi, scale)).as_tuple():
            break
        guard = max(2 * guard, 1)
    tail = Fraction(1645, 1000) ** (len(kvec) - 1) * Fraction(1, bound ** (kvec[0] - 1))
    return partial, _to_decimal(tail)
