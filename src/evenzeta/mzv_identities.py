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
per permutation orbit, keyed on the sorted exponent tuple: the composition
power sums are cached on it, ``block_reduce`` merges the monomials of F
whose block exponents agree up to order, and the combination step builds
one monomial identity per orbit.

The symbolic pipeline (``mzv_identity``, ``mzsv_identity``) is checked
against ``mzv_lhs_exact``, which splits F into monomial symmetric functions
and reads each one's composition sum off a truncated series of elementary
(zeta) or complete (zeta-star) symmetric functions built by ``series`` from
the sinc product.  It shares neither the symmetric-sum theorem nor the
Bernoulli table with the pipeline.  ``mzv_numeric`` evaluates the defining
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

from .checks import CheckResult
from .enumeration import block_shapes
from .polynomials import MultiPoly, UniPoly
from .rationals import GrowableTable, factorial
from .series import symmetric_sum
from .zeta_identities import PiValue, WeightedSumIdentity, _combined_identity, eval_identity_rhs

__all__ = [
    "block_reduce",
    "composition_power_sum",
    "mzsv_identity",
    "mzv_identity",
    "mzv_lhs_exact",
    "mzv_numeric",
    "verify_mzv",
]

#: Composition power sums kept, one per sorted exponent tuple.
_COMPOSITION_CACHE_SIZE = 1 << 12

#: Significant digits of the decimals returned by ``mzv_numeric``.
_DECIMAL_DIGITS = 40

#: Extra decimal places ``mzv_numeric`` first carries beyond 40; doubled
#: until the rounding is certified.
_GUARD_DIGITS = 12

_U_ONE_PLUS_U = UniPoly((0, 1, 1))

#: E_p(u) = theta^p u, by E_{p+1} = u(1+u) E_p'.
_THETA_POWERS = GrowableTable(UniPoly.x(), lambda rows: _U_ONE_PLUS_U * rows[-1].derivative())

#: C(k-1, i) as a polynomial in k, by C(k-1, i) = C(k-1, i-1) (k-i)/i.
_BINOMIALS = GrowableTable(
    UniPoly.one(), lambda rows: rows[-1] * UniPoly((-len(rows), 1)) / len(rows)
)


def composition_power_sum(pvec: Sequence[int]) -> UniPoly:
    """The polynomial in k equal, for every integer k >= 1, to

        sum_{k_1+...+k_n = k, k_j >= 1} k_1^{p_1} ... k_n^{p_n}

    (zero when k < n).  It is sum_m c_m C(k-1, m-1), with c_m the
    coefficients of the product of the theta-power polynomials E_{p_j}(u)
    (see the module docstring).  Permuting the exponents permutes the
    compositions, so the sum depends only on the orbit of ``pvec``: it is
    built once per sorted exponent tuple and cached on that key.
    """
    pvec = tuple(operator.index(p) for p in pvec)
    if not pvec:
        raise ValueError("need at least one exponent")
    if any(p < 0 for p in pvec):
        raise ValueError(f"exponents must be >= 0, got {pvec}")
    return _sorted_power_sum(tuple(sorted(pvec)))


@lru_cache(maxsize=_COMPOSITION_CACHE_SIZE)
def _sorted_power_sum(pvec: tuple[int, ...]) -> UniPoly:
    counts = math.prod((_THETA_POWERS.value(p) for p in pvec), start=UniPoly.one())
    return UniPoly.dot(
        (UniPoly.constant(c), _BINOMIALS.value(m - 1)) for m, c in enumerate(counts.nums) if c
    )


def block_reduce(F: MultiPoly, shape: Sequence[int]) -> MultiPoly:
    """Collapse an arity-n polynomial to one variable per block.

    Blocks take consecutive positions: with shape (l_1, ..., l_i), variable j
    of the result stands for the block total t_j, and the coefficient of the
    result at (t_1, ..., t_i) is the sum of F over all ways of splitting each
    t_j into l_j positive parts.  For symmetric F the outcome is independent
    of which positions form each block, so consecutive blocks lose no
    generality.  Degree can only grow: deg G <= deg F + n - i.

    Each block of a monomial collapses to the composition power sum of its
    exponents, which depends only on their orbit.  So the numerators of F
    are first merged on the tuple of their sorted block exponents, and each
    merged monomial is expanded once, on the integer numerators of the power
    sums over the lcm of their denominators, into one dict of numerators.
    """
    shape = tuple(operator.index(l) for l in shape)
    if not shape or any(l < 1 for l in shape):
        raise ValueError(f"shape must consist of positive integers, got {shape}")
    if sum(shape) != F.arity:
        raise ValueError(f"shape {shape} does not cover arity {F.arity}")
    ends = list(itertools.accumulate(shape))
    spans = list(zip([0, *ends], ends))
    merged: dict[tuple[tuple[int, ...], ...], int] = {}
    for expts, c in F.nums.items():
        key = tuple(tuple(sorted(expts[a:b])) for a, b in spans)
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
            acc[powers] = acc.get(powers, 0) + y
    return MultiPoly._normalised(acc, F.den * den, len(shape))


def _shape_weight(shape: tuple[int, ...], signed: bool) -> Fraction:
    """eps_lambda / z_lambda for the block shape lambda (module docstring)."""
    centraliser = math.prod(shape) * math.prod(map(factorial, Counter(shape).values()))
    return Fraction(-1 if signed and (sum(shape) - len(shape)) % 2 else 1, centraliser)


def _symmetric_sum_identity(F: MultiPoly, n: int, kind: str) -> WeightedSumIdentity:
    if not isinstance(F, MultiPoly):
        raise TypeError(f"expected a MultiPoly weight, got {type(F).__name__}")
    if F.arity != n:
        raise ValueError(f"weight polynomial has arity {F.arity}, expected {n}")
    if not F.is_symmetric():
        raise ValueError(f"weight polynomial must be symmetric, got {F.render()}")
    reduced = [
        (_shape_weight(shape, signed=kind == "mzv"), block_reduce(F, shape))
        for shape in block_shapes(n)
    ]
    den = math.lcm(*(weight.denominator * G.den for weight, G in reduced))
    parts = [
        (expts, c * weight.numerator * (den // (weight.denominator * G.den)))
        for weight, G in reduced
        for expts, c in G.nums.items()
    ]
    return _combined_identity(kind, n, parts, den, F)


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


def mzv_lhs_exact(F: MultiPoly, n: int, k: int, star: bool = False) -> PiValue:
    """Exact composition sum of F(k_1..k_n) * zeta(2k_1, ..., 2k_n), or the
    zeta-star analogue when ``star``; F must be symmetric.

    F is the sum of c_mu * m_mu over the monomial symmetric functions m_mu,
    with c_mu the coefficient of its nonincreasing exponent tuple.  Each
    m_mu's composition sum is one coefficient of the series of
    ``series.symmetric_sum``, which never touches the identity pipeline, so
    this serves as an independent cross-check of it.
    """
    if F.arity != n:
        raise ValueError(f"weight polynomial has arity {F.arity}, expected {n}")
    if not F.is_symmetric():
        raise ValueError(f"weight polynomial must be symmetric, got {F.render()}")
    if k < n:
        raise ValueError(f"need k >= n = {n}, got {k}")
    total = Fraction(0)
    for expts, c in F.nums.items():
        if all(a >= b for a, b in zip(expts, expts[1:])):
            total += c * symmetric_sum([e for e in expts if e], n, k, star)
    return PiValue(k, total / F.den)


def verify_mzv(
    F: MultiPoly,
    n: int,
    k: int,
    star: bool = False,
    identity: WeightedSumIdentity | None = None,
) -> CheckResult:
    """Cross-check the identity pipeline against the independent evaluator."""
    if identity is None:
        identity = mzsv_identity(F, n) if star else mzv_identity(F, n)
    left = mzv_lhs_exact(F, n, k, star=star)
    right = eval_identity_rhs(identity, k)
    name = "mzsv" if star else "mzv"
    return CheckResult(
        ok=left == right,
        label=f"{name} weighted sum F={F.render()} n={n} k={k}",
        lhs=str(left),
        rhs=str(right),
    )


def _to_decimal(value: Fraction) -> Decimal:
    with decimal.localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        return Decimal(value.numerator) / Decimal(value.denominator)


def _nested_sum_bracket(kvec: tuple[int, ...], bound: int, scale: int) -> tuple[int, int]:
    """Integers lo <= S * scale <= hi for the truncated nested sum S.

    Level by level from the innermost argument, the prefix sums
    sum_{j <= m} prev[j - 1] / j^k are carried twice: once with every
    quotient floored and once with every quotient ceiled.  All terms are
    nonnegative, so the floor chain stays below the exact scaled sums and the
    ceiling chain above them; the gap grows by at most one unit per term.
    """
    lo = hi = [scale] * bound  # the empty inner sum is 1
    for exponent in reversed(kvec):
        lo_next, hi_next = [0], [0]
        lo_run = hi_run = 0
        for m in range(1, bound + 1):
            power = m**exponent
            lo_run += lo[m - 1] // power
            hi_run -= -hi[m - 1] // power
            lo_next.append(lo_run)
            hi_next.append(hi_run)
        lo, hi = lo_next, hi_next
    return lo[bound], hi[bound]


def mzv_numeric(kvec: Sequence[int], bound: int) -> tuple[Decimal, Decimal]:
    """Partial sum of zeta(k_1, ..., k_n) = sum over m_1 > ... > m_n >= 1 of
    1/(m_1^{k_1} ... m_n^{k_n}), truncated at m_1 <= bound, as a Decimal,
    together with a tail estimate.

    The partial sum is correctly rounded (round-half-even) to 40 significant
    digits.  It is bracketed in fixed point with 40 + guard decimal places by
    ``_nested_sum_bracket``; rounding is monotone, so when both ends of the
    bracket round to the same digits the exact sum does too.  Otherwise the
    guard digits are doubled and the sum redone.
    The tail estimate is (1645/1000)^(n-1) * bound^(1-k_1), a genuine bound
    when every argument is >= 2 (1.645 > zeta(2) dominates each inner sum).
    The word must be admissible: k_1 >= 2.
    """
    kvec = tuple(operator.index(k) for k in kvec)
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
