"""Even-argument zeta values as exact multiples of powers of pi, and the
weighted sum identities for products zeta(2k_1) ... zeta(2k_n).

A product of zeta values at even arguments with argument total 2k is an exact
rational multiple of pi^(2k); ``PiValue`` carries the (weight, coefficient)
pair so every evaluation in this module stays exact.  The identities rewrite
power-weighted composition sums of such products as short combinations over
the basis zeta(2l) * zeta(2k-2l), with the l = 0 coefficient normalised to
multiply plain zeta(2k).  The formal value zeta(0) = -1/2 extends the
composition sums to index value 0 and is what that normalisation folds in.

The identity for a monomial weight is the rescaled Bernoulli identity of
``bernoulli_sums``; every other zeta, mzv or mzsv identity is a linear
combination of monomial identities, formed by ``_combined_identity``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .bernoulli_sums import _collapsed_sum, _depth, _validated_mvec, bernoulli_identity
from .checks import CheckResult
from .polynomials import MultiPoly, Scalar, UniPoly
from .rationals import bernoulli, factorial
from .series import composition_sum

__all__ = [
    "PiValue",
    "WeightedSumIdentity",
    "eval_identity_rhs",
    "eval_zeta_lhs",
    "verify_zeta",
    "zeta_even",
    "zeta_identity_monomial",
    "zeta_identity_poly",
]

#: Entries kept by the ``zeta_even`` cache: zeta(2j) for every j a run asks
#: for.  The benchmark workloads ask for at most 16.
_ZETA_EVEN_CACHE_SIZE = 256

#: Monomial identities kept by the cache behind every zeta, mzv and mzsv
#: identity, one per sorted exponent tuple.
_MONOMIAL_CACHE_SIZE = 1 << 10


@dataclass(frozen=True, eq=False)
class PiValue:
    """Exact rational multiple of an even power of pi: coeff * pi^(2*weight).

    Addition requires matching weights unless one side is zero; zero compares
    equal across weights.
    """

    weight: int
    coeff: Fraction

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"weight must be >= 0, got {self.weight}")
        if not isinstance(self.coeff, Fraction):
            if not isinstance(self.coeff, int):
                raise TypeError(f"coefficient must be rational, got {type(self.coeff).__name__}")
            object.__setattr__(self, "coeff", Fraction(self.coeff))

    @staticmethod
    def zero(weight: int) -> "PiValue":
        return PiValue(weight, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeff

    def __add__(self, other: "PiValue") -> "PiValue":
        if not isinstance(other, PiValue):
            return NotImplemented
        if not other.coeff:
            return self
        if not self.coeff:
            return other
        if self.weight != other.weight:
            raise ValueError(
                f"cannot add pi^{2 * self.weight} and pi^{2 * other.weight} multiples"
            )
        return PiValue(self.weight, self.coeff + other.coeff)

    def __sub__(self, other: "PiValue") -> "PiValue":
        if not isinstance(other, PiValue):
            return NotImplemented
        return self + PiValue(other.weight, -other.coeff)

    def __neg__(self) -> "PiValue":
        return PiValue(self.weight, -self.coeff)

    def __mul__(self, other: "PiValue | Scalar") -> "PiValue":
        if isinstance(other, PiValue):
            return PiValue(self.weight + other.weight, self.coeff * other.coeff)
        if isinstance(other, (int, Fraction)):
            return PiValue(self.weight, self.coeff * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PiValue):
            return NotImplemented
        if not self.coeff and not other.coeff:
            return True
        return self.weight == other.weight and self.coeff == other.coeff

    def __hash__(self) -> int:
        if not self.coeff:
            return hash(("PiValue", 0))
        return hash(("PiValue", self.weight, self.coeff))

    def __bool__(self) -> bool:
        return bool(self.coeff)

    def __str__(self) -> str:
        if not self.coeff or self.weight == 0:
            return str(self.coeff)
        return f"({self.coeff})*pi^{2 * self.weight}"

    def __repr__(self) -> str:
        return f"PiValue(weight={self.weight}, coeff={self.coeff})"


@lru_cache(maxsize=_ZETA_EVEN_CACHE_SIZE)
def zeta_even(j: int) -> PiValue:
    """zeta(2j) as an exact multiple of pi^(2j); zeta(0) is the formal -1/2.

    For j >= 1: zeta(2j) = (-1)^(j+1) * B_{2j} * 2^(2j) / (2 * (2j)!) * pi^(2j).
    """
    if j < 0:
        raise ValueError(f"argument index must be >= 0, got {j}")
    if j == 0:
        return PiValue(0, Fraction(-1, 2))
    coeff = (-1) ** (j + 1) * bernoulli(2 * j) * Fraction(2 ** (2 * j), 2 * factorial(2 * j))
    return PiValue(j, coeff)


@dataclass(frozen=True)
class WeightedSumIdentity:
    """Collapsed side of a weighted sum identity over zeta(2l) * zeta(2k-2l).

    ``terms[l]`` is the polynomial coefficient of zeta(2l) * zeta(2k-2l); the
    l = 0 entry is normalised to multiply plain zeta(2k).  ``kind`` states
    which left side the identity collapses: products of single zeta values
    ("zeta"), multiple zeta values ("mzv"), or zeta-star values ("mzsv").
    Exactly one of ``mvec`` (monomial weight) and ``poly`` (weight
    polynomial) is set.
    """

    kind: str
    n: int
    T: int
    terms: tuple[UniPoly, ...]
    mvec: tuple[int, ...] | None = None
    poly: MultiPoly | None = None


@lru_cache(maxsize=_MONOMIAL_CACHE_SIZE)
def _monomial_identity(mvec: tuple[int, ...]) -> WeightedSumIdentity:
    # Called with sorted exponents only: permuting them permutes the
    # compositions, so every ordering has the identity of its sorted form.
    # Substituting B_{2j}/(2j)! = (-1)^(j+1) * 2 * zeta(2j) / (2 pi)^(2j) into
    # the Bernoulli identity rescales p_l by (-1)^n 2^(2-n) (2l)!/B_{2l}; the
    # l = 0 entry also takes zeta(0) = -1/2 to multiply plain zeta(2k).
    base = bernoulli_identity(mvec)
    n = len(mvec)
    sign = Fraction((-1) ** n) * Fraction(2) ** (2 - n)
    terms = []
    for l, poly in enumerate(base.rhs):
        scale = sign * factorial(2 * l) / bernoulli(2 * l)
        if l == 0:
            scale = scale * Fraction(-1, 2)
        terms.append(poly * scale)
    return WeightedSumIdentity(kind="zeta", n=n, T=base.T, terms=tuple(terms), mvec=mvec)


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
    return identity if identity.mvec == mvec else replace(identity, mvec=mvec)


def zeta_identity_poly(F: MultiPoly, n: int) -> WeightedSumIdentity:
    """Identity for an arbitrary weight polynomial F(x1..xn), assembled as the
    linear combination of the monomial identities.  No symmetry is required.
    """
    if not isinstance(F, MultiPoly):
        raise TypeError(f"expected a MultiPoly weight, got {type(F).__name__}")
    if F.arity != n:
        raise ValueError(f"weight polynomial has arity {F.arity}, expected {n}")
    return _combined_identity("zeta", n, F.nums.items(), F.den, F)


def eval_zeta_lhs(F: MultiPoly, n: int, k: int) -> PiValue:
    """Exact left side: sum over compositions of F(k_1..k_n) * zeta(2k_1) ...
    zeta(2k_n).  Always a rational multiple of pi^(2k).

    Each monomial's sum is [t^k] of a product of the series
    sum_a a^{m_j} zeta(2a)/pi^(2a) t^a (``series.composition_sum``), with
    zeta values from the sinc product rather than ``zeta_even``.  No
    symmetry is required.
    """
    if F.arity != n:
        raise ValueError(f"weight polynomial has arity {F.arity}, expected {n}")
    if k < n:
        raise ValueError(f"need k >= n = {n}, got {k}")
    total = sum(
        (c * composition_sum("zeta", expts, k) for expts, c in F.nums.items()), Fraction(0)
    )
    return PiValue(k, total / F.den)


def eval_identity_rhs(identity: WeightedSumIdentity, k: int) -> PiValue:
    """Exact value of the collapsed side at an integer k >= 1, truncating the
    sum at l = min(T, k).  The coefficient of pi^(2k) is summed by
    ``bernoulli_sums._collapsed_sum`` over one running denominator."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return PiValue(k, _collapsed_sum(identity.terms[: min(identity.T, k) + 1], k, _zeta_basis))


def _zeta_basis(k: int, l: int) -> tuple[int, int]:
    """The pi^(2k) coefficient of zeta(2l) zeta(2k-2l), or of zeta(2k) for
    l = 0, as an unreduced (numerator, denominator) pair."""
    if l == 0:
        value = zeta_even(k).coeff
        return value.numerator, value.denominator
    left, right = zeta_even(l).coeff, zeta_even(k - l).coeff
    return left.numerator * right.numerator, left.denominator * right.denominator


def _check_identity(identity: WeightedSumIdentity, kind: str, n: int) -> None:
    """Raise ``ValueError`` unless ``identity`` is of ``kind`` at depth n."""
    if identity.kind != kind or identity.n != n:
        raise ValueError(f"identity is for {identity.kind} n={identity.n}, not {kind} n={n}")


def verify_zeta(
    F: MultiPoly, n: int, k: int, identity: WeightedSumIdentity | None = None
) -> CheckResult:
    """Compare the series zeta-product sum against the collapsed side.

    A given ``identity`` must be a zeta identity at depth n; otherwise
    ``ValueError`` is raised before anything is evaluated.
    """
    if identity is None:
        identity = zeta_identity_poly(F, n)
    else:
        _check_identity(identity, "zeta", n)
    left = eval_zeta_lhs(F, n, k)
    right = eval_identity_rhs(identity, k)
    return CheckResult(
        ok=left == right,
        label=f"zeta weighted sum F={F.render()} n={n} k={k}",
        lhs=str(left),
        rhs=str(right),
    )
