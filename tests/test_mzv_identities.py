"""Multiple zeta value identities and the numeric spot check.

Two independent oracles appear here: `mzv_lhs_exact` (truncated series of
symmetric functions from `evenzeta.series`, no pipeline code) for the
symbolic side, and plain Fraction summation for the numeric partial sums.
`tests/test_series.py` checks `mzv_lhs_exact` against the composition and
set-partition loops of `brute_force.py`.  At k = n, for every depth the CLI
admits, both sides also meet `two_string`: zeta({2}^n) and zeta*({2}^n)
from the sinc product alone, which needs neither the series kernel nor the
pipeline.
"""

import itertools
import math
import random
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute_force
from brute_force import compositions, partition_shape, set_partitions, weight_value
from evenzeta import (
    MultiPoly,
    UniPoly,
    block_reduce,
    block_shapes,
    composition_power_sum,
    eval_identity_rhs,
    max_parse_degree,
    mzsv_identity,
    mzv_identity,
    mzv_lhs_exact,
    mzv_numeric,
    parse_poly,
    suites,
    verify_mzv,
    zeta_even,
    zeta_identity_poly,
)
from evenzeta.cli import MAX_MZV_DEPTH
from evenzeta.mzv_identities import _shape_weight

K = UniPoly.x()


class TestShapeWeights:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_set_partition_sum(self, n):
        # A set partition {P_1, ..., P_i} of {1..n} carries
        # prod_j (|P_j| - 1)! / n!, signed by (-1)^(n-i) for zeta; those of
        # one shape add up to that shape's weight.
        totals = {}
        for partition in set_partitions(n):
            shape = partition_shape(partition)
            share = Fraction(math.prod(math.factorial(len(b) - 1) for b in partition), math.factorial(n))
            totals[shape] = totals.get(shape, 0) + share
        assert sorted(totals) == sorted(block_shapes(n))
        for shape, total in totals.items():
            assert _shape_weight(shape, signed=False) == total
            assert _shape_weight(shape, signed=True) == (-1) ** (n - len(shape)) * total


@lru_cache(maxsize=None)
def split_sum(pvec, k):
    """sum_{k_1+...+k_n = k, k_j >= 1} k_1^{p_1} ... k_n^{p_n}, by splitting
    off the first part."""
    if len(pvec) == 1:
        return k ** pvec[0]
    return sum(a ** pvec[0] * split_sum(pvec[1:], k - a) for a in range(1, k))


def brute_power_sum_2(p1, p2, k):
    return sum(Fraction(i) ** p1 * Fraction(k - i) ** p2 for i in range(1, k))


class TestPowerSum2:
    """Two-part composition power sums."""

    def test_closed_forms(self):
        assert composition_power_sum((0, 0)) == K - 1
        assert composition_power_sum((1, 0)) == K * (K - 1) / 2
        assert composition_power_sum((0, 1)) == K * (K - 1) / 2
        assert composition_power_sum((1, 1)) == (K**3 - K) / 6

    def test_brute_force_grid(self):
        for p1 in range(6):
            for p2 in range(6):
                poly = composition_power_sum((p1, p2))
                for k in range(1, 31):
                    assert poly(k) == brute_power_sum_2(p1, p2, k)

    def test_degree_and_leading(self):
        for p1 in range(6):
            for p2 in range(6):
                poly = composition_power_sum((p1, p2))
                assert poly.degree() == p1 + p2 + 1
                expected = Fraction(
                    math.factorial(p1) * math.factorial(p2), math.factorial(p1 + p2 + 1)
                )
                assert poly.leading() == expected

    def test_vanishes_at_one(self):
        for p1 in range(5):
            for p2 in range(5):
                assert composition_power_sum((p1, p2))(1) == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            composition_power_sum((-1, 0))


class TestCompositionPowerSum:
    def test_closed_forms(self):
        assert composition_power_sum((0,)) == UniPoly.one()
        assert composition_power_sum((0, 0)) == K - 1
        assert composition_power_sum((0, 0, 0)) == (K - 1) * (K - 2) / 2

    def test_brute_force(self):
        for pvec in [(1,), (2, 0), (1, 1), (0, 2, 1), (1, 0, 0, 2)]:
            poly = composition_power_sum(pvec)
            n = len(pvec)
            for k in range(1, 13):
                brute = sum(
                    (prod_powers(comp, pvec) for comp in compositions(k, n)),
                    start=Fraction(0),
                )
                assert poly(k) == brute

    def test_vanishes_below_depth(self):
        for pvec in [(0, 0), (1, 2), (0, 1, 0), (2, 0, 0, 1)]:
            poly = composition_power_sum(pvec)
            for k in range(1, len(pvec)):
                assert poly(k) == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            composition_power_sum(())

    @pytest.mark.parametrize("p", [1.5, "1", Fraction(1)])
    def test_non_integral_exponents_rejected(self, p):
        with pytest.raises(TypeError):
            composition_power_sum((2, p))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_pinned_for_small_tuples(self, n):
        # Degree d = sum(p) + n - 1 and d + 1 brute-force values determine the
        # polynomial; the leading coefficient is prod p_j! / d!.
        for pvec in itertools.combinations_with_replacement(range(9), n):
            if sum(pvec) > 8:
                continue
            poly = composition_power_sum(pvec)
            degree = sum(pvec) + n - 1
            assert poly.degree() == degree, pvec
            assert poly.leading() == Fraction(math.prod(map(math.factorial, pvec)), math.factorial(degree))
            for k in range(n, n + degree + 1):
                assert poly(k) == split_sum(pvec, k), (pvec, k)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=5), st.randoms(use_true_random=False))
    def test_same_for_every_permutation(self, pvec, rng):
        # The cache is keyed on the sorted exponents; each ordering must
        # still equal its own interpolated split sums and its own brute-force sum.
        poly = composition_power_sum(pvec)
        orderings = sorted(set(itertools.permutations(pvec)))
        for pvec_perm in rng.sample(orderings, min(len(orderings), 4)):
            assert composition_power_sum(pvec_perm) == poly
            assert plain_power_sum(pvec_perm) == poly
            n = len(pvec_perm)
            for k in (n, n + 1, n + 3):
                brute = sum(
                    (prod_powers(comp, pvec_perm) for comp in compositions(k, n)),
                    start=Fraction(0),
                )
                assert poly(k) == brute


def plain_power_sum(pvec):
    """Interpolated through the split sums at k = 1..sum(p) + n, enough for
    its degree sum(p) + n - 1."""
    points = range(1, sum(pvec) + len(pvec) + 1)
    result = UniPoly.zero()
    for i in points:
        basis = UniPoly.one()
        for j in points:
            if j != i:
                basis = basis * (K - j) / (i - j)
        result = result + split_sum(tuple(pvec), i) * basis
    return result


def plain_block_reduce(F, shape):
    """Monomial by monomial, block by block, with no merging or caching;
    each block is the interpolated split sum of ``plain_power_sum``.  The
    result is a dict like ``.terms``, formed by the ``brute_force.poly_*``
    dict arithmetic."""
    blocks = len(shape)
    acc = {}
    for expts, coeff in F.terms.items():
        term = {(0,) * blocks: coeff}
        start = 0
        for j, size in enumerate(shape):
            factor = plain_power_sum(expts[start : start + size])
            term = brute_force.poly_mul(
                term,
                {tuple(p if i == j else 0 for i in range(blocks)): c for p, c in enumerate(factor.coeffs)},
            )
            start += size
        acc = brute_force.poly_add(acc, term)
    return acc


def prod_powers(comp, pvec):
    out = Fraction(1)
    for c, p in zip(comp, pvec):
        out *= Fraction(c) ** p
    return out


class TestBlockReduce:
    def test_constant_two_into_one(self):
        # Splitting t into two positive parts: t - 1 ways.
        reduced = block_reduce(parse_poly("1", 2), (2,))
        assert reduced == parse_poly("x1 - 1", 1)

    def test_linear_two_into_one(self):
        # sum over splits of (k_1 + k_2) = t per split: t(t-1).
        reduced = block_reduce(parse_poly("x1 + x2", 2), (2,))
        assert reduced == parse_poly("x1^2 - x1", 1)

    def test_trivial_shape_is_identity(self):
        F = parse_poly("x1^2 + x2^2 + x1*x2", 2)
        assert block_reduce(F, (1, 1)) == F

    def test_matches_direct_split_sum(self):
        # Independent check: sum F over explicit splits of each block total.
        F = parse_poly("x1^2 + x2^2 + x3^2", 3)
        reduced = block_reduce(F, (2, 1))
        for t1 in range(2, 7):
            for t2 in range(1, 5):
                direct = sum(
                    weight_value(F, (a, t1 - a, t2)) for a in range(1, t1)
                )
                assert weight_value(reduced, (t1, t2)) == direct

    @pytest.mark.parametrize(
        "text, n",
        [
            ("x1^2 + x2^2 + x3^2 + x4^2 + x5^2", 5),
            ("(x1 + x2 + x3 + x4 + x5)^2 - 2", 5),
            ("x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4 + 1/3", 4),
            ("x1^3*x2 + x2^3*x1 + x1^3*x3 + x3^3*x1 + x2^3*x3 + x3^3*x2", 3),
            ("x1^2*x2 + 3*x3*x4^3 - x5", 5),
        ],
        ids=["power-sum", "square", "e3", "m31", "asymmetric"],
    )
    def test_matches_plain_expansion(self, text, n):
        F = parse_poly(text, n)
        for shape in block_shapes(n):
            assert block_reduce(F, shape).terms == plain_block_reduce(F, shape), shape

    def test_repeated_block_sizes(self):
        # Shape (2, 2, 1): each pair block takes its own split sum.
        F = parse_poly("x1^2 + x2^2 + x3^2 + x4^2 + x5^2 + x1*x2*x3*x4*x5", 5)
        reduced = block_reduce(F, (2, 2, 1))
        for t1 in range(2, 6):
            for t2 in range(2, 6):
                for t3 in range(1, 4):
                    direct = sum(
                        weight_value(F, (a, t1 - a, b, t2 - b, t3))
                        for a in range(1, t1)
                        for b in range(1, t2)
                    )
                    assert weight_value(reduced, (t1, t2, t3)) == direct

    def test_shape_must_cover(self):
        with pytest.raises(ValueError):
            block_reduce(parse_poly("1", 3), (2,))

    @pytest.mark.parametrize("length", [2.0, "2", Fraction(2)])
    def test_non_integral_shape_rejected(self, length):
        with pytest.raises(TypeError):
            block_reduce(parse_poly("1", 3), (1, length))


class TestIdentityPipeline:
    def test_two_fold_baseline(self):
        identity = mzv_identity(parse_poly("1", 2), 2)
        assert identity.T == 0
        assert identity.terms[0] == UniPoly.constant(Fraction(3, 4))

    def test_two_fold_star(self):
        identity = mzsv_identity(parse_poly("1", 2), 2)
        assert identity.terms[0] == K - Fraction(1, 4)

    def test_four_fold_constant(self):
        identity = mzv_identity(parse_poly("1", 4), 4)
        assert identity.terms[0] == UniPoly.constant(Fraction(35, 64))
        assert identity.terms[1] == UniPoly.constant(Fraction(-5, 16))

        star = mzsv_identity(parse_poly("1", 4), 4)
        assert star.terms[0] == (4 * K - 5) * (8 * K**2 - 20 * K + 3) / 192
        assert star.terms[1] == -(4 * K - 7) / 16

    def test_symmetry_required(self):
        F = parse_poly("x1^2*x2", 2)
        with pytest.raises(ValueError):
            mzv_identity(F, 2)
        with pytest.raises(ValueError):
            mzsv_identity(F, 2)

    def test_kind_recorded(self):
        F = parse_poly("1", 2)
        assert mzv_identity(F, 2).kind == "mzv"
        assert mzsv_identity(F, 2).kind == "mzsv"

    @pytest.mark.parametrize("n", range(1, 6))
    def test_zero_weight(self, n):
        # No block shape contributes a monomial, so the depth falls back to
        # (n - 1) // 2 and every term is zero.
        for build in (mzv_identity, mzsv_identity):
            identity = build(MultiPoly(n), n)
            assert identity.T == (n - 1) // 2
            assert len(identity.terms) == identity.T + 1
            assert all(term.is_zero() for term in identity.terms)


class TestExactLhs:
    def test_depth_two_values(self):
        # zeta(2,2) = pi^4/120 and zeta*(2,2) = zeta(2,2) + zeta(4).
        one = parse_poly("1", 2)
        assert mzv_lhs_exact(one, 2, 2) == Fraction(1, 120)
        assert mzv_lhs_exact(one, 2, 2, star=True) == Fraction(7, 360)

    def test_depth_one_is_plain_zeta(self):
        one = parse_poly("1", 1)
        for k in range(1, 8):
            assert mzv_lhs_exact(one, 1, k) == zeta_even(k)
            assert mzv_lhs_exact(one, 1, k, star=True) == zeta_even(k)

    def test_star_dominates(self):
        # Star sums include the strict sums, so coefficients can only grow.
        one = parse_poly("1", 3)
        for k in range(3, 8):
            strict = mzv_lhs_exact(one, 3, k)
            star = mzv_lhs_exact(one, 3, k, star=True)
            assert star > strict > 0

    def test_domain(self):
        one = parse_poly("1", 2)
        with pytest.raises(ValueError):
            mzv_lhs_exact(one, 2, 1)
        with pytest.raises(ValueError):
            mzv_lhs_exact(parse_poly("x1^2*x2", 2), 2, 4)


class TestCrossPath:
    def test_grid(self):
        weights = {
            1: ["1", "x1"],
            2: ["1", "x1 + x2", "x1*x2"],
            3: ["1", "x1^2 + x2^2 + x3^2"],
        }
        for n, texts in weights.items():
            for text in texts:
                F = parse_poly(text, n)
                for k in range(n, n + 4):
                    for star in (False, True):
                        result = verify_mzv(F, n, k, star=star)
                        assert result.ok, result.describe()

    def test_mismatched_identity_rejected(self):
        # An identity of the other kind or depth is a caller error, not a
        # failed check.
        F = parse_poly("x1 + x2 + x3", 3)
        with pytest.raises(ValueError, match="not mzsv n=3"):
            verify_mzv(F, 3, 5, star=True, identity=mzv_identity(F, 3))
        with pytest.raises(ValueError, match="not mzv n=3"):
            verify_mzv(F, 3, 5, identity=mzv_identity(parse_poly("x1 + x2", 2), 2))

    def test_failure_carries_values(self):
        # terms[0] + 1 adds zeta(2k) to the collapsed side: at n = k = 2 it
        # reads (3/4 + 1)/90 = 7/360 against zeta(2, 2)/pi^4 = 1/120.
        one = parse_poly("1", 2)
        identity = mzv_identity(one, 2)
        bad = replace(identity, terms=(identity.terms[0] + 1, *identity.terms[1:]))
        result = verify_mzv(one, 2, 2, identity=bad)
        assert not result.ok
        assert result.lhs == str(mzv_lhs_exact(one, 2, 2)) == "1/120"
        assert result.rhs == str(eval_identity_rhs(bad, 2)) == "7/360"


def two_string(n, star):
    """zeta({2}^n)/pi^(2n), or zeta*({2}^n)/pi^(2n) when ``star``, from the
    products prod_m (1 + x^2/m^2) = sinh(pi x)/(pi x) and
    prod_m 1/(1 - x^2/m^2) = pi x/sin(pi x): 1/(2n+1)! and [y^(2n)] y/sin y,
    the latter by inverting the series sin y / y term by term."""
    if not star:
        return Fraction(1, math.factorial(2 * n + 1))
    sinc = [Fraction((-1) ** j, math.factorial(2 * j + 1)) for j in range(n + 1)]
    inverse = [Fraction(1)]
    for j in range(1, n + 1):
        inverse.append(-sum(sinc[i] * inverse[j - i] for i in range(1, j + 1)))
    return inverse[n]


class TestAdmittedDepths:
    """Every depth ``identity --kind mzv|mzsv`` admits, over the mzv suite's
    weights, which the suites sample only up to n = 5."""

    def test_two_strings(self):
        assert [two_string(n, False) for n in (1, 2)] == [Fraction(1, 6), Fraction(1, 120)]
        assert [two_string(n, True) for n in (1, 2, 3)] == [
            Fraction(1, 6),
            Fraction(7, 360),
            Fraction(31, 15120),
        ]

    @pytest.mark.parametrize("n", range(1, MAX_MZV_DEPTH + 1))
    def test_lowest_k_against_the_two_string(self, n):
        # At k = n every composition is (1, ..., 1), so the left side is
        # F(1, ..., 1) zeta({2}^n): no pipeline or series code is involved.
        for label, F in suites._weight_family(n):
            for build, star in ((mzv_identity, False), (mzsv_identity, True)):
                expected = weight_value(F, (1,) * n) * two_string(n, star)
                assert eval_identity_rhs(build(F, n), n) == expected, (label, star)
                assert mzv_lhs_exact(F, n, n, star=star) == expected, (label, star)

    @pytest.mark.parametrize("n", range(6, MAX_MZV_DEPTH + 1))
    def test_verified_beyond_the_suites(self, n):
        assert suites.MAX_N < 6
        for label, F in suites._weight_family(n):
            for star in (False, True):
                identity = mzsv_identity(F, n) if star else mzv_identity(F, n)
                for k in range(n, n + 3):
                    result = verify_mzv(F, n, k, star=star, identity=identity)
                    assert result.ok, (label, result.describe())


class TestTrivialWeightClosedForm:
    """The weight F = 1 at every admitted depth, against closed forms that
    use no pipeline or series code.

    Write S_n(k) = sum_{k_1+...+k_n=k} zeta(2k_1, ..., 2k_n).  Its generating
    function sum_k S_n(k) t^k is [x^n] prod_m (1 + x*u_m) with
    u_m = sum_{a>=1} (t/m^2)^a = t/(m^2 - t).  Each factor is
    (1 - (1-x)t/m^2)/(1 - t/m^2), so the sinc product
    sin(pi z)/(pi z) = prod_m (1 - z^2/m^2) gives, with y = pi*sqrt(t) and
    s = sqrt(1 - x),

        prod_m (1 + x*u_m) = sin(s*y)/(s*sin y)
                           = cos((1-s)y)/s - cot y * sin((1-s)y)/s.

    As 1 - s = O(x), [x^n] of the first part is a polynomial in t of degree
    at most n/2, which no k >= n sees.  In the second, the Catalan series
    gives [x^n] (1-s)^(2j+1)/s = C(2n-2j-1, n)/(2 * 4^(n-j-1)), and
    y*cot y = 1 - 2 sum_{a>=1} zeta(2a) t^a, whose constant again leaves a
    polynomial of degree below n.  So for k >= n

        S_n(k) = sum_j (-1)^j C(2n-2j-1, n)/(4^(n-j-1) (2j+1)!)
                 * pi^(2j) zeta(2k-2j),

    with j <= (n-1)/2, where the binomial is nonzero.  In the package's basis
    ``terms[0]`` is the j = 0 constant and ``terms[l]`` for l >= 1 is the
    j = l constant over zeta(2l)/pi^(2l).  Each zeta* expands into the zeta
    of its coarsenings, and a composition of k into j parts refines into
    C(k-j, n-j) compositions into n parts (Vandermonde), so

        S*_n(k) = sum_{j=1}^{n} C(k-j, n-j) S_j(k),

    whose terms are polynomials in k.
    """

    @staticmethod
    def zeta_ratio(l):
        """zeta(2l)/pi^(2l) = -(1/2) [y^(2l)] y*cot y, the quotient of the
        cos and sinc series inverted term by term."""
        cos = [Fraction((-1) ** r, math.factorial(2 * r)) for r in range(l + 1)]
        sinc = [Fraction((-1) ** r, math.factorial(2 * r + 1)) for r in range(l + 1)]
        quotient = []
        for j in range(l + 1):
            quotient.append(cos[j] - sum(sinc[i] * quotient[j - i] for i in range(1, j + 1)))
        return -quotient[l] / 2

    def mzv_terms(self, n):
        """The constants of S_n(k), ``terms[l]`` for l = 0..(n-1)//2."""
        terms = []
        for l in range((n - 1) // 2 + 1):
            c = Fraction(
                (-1) ** l * math.comb(2 * n - 2 * l - 1, n),
                4 ** (n - l - 1) * math.factorial(2 * l + 1),
            )
            terms.append(c if l == 0 else c / self.zeta_ratio(l))
        return terms

    def mzsv_terms(self, n):
        """Coefficient lists, lowest power of k first, of the terms of S*_n(k)."""
        terms = [[Fraction(0)] * n for _ in range((n - 1) // 2 + 1)]
        for j in range(1, n + 1):
            # C(k-j, n-j) = prod_{i<n-j} (k - j - i) / (n-j)! as a polynomial in k.
            binomial = [Fraction(1, math.factorial(n - j))]
            for i in range(n - j):
                shifted = zip([Fraction(0)] + binomial, binomial + [0])
                binomial = [a - (j + i) * b for a, b in shifted]
            for l, c in enumerate(self.mzv_terms(j)):
                for power, b in enumerate(binomial):
                    terms[l][power] += c * b
        return terms

    @staticmethod
    def trimmed(coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return tuple(coeffs)

    def test_two_fold_baseline(self):
        # n = 2 is the two-fold sum (3/4) zeta(2k); n = 3 adds a zeta(2) zeta(2k-2) term.
        assert self.mzv_terms(2) == [Fraction(3, 4)]
        assert self.mzv_terms(3) == [Fraction(5, 8), Fraction(-1, 4)]

    @pytest.mark.parametrize("n", range(1, MAX_MZV_DEPTH + 1))
    def test_every_coefficient(self, n):
        one = parse_poly("1", n)
        mzv = tuple(p.coeffs for p in mzv_identity(one, n).terms)
        assert mzv == tuple(self.trimmed([c]) for c in self.mzv_terms(n))
        mzsv = tuple(p.coeffs for p in mzsv_identity(one, n).terms)
        assert mzsv == tuple(self.trimmed(row) for row in self.mzsv_terms(n))


def to_dec40(value):
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return Decimal(value.numerator) / Decimal(value.denominator)


def nested_sum(kvec, bound):
    """Exact truncated nested sum by plain Fraction arithmetic: level[m] is
    the sum over m >= m_i > ... > m_n >= 1 of the innermost arguments."""
    level = [Fraction(1)] * (bound + 1)
    for k in reversed(kvec):
        running = Fraction(0)
        next_level = [running]
        for m in range(1, bound + 1):
            running += level[m - 1] / m**k
            next_level.append(running)
        level = next_level
    return level[bound]


class TestNumeric:
    @pytest.mark.parametrize(
        "kvec, bound",
        [
            ((2,), 200),
            ((7,), 10),
            ((2, 1), 150),
            ((3, 3), 200),
            ((2, 1, 1), 100),
            ((5, 3, 3), 200),
            ((4, 3, 2, 1), 200),
            ((2, 2, 2, 2), 120),
            ((3, 1, 2, 1, 1), 80),
            ((6, 5, 4, 3, 2), 200),
        ],
    )
    def test_matches_fraction_nested_sum(self, kvec, bound):
        approx, _ = mzv_numeric(kvec, bound)
        assert str(approx) == str(to_dec40(nested_sum(kvec, bound)))

    def test_widening_gives_the_same_digits(self, monkeypatch):
        from evenzeta import mzv_identities

        expected = mzv_numeric((5, 3, 3), 200)
        scales = []
        bracket = mzv_identities._nested_sum_bracket

        def recording(kvec, bound, scale):
            scales.append(scale)
            return bracket(kvec, bound, scale)

        monkeypatch.setattr(mzv_identities, "_GUARD_DIGITS", 0)
        monkeypatch.setattr(mzv_identities, "_nested_sum_bracket", recording)
        widened = mzv_numeric((5, 3, 3), 200)
        assert tuple(map(str, widened)) == tuple(map(str, expected))
        assert scales[0] == 10**40
        assert len(scales) > 1

    @pytest.mark.parametrize("depth", range(1, 5))
    def test_bracket_contains_the_sum_and_has_its_width(self, depth):
        # Every admissible word over the letters 1..4; the floors lose the
        # most at small scales.
        from evenzeta.mzv_identities import _nested_sum_bracket

        for kvec in itertools.product(range(1, 5), repeat=depth):
            if kvec[0] < 2:
                continue
            for bound in range(10, 21):
                exact = nested_sum(kvec, bound)
                for scale in (1, 10, 10**3):
                    lo, hi = _nested_sum_bracket(kvec, bound, scale)
                    assert lo <= exact * scale < hi, (kvec, bound, scale)
                    assert hi - lo == depth * bound, (kvec, bound, scale)

    def test_digits_match_the_floor_ceiling_bracket(self, monkeypatch):
        from evenzeta import mzv_identities

        rng = random.Random(20)
        cases = [((2, 2), 10**4), ((4,), 10**3), ((5, 4, 4, 2, 2, 2), 1000)]
        while len(cases) < 203:
            tail = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 5)))
            cases.append(((rng.randint(2, 6), *tail), rng.choice((10, 50, 300, 1000))))
        digits = [tuple(map(str, mzv_numeric(kvec, bound))) for kvec, bound in cases]
        monkeypatch.setattr(mzv_identities, "_GUARD_DIGITS", 12)
        monkeypatch.setattr(mzv_identities, "_nested_sum_bracket", brute_force.floor_ceiling_bracket)
        for (kvec, bound), got in zip(cases, digits):
            assert got == tuple(map(str, mzv_numeric(kvec, bound))), (kvec, bound)

    @pytest.mark.parametrize("kvec, bound", [((2, 2), 10**4), ((4,), 10**3), ((5, 4, 4, 2, 2, 2), 1000)])
    def test_certified_in_one_pass(self, monkeypatch, kvec, bound):
        # Acceptance criterion 10, and a tiny deep sum that the floor and
        # ceiling bracket with 12 guard digits certified only on a second
        # pass.
        from evenzeta import mzv_identities

        scales = []
        bracket = mzv_identities._nested_sum_bracket

        def recording(kvec, bound, scale):
            scales.append(scale)
            return bracket(kvec, bound, scale)

        monkeypatch.setattr(mzv_identities, "_nested_sum_bracket", recording)
        mzv_numeric(kvec, bound)
        assert len(scales) == 1

    def test_partial_sum_is_exact_depth_one(self):
        approx, tail = mzv_numeric((2,), 50)
        direct = sum(Fraction(1, m**2) for m in range(1, 51))
        assert approx == to_dec40(direct)
        assert tail == Decimal("0.02")

    def test_partial_sum_is_exact_depth_two(self):
        approx, _ = mzv_numeric((2, 2), 30)
        direct = sum(
            Fraction(1, (a * b) ** 2)
            for a in range(2, 31)
            for b in range(1, a)
        )
        assert approx == to_dec40(direct)

    def test_tail_formula(self):
        _, tail = mzv_numeric((3, 2), 100)
        assert tail == Decimal("1.645") * Decimal("0.0001")

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            mzv_numeric((1, 2), 100)

    def test_bound_too_small(self):
        with pytest.raises(ValueError):
            mzv_numeric((2,), 9)

    def test_positive_arguments_required(self):
        with pytest.raises(ValueError):
            mzv_numeric((2, 0), 100)

    @pytest.mark.parametrize("kvec", [(2.5,), ("2",), (2, Fraction(1))])
    def test_non_integral_arguments_rejected(self, kvec):
        with pytest.raises(TypeError):
            mzv_numeric(kvec, 100)


class TestOrbitCombination:
    """``_combined_identity`` against the ``UniPoly.constant``/``UniPoly.dot``
    combination of ``brute_force.combined_identity``, on every call the
    zeta, mzv and mzsv pipelines make for the weights below."""

    @pytest.fixture
    def compared(self, monkeypatch):
        from evenzeta import mzv_identities, zeta_identities

        calls = []
        combine = zeta_identities._combined_identity

        def checked(kind, n, nums, den, poly):
            nums = list(nums)
            identity = combine(kind, n, nums, den, poly)
            assert (identity.T, identity.terms) == brute_force.combined_identity(nums, den, n)
            calls.append(kind)
            return identity

        monkeypatch.setattr(zeta_identities, "_combined_identity", checked)
        monkeypatch.setattr(mzv_identities, "_combined_identity", checked)
        return calls

    def test_mzv_suite_weights(self, compared):
        weights = [(n, w) for n in range(1, suites.MAX_N + 1) for _, w in suites._weight_family(n)]
        for n, weight in weights:
            mzv_identity(weight, n)
            mzsv_identity(weight, n)
        assert len(compared) == 2 * len(weights)

    @pytest.mark.parametrize("n", [3, 4])
    def test_dense_weights_at_the_degree_limit(self, compared, n):
        text, _ = brute_force.dense_weight(n, max_parse_degree(n))
        weight = parse_poly(text, n)
        mzv_identity(weight, n)
        zeta_identity_poly(weight, n)
        assert compared == ["mzv", "zeta"]
