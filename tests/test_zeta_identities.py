"""Zeta-value identities at even arguments.

`eval_zeta_lhs` is the oracle here: the composition sum read off a product
of truncated series (`evenzeta.series`), with zeta values from the sinc
product, independent of the collapsed form; `tests/test_series.py` checks
it against the composition loop of `brute_force.py`.
"""

import itertools
import math
from fractions import Fraction

import pytest

from evenzeta import (
    MultiPoly,
    UniPoly,
    bernoulli_identity,
    eval_identity_rhs,
    eval_zeta_lhs,
    mzv_identity,
    parse_poly,
    verify_zeta,
    zeta_even,
    zeta_identity_monomial,
    zeta_identity_poly,
)
from evenzeta.rationals import bernoulli
from evenzeta.zeta_identities import _monomial_identity

K = UniPoly.x()
HALF = Fraction(1, 2)


class TestZetaEven:
    def test_classical_values(self):
        # zeta(2j)/pi^(2j).
        assert zeta_even(1) == Fraction(1, 6)
        assert zeta_even(2) == Fraction(1, 90)
        assert zeta_even(3) == Fraction(1, 945)
        assert zeta_even(4) == Fraction(1, 9450)
        assert zeta_even(5) == Fraction(1, 93555)

    def test_formal_value_at_zero(self):
        assert zeta_even(0) == -HALF

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            zeta_even(-1)


class TestEulerBaseline:
    def test_two_fold_identity(self):
        # sum_{i+j=k} zeta(2i)zeta(2j) = (k + 1/2) zeta(2k).
        identity = zeta_identity_monomial((0, 0))
        assert identity.T == 0
        assert identity.terms[0] == K + HALF
        for k in range(2, 12):
            assert eval_zeta_lhs(parse_poly("1", 2), 2, k) == (
                Fraction(2 * k + 1, 2) * zeta_even(k)
            )


class TestMonomialIdentities:
    def test_printed_displays_n4(self):
        flat = zeta_identity_monomial((0, 0, 0, 0))
        assert flat.terms[0] == (K + 1) * (2 * K + 1) * (2 * K + 3) / 24
        assert flat.terms[1] == -2 * K

        sq = zeta_identity_monomial((2, 0, 0, 0))
        assert sq.terms[0] == K * (K + 1) * (2 * K + 1) * (2 * K + 3) * (4 * K + 3) / 960
        assert sq.terms[1] == -K * (4 * K**2 - 6 * K + 3) / 8
        assert sq.terms[2] == 9 * (2 * K - 5) / 8

        cube = zeta_identity_monomial((3, 0, 0, 0))
        assert cube.terms[0] == (
            K * (K + 1) * (2 * K + 1) * (2 * K + 3) * (4 * K**2 + 6 * K + 1) / 1920
        )
        assert cube.terms[1] == -K * (12 * K**3 - 12 * K**2 - 11 * K + 9) / 32
        assert cube.terms[2] == 3 * (2 * K - 5) * (13 * K - 9) / 16

    def test_conversion_from_bernoulli_form(self):
        # zeta terms[l] = (-1)^n 2^(2-n) (2l)!/B_{2l} Bernoulli terms[l], with the l = 0
        # term additionally folded through zeta(0) = -1/2.
        from evenzeta import bernoulli

        for mvec in [(0, 0), (1, 0), (0, 0, 0), (2, 0, 0, 0)]:
            n = len(mvec)
            bident = bernoulli_identity(mvec)
            zident = zeta_identity_monomial(mvec)
            assert zident.T == bident.T
            for l in range(bident.T + 1):
                scale = Fraction((-1) ** n * 4, 2**n)
                scale *= Fraction(math.factorial(2 * l)) / bernoulli(2 * l)
                if l == 0:
                    scale *= -HALF
                assert zident.terms[l] == scale * bident.terms[l]


class TestPolynomialAssembly:
    def test_linearity_in_symmetric_weight(self):
        # Sum of squares in four variables is four copies of one monomial.
        F = parse_poly("x1^2 + x2^2 + x3^2 + x4^2", 4)
        combined = zeta_identity_poly(F, 4)
        single = zeta_identity_monomial((2, 0, 0, 0))
        assert combined.T == single.T
        for l in range(combined.T + 1):
            assert combined.terms[l] == 4 * single.terms[l]

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            zeta_identity_poly(parse_poly("x1", 1), 2)

    def test_constant_weight(self):
        identity = zeta_identity_poly(parse_poly("5", 2), 2)
        assert identity.terms[0] == 5 * (K + HALF)


class TestEvaluation:
    def test_lhs_spot_value(self):
        # F = 1, n = 2, k = 2: the only composition is (1, 1).
        assert eval_zeta_lhs(parse_poly("1", 2), 2, 2) == Fraction(1, 36)

    def test_lhs_domain(self):
        with pytest.raises(ValueError):
            eval_zeta_lhs(parse_poly("1", 2), 2, 1)

    def test_sides_are_pi_power_coefficients(self):
        # Both sides at k are the Fraction coefficients of pi^(2k).
        identity = zeta_identity_monomial((2, 0, 0, 0))
        F = MultiPoly.monomial((2, 0, 0, 0))
        for k in range(4, 9):
            value = eval_identity_rhs(identity, k)
            assert type(value) is Fraction
            assert type(eval_zeta_lhs(F, 4, k)) is Fraction
            assert value == eval_zeta_lhs(F, 4, k)

    def test_rhs_domain(self):
        identity = zeta_identity_monomial((0, 0))
        with pytest.raises(ValueError):
            eval_identity_rhs(identity, 0)


class TestVerification:
    def test_monomial_grid(self):
        for mvec in [(0,), (1,), (0, 0), (2, 0), (0, 0, 0), (1, 1, 0)]:
            n = len(mvec)
            F = MultiPoly.monomial(mvec)
            for k in range(n, n + 4):
                result = verify_zeta(F, n, k)
                assert result.ok, result.describe()

    def test_asymmetric_weight_allowed(self):
        # The collapsed form is linear in F; symmetry is only needed for
        # the multiple-zeta reduction, not here.
        F = parse_poly("x1^2*x2", 2)
        for k in range(2, 7):
            assert verify_zeta(F, 2, k).ok

    @pytest.mark.parametrize("mvec", [(20, 8), (17, 3, 4)])
    def test_deep_identity_at_full_depth(self, mvec):
        # At k = N = sum(m) + n and N + 1 every term enters the collapsed side.
        identity = zeta_identity_monomial(mvec)
        n, N = len(mvec), sum(mvec) + len(mvec)
        for k in (N, N + 1):
            assert eval_identity_rhs(identity, k) == eval_zeta_lhs(MultiPoly.monomial(mvec), n, k)

    def test_mismatched_identity_rejected(self):
        # An identity of another depth or kind is a caller error, not a
        # failed check.
        F = parse_poly("x1 + x2 + x3", 3)
        with pytest.raises(ValueError, match="not zeta n=3"):
            verify_zeta(F, 3, 5, identity=zeta_identity_poly(parse_poly("x1 + x2", 2), 2))
        with pytest.raises(ValueError, match="not zeta n=3"):
            verify_zeta(F, 3, 5, identity=mzv_identity(F, 3))

    def test_failure_carries_values(self):
        # terms[0] + 1 adds zeta(2k) to the collapsed side: at n = k = 2 it
        # reads (5/2 + 1)/90 = 7/180 against zeta(2)^2/pi^4 = 1/36.
        one = parse_poly("1", 2)
        identity = zeta_identity_poly(one, 2)
        bad = identity.replace(terms=(identity.terms[0] + 1, *identity.terms[1:]))
        result = verify_zeta(one, 2, 2, identity=bad)
        assert not result.ok
        assert result.lhs == str(eval_zeta_lhs(one, 2, 2)) == "1/36"
        assert result.rhs == str(eval_identity_rhs(bad, 2)) == "7/180"
        assert result.describe() == (
            "FAIL: zeta weighted sum F=1 n=2 k=2\n  left  = 1/36\n  right = 7/180"
        )


class TestOrbits:
    def test_cancelled_orbit_keeps_its_depth(self):
        # x1^2 and -x2^2 share one orbit and cancel; the depth still counts it.
        identity = zeta_identity_poly(parse_poly("x1^2 - x2^2", 2), 2)
        assert identity.T == 1
        assert len(identity.terms) == 2
        assert all(term.is_zero() for term in identity.terms)

    def test_partly_cancelled_weight(self):
        # The cancelled orbit of (1, 3) sets T = 2; the others reach T = 0.
        F = parse_poly("x1^3*x2 - x2^3*x1 + x1 + 1", 2)
        identity = zeta_identity_poly(F, 2)
        assert identity.T == 2
        assert identity.terms[2].is_zero()
        for k in range(2, 8):
            assert verify_zeta(F, 2, k, identity=identity).ok

    def test_caller_ordering_is_kept(self):
        sorted_identity = zeta_identity_monomial((0, 1, 2))
        identity = zeta_identity_monomial((2, 0, 1))
        assert sorted_identity.mvec == (0, 1, 2)
        assert identity.mvec == (2, 0, 1)
        assert identity.terms == sorted_identity.terms
        assert identity.T == sorted_identity.T
        assert zeta_identity_monomial([2, 0, 1]).mvec == (2, 0, 1)

    def test_every_ordering_verifies(self):
        for mvec in [(2, 0, 1), (1, 2, 0), (0, 0, 3), (3, 0, 0), (1, 0, 1, 2)]:
            identity = zeta_identity_monomial(mvec)
            n = len(mvec)
            F = MultiPoly.monomial(mvec)
            for k in range(n, n + 4):
                result = verify_zeta(F, n, k, identity=identity)
                assert result.ok, result.describe()


def fraction_rescale(mvec):
    """(T, terms) of the zeta identity as the Bernoulli identity with each
    p_l multiplied by the ``Fraction`` (-1)^n 2^(2-n) (2l)!/B_{2l}, and by
    zeta(0) = -1/2 more at l = 0."""
    base = bernoulli_identity(mvec)
    n = len(mvec)
    sign = Fraction((-1) ** n) * Fraction(2) ** (2 - n)
    terms = []
    for l, poly in enumerate(base.terms):
        scale = sign * math.factorial(2 * l) / bernoulli(2 * l)
        if l == 0:
            scale *= Fraction(-1, 2)
        terms.append(poly * scale)
    return base.T, tuple(terms)


class TestIntegerRescale:
    """``_monomial_identity`` rescales the rows of the Bernoulli identity by
    integer pairs; the ``Fraction`` rescale of ``bernoulli_identity`` is its
    oracle."""

    SMALL = [
        mvec for n in range(1, 5) for mvec in itertools.combinations_with_replacement(range(7), n)
    ]

    def test_every_small_sorted_tuple(self):
        assert len(self.SMALL) == 329
        for mvec in self.SMALL:
            identity = _monomial_identity(mvec)
            assert (identity.T, identity.terms) == fraction_rescale(mvec), mvec

    @pytest.mark.parametrize(
        "mvec",
        [(24, 23), (16, 16, 14), (47, 0), (0,) * 49],
        ids=["24-23", "16-16-14", "47-0", "0x49"],
    )
    def test_deep_tuples(self, mvec):
        mvec = tuple(sorted(mvec))
        identity = _monomial_identity(mvec)
        assert (identity.T, identity.terms) == fraction_rescale(mvec)
