"""Weighted Bernoulli sum identities.

Every identity is checked against `bernoulli_lhs`, the composition sum read
off a product of truncated series (`evenzeta.series`) that never touches the
table machinery; `tests/test_series.py` checks it against the composition
loop of `brute_force.py`.
"""

import math
from fractions import Fraction

import pytest
from brute_force import collapsed_sums, f_product
from hypothesis import given, settings
from hypothesis import strategies as st

from evenzeta import (
    UniPoly,
    bernoulli_identity,
    bernoulli_lhs,
    big_F,
    f_prod,
    g_table,
    truncation_depth,
    verify_bernoulli,
    zeta_identity_monomial,
)

T = UniPoly.x()
HALF = Fraction(1, 2)


class TestTruncationDepth:
    def test_values(self):
        assert truncation_depth((0,)) == 0
        assert truncation_depth((1, 0)) == 0
        assert truncation_depth((0, 0, 0, 0)) == 1
        assert truncation_depth((2, 0, 0, 0)) == 2
        assert truncation_depth((3, 0, 0, 0)) == 2

    def test_formula(self):
        # max(floor((s + n - 2)/2), floor((n - 1)/2)) over the grid.
        for mvec, s, n in [((1,), 1, 1), ((2, 1), 3, 2), ((0, 0, 0), 0, 3)]:
            expected = max((s + n - 2) // 2, (n - 1) // 2)
            assert truncation_depth(mvec) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            truncation_depth(())

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            truncation_depth((1, -1))

    @pytest.mark.parametrize(
        "build, mvec",
        [
            (bernoulli_identity, (1.5, 2)),
            (bernoulli_identity, (2.0, 2)),
            (truncation_depth, ["3", 2]),
            (zeta_identity_monomial, (1, Fraction(3, 2))),
        ],
    )
    def test_non_integral_rejected(self, build, mvec):
        # An exponent is taken as it is or refused, never truncated to an int.
        with pytest.raises(TypeError):
            build(mvec)


class TestFProd:
    def test_single_factor(self):
        assert f_prod((0,)) == (T / 2 - 1, UniPoly.one())
        assert f_prod((1,)) == (T / 2, 1 - T, UniPoly.constant(-1))

    def test_product_of_two(self):
        # Convolution of (t/2 - 1, 1) with itself.
        prod = f_prod((0, 0))
        assert prod[0] == (T / 2 - 1) ** 2
        assert prod[1] == 2 * (T / 2 - 1)
        assert prod[2] == UniPoly.one()

    def test_length(self):
        # One entry per power of h from 0 to sum(m) + n.
        assert len(f_prod((2, 0, 0, 0))) == 7

    @pytest.mark.parametrize(
        "mvec",
        [
            (1, 2), (4, 1), (3, 0, 2), (2, 2, 1, 0), (24, 23), (17, 3, 4), (0, 24, 0),
            (16, 16, 14), (47, 0), (1, 46), (0,) * 49, (4,),
        ],
    )
    def test_matches_plain_convolution(self, mvec):
        # The packed product equals the UniPoly convolution of the table rows,
        # entry by entry.  (16, 16, 14) to (0,) * 49 reach table depth 48, the
        # deepest the CLI admits: three long rows, the deepest row times the
        # shortest, a short row times a long one, and 49 rows of two entries.
        # Row 4 is packed in 2-byte digits, and its numerator 240 would not
        # fit a signed digit one byte narrower.
        assert f_prod(mvec) == tuple(f_product(mvec))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_plain_convolution_on_random_tuples(self, data):
        # Up to eight exponents at table depth sum(m) + n - 1 <= 48.
        mvec = [data.draw(st.integers(0, 48))]
        while len(mvec) < 8 and sum(mvec) + len(mvec) <= 48 and data.draw(st.booleans()):
            mvec.append(data.draw(st.integers(0, 48 - sum(mvec) - len(mvec))))
        assert sum(mvec) + len(mvec) - 1 <= 48
        assert f_prod(mvec) == tuple(f_product(mvec))


class TestBigF:
    def test_single_zero(self):
        F = big_F((0,))
        assert F[1] == UniPoly.one()

    def test_single_one(self):
        F = big_F((1,))
        assert F[1].is_zero()
        assert F[2] == UniPoly.one()

    def test_head_closed_form(self):
        # F_0 = (1/2) prod(t/2 - [m_j = 0]) + (1/2)(-1)^n prod(t/2 + [m_j = 0]).
        for mvec in [
            (0,), (1,), (0, 0), (1, 0), (0, 0, 0, 0), (2, 0, 0, 0),
            (20, 8), (17, 3, 4), (1, 11, 4), (0, 24, 0),
        ]:
            n = len(mvec)
            low = UniPoly.one()
            high = UniPoly.one()
            for m in mvec:
                delta = 1 if m == 0 else 0
                low = low * (T / 2 - delta)
                high = high * (T / 2 + delta)
            expected = HALF * low + HALF * (-1) ** n * high
            assert big_F(mvec)[0] == expected

    @pytest.mark.parametrize(
        "mvec",
        [
            (0,), (5,), (0, 0), (3, 0), (2, 4), (0, 0, 0), (1, 0, 3), (2, 2, 2),
            (0, 0, 0, 0), (1, 0, 2, 0), (0, 3, 1, 2), (24, 23), (16, 16, 14),
        ],
    )
    def test_matches_plain_polynomial_sum(self, mvec):
        # F_j = sum_{i=j}^{N} f_i * g_{i-1,j}, summed term by term in UniPoly;
        # (24, 23) and (16, 16, 14) reach table depth 48, the deepest the CLI admits.
        F = big_F(mvec)
        assert len(F) == sum(mvec) + len(mvec) + 1
        assert list(F[1:]) == collapsed_sums(mvec)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_plain_polynomial_sum_on_random_tuples(self, data):
        # Up to four exponents with sum(m) <= 12, against the inverse-triangle sum.
        mvec = []
        for _ in range(data.draw(st.integers(1, 4))):
            mvec.append(data.draw(st.integers(0, 12 - sum(mvec))))
        assert list(big_F(mvec)[1:]) == collapsed_sums(mvec)

    def test_reads_no_inverse_triangle(self):
        # The elimination needs only the forward rows: big_F names no
        # g_table, and building an entry calls none.
        assert "g_table" not in big_F.__code__.co_names
        before = g_table.cache_info()
        big_F((9, 7, 5))
        after = g_table.cache_info()
        assert after.hits + after.misses == before.hits + before.misses

    def test_all_entries_even(self):
        # The full sums, odd coefficients formed, have none and stay within
        # degree N - j; big_F forms only the even ones.
        for mvec in [(0,), (1,), (2,), (0, 0), (1, 0), (0, 0, 0, 0), (3, 0, 0, 0), (24, 23), (16, 16, 14)]:
            N = sum(mvec) + len(mvec)
            assert not any(big_F(mvec)[0].nums[1::2])
            for j, poly in enumerate(collapsed_sums(mvec), 1):
                assert not any(poly.nums[1::2])
                assert poly.degree() <= N - j


class TestACoeffs:
    """a_{j,l} = [t^(2l)] F_j, read off ``big_F``."""

    def test_single_zero(self):
        assert big_F((0,))[1].coefficient(0) == 1

    def test_single_one(self):
        F = big_F((1,))
        assert F[2].coefficient(0) == 1
        assert F[1].coefficient(0) == 0


class TestBruteForceLhs:
    def test_spot_values(self):
        assert bernoulli_lhs((0,), 3) == Fraction(1, 30240)
        assert bernoulli_lhs((0, 0), 2) == Fraction(1, 144)
        assert bernoulli_lhs((1, 0), 2) == Fraction(1, 144)

    def test_single_term_sum(self):
        # n = 1: the sum has one composition, k itself, weighted k^m.
        from evenzeta import bernoulli

        for k in range(1, 8):
            assert bernoulli_lhs((0,), k) == bernoulli(2 * k) / math.factorial(2 * k)
            assert bernoulli_lhs((2,), k) == (
                Fraction(k) ** 2 * bernoulli(2 * k) / math.factorial(2 * k)
            )

    def test_k_below_n_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_lhs((0, 0), 1)


class TestIdentity:
    def test_printed_displays_n4(self):
        identity = bernoulli_identity((0, 0, 0, 0))
        K = T
        assert identity.T == 1
        assert identity.rhs[0] == -(K + 1) * (2 * K + 1) * (2 * K + 3) / 3
        assert identity.rhs[1] == -2 * K / 3

    def test_rhs_value_matches_polys(self):
        identity = bernoulli_identity((2, 0, 0, 0))
        from evenzeta import bernoulli

        for k in range(4, 10):
            expected = sum(
                identity.rhs[l](k)
                * bernoulli(2 * k - 2 * l)
                / math.factorial(2 * k - 2 * l)
                for l in range(min(identity.T, k) + 1)
            )
            assert identity.rhs_value(k) == expected

    def test_rhs_value_domain(self):
        identity = bernoulli_identity((0, 0))
        with pytest.raises(ValueError):
            identity.rhs_value(1)

    def test_degree_bounds(self):
        # deg rhs[l] <= sum(m) + n - 2l - 1.
        for mvec in [(0,), (1, 0), (0, 0, 0), (2, 0, 0, 0), (1, 1, 1)]:
            identity = bernoulli_identity(mvec)
            r = sum(mvec)
            n = len(mvec)
            for l, poly in enumerate(identity.rhs):
                if not poly.is_zero():
                    assert poly.degree() <= r + n - 2 * l - 1


class TestVerification:
    def test_spot_grid(self):
        for mvec in [(0,), (2,), (0, 0), (1, 1), (0, 0, 0), (1, 0, 0)]:
            n = len(mvec)
            for k in range(n, n + 4):
                result = verify_bernoulli(mvec, k)
                assert result.ok, result.describe()

    @pytest.mark.parametrize("mvec", [(20, 8), (17, 3, 4)])
    def test_deep_identity_at_full_depth(self, mvec):
        # At k = N = sum(m) + n and N + 1 every p_l enters the collapsed side.
        identity = bernoulli_identity(mvec)
        N = sum(mvec) + len(mvec)
        for k in (N, N + 1):
            assert identity.rhs_value(k) == bernoulli_lhs(mvec, k)

    def test_mismatched_identity_rejected(self):
        # An identity of other exponents or another kind is a caller error,
        # not a failed check.
        with pytest.raises(ValueError, match=r"not m=\(2, 0\)"):
            verify_bernoulli((2, 0), 5, identity=bernoulli_identity((1, 0)))
        with pytest.raises(ValueError, match=r"identity is for zeta"):
            verify_bernoulli((2, 0), 5, identity=zeta_identity_monomial((2, 0)))

    def test_result_carries_values(self):
        result = verify_bernoulli((0, 0), 3)
        assert result.lhs == result.rhs == str(bernoulli_lhs((0, 0), 3))
        assert bool(result)
