"""Weighted Bernoulli sum identities.

Every identity is checked against `bernoulli_lhs`, the composition sum read
off a product of truncated series (`evenzeta.series`) that never touches the
table machinery; `tests/test_series.py` checks it against the composition
loop of `brute_force.py`.
"""

import itertools
import math
from fractions import Fraction

import pytest
from brute_force import bernoulli_rhs_polys, collapsed_sums, f_product
from hypothesis import given, settings
from hypothesis import strategies as st

from evenzeta import (
    BernoulliIdentity,
    UniPoly,
    bernoulli_identity,
    bernoulli_lhs,
    f_prod,
    g_table,
    truncation_depth,
    verify_bernoulli,
    zeta_identities,
    zeta_identity_monomial,
)
from evenzeta.bernoulli_sums import _eliminate, _identity_rows
from evenzeta.documents import to_json

T = UniPoly.x()


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
    """The collapse D^{m_1} f * ... * D^{m_n} f = F_0 + sum_{j>=1} F_j *
    D^{j-1} g as the identity reads it: ``bernoulli_identity`` against
    ``brute_force.bernoulli_rhs_polys``, which reads the F_j of the
    inverse-triangle sum ``collapsed_sums`` and runs no elimination."""

    def test_single_zero(self):
        # F_1 = 1, so p_0 = 1: the sum is B_{2k}/(2k)! itself.
        assert collapsed_sums((0,)) == [UniPoly.one()]
        assert bernoulli_identity((0,)).rhs == (UniPoly.one(),)

    def test_single_one(self):
        # F_1 = 0 and F_2 = 1, so p_0 = k.
        assert collapsed_sums((1,)) == [UniPoly.zero(), UniPoly.one()]
        assert bernoulli_identity((1,)).rhs == (T,)

    @pytest.mark.parametrize(
        "mvec",
        [
            (0,), (5,), (0, 0), (3, 0), (2, 4), (0, 0, 0), (1, 0, 3), (2, 2, 2),
            (0, 0, 0, 0), (1, 0, 2, 0), (0, 3, 1, 2), (24, 23), (16, 16, 14),
        ],
    )
    def test_matches_plain_polynomial_sum(self, mvec):
        # (24, 23) and (16, 16, 14) reach table depth 48, the deepest the CLI admits.
        assert list(bernoulli_identity(mvec).rhs) == bernoulli_rhs_polys(mvec)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_plain_polynomial_sum_on_random_tuples(self, data):
        # Up to four exponents with sum(m) <= 12, against the inverse-triangle sum.
        mvec = []
        for _ in range(data.draw(st.integers(1, 4))):
            mvec.append(data.draw(st.integers(0, 12 - sum(mvec))))
        assert list(bernoulli_identity(mvec).rhs) == bernoulli_rhs_polys(mvec)

    def test_reads_no_inverse_triangle(self):
        # The identity needs only the forward rows: none of its steps names
        # g_table, and eliminating afresh calls none.
        for step in (_identity_rows.__wrapped__, f_prod, _eliminate):
            assert "g_table" not in step.__code__.co_names, step.__name__
        _identity_rows.cache_clear()
        before = g_table.cache_info()
        bernoulli_identity((9, 7, 5))
        after = g_table.cache_info()
        assert after.hits + after.misses == before.hits + before.misses

    def test_all_entries_even(self):
        # Every F_j, odd coefficients formed, is even and within degree
        # N - j, which is why the identity reads its rows at even powers only.
        for mvec in [(0,), (1,), (2,), (0, 0), (1, 0), (0, 0, 0, 0), (3, 0, 0, 0), (24, 23), (16, 16, 14)]:
            N = sum(mvec) + len(mvec)
            for j, poly in enumerate(collapsed_sums(mvec), 1):
                assert not any(poly.nums[1::2])
                assert poly.degree() <= N - j


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


def _uncached_identity(mvec):
    """The identity of ``mvec`` from rows eliminated afresh in its own
    order, bypassing the cache."""
    rows, den = _identity_rows.__wrapped__(mvec)
    rhs = tuple(UniPoly._normalised(list(nums), den) for nums in rows)
    return BernoulliIdentity(mvec=mvec, T=len(rhs) - 1, rhs=rhs)


class TestSharedRows:
    """The elimination rows are cached under the sorted exponents and shared
    by every ordering and by the Bernoulli and zeta kinds."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.data())
    def test_every_ordering_eliminates_to_the_same_rows(self, data):
        # The product D^{m_1} f ... D^{m_n} f commutes, which is what keying
        # the cache on the sorted tuple rests on.  Up to four exponents
        # summing to at most 6.
        mvec = [data.draw(st.integers(0, 6))]
        while len(mvec) < 4 and data.draw(st.booleans()):
            mvec.append(data.draw(st.integers(0, 6 - sum(mvec))))
        expected = _identity_rows.__wrapped__(tuple(sorted(mvec)))
        for perm in set(itertools.permutations(mvec)):
            assert _identity_rows.__wrapped__(perm) == expected, perm

    @pytest.mark.parametrize("mvec", [(2, 1, 0), (0, 3, 1, 1), (4, 0)])
    def test_record_keeps_the_callers_order(self, mvec):
        for perm in set(itertools.permutations(mvec)):
            identity = bernoulli_identity(perm)
            assert identity.mvec == perm
            assert to_json(identity) == to_json(_uncached_identity(perm))

    def test_all_orderings_and_both_kinds_eliminate_once(self):
        _identity_rows.cache_clear()
        zeta_identities._monomial_identity.cache_clear()
        try:
            for perm in itertools.permutations((2, 1, 0)):
                bernoulli_identity(perm)
                zeta_identity_monomial(perm)
            assert _identity_rows.cache_info().misses == 1
        finally:
            _identity_rows.cache_clear()
            zeta_identities._monomial_identity.cache_clear()

    def test_trailing_zeros_stay_in_the_cached_rows(self):
        # UniPoly._normalised drops trailing zeros in place, so building from
        # a cached row must not touch it.
        mvec = (0, 0, 0, 0)
        cached = _identity_rows(mvec)
        assert any(nums[-1] == 0 for nums in cached[0])
        snapshot = (tuple(tuple(nums) for nums in cached[0]), cached[1])
        first, second = bernoulli_identity(mvec), bernoulli_identity(mvec)
        assert first.rhs == second.rhs
        assert _identity_rows(mvec) == snapshot


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
