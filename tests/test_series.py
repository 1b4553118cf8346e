"""The truncated-series kernel behind every left side.

Its oracles are the composition loops of `brute_force.py` (small n and k),
the Bernoulli recurrence and `zeta_even` of the pipeline, and a check that
the kernel imports none of the code it is compared with.
"""

import ast
import itertools
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute_force
from evenzeta import (
    MultiPoly,
    bernoulli,
    bernoulli_lhs,
    eval_zeta_lhs,
    factorial,
    mzv_lhs_exact,
    parse_poly,
    series,
    zeta_even,
)
from evenzeta.series import Series, composition_sum, symmetric_sum, zeta_over_pi
from evenzeta.suites import _exponent_tuples as exponent_tuples

SERIES_PATH = pathlib.Path(series.__file__)

#: Modules the kernel must not import: the pipeline it cross-checks and the
#: enumerations the brute-force oracle uses.
PIPELINE_MODULES = {
    "bernoulli_sums",
    "derivative_tables",
    "enumeration",
    "mzv_identities",
    "zeta_identities",
}


def monomial_symmetric(mu, n):
    """m_mu(x1..xn): every distinct permutation of (mu, 0, ..., 0)."""
    padded = tuple(mu) + (0,) * (n - len(mu))
    return MultiPoly(n, {expts: 1 for expts in set(itertools.permutations(padded))})


class TestIndependence:
    def test_imports_nothing_from_the_pipeline(self):
        tree = ast.parse(SERIES_PATH.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").split(".")[-1]
                names = {alias.name for alias in node.names}
                assert module not in PIPELINE_MODULES, ast.unparse(node)
                if module == "rationals":
                    assert names.isdisjoint({"bernoulli", "BernoulliTable"}), ast.unparse(node)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert alias.name.split(".")[-1] not in PIPELINE_MODULES | {"rationals"}

    def test_zeta_values_match_the_bernoulli_table(self):
        for j in range(25):
            assert zeta_over_pi(j) == zeta_even(j).coeff
            assert zeta_even(j).weight == j

    def test_bernoulli_weights_match_the_recurrence(self):
        for k in range(1, 25):
            assert composition_sum("bernoulli", (0,), k) == bernoulli(2 * k) / factorial(2 * k)


class TestSeries:
    def test_markers_square_to_zero(self):
        # (1 + eps t)^2 = 1 + 2 eps t: the eps^2 t^2 term vanishes.
        a = Series([(1, 0), (0, 1), (0, 0)])
        assert (a * a).nums == ((1, 0), (0, 2), (0, 0))

    def test_distinct_markers_multiply(self):
        a = Series([(1, 1, 0, 0), (0, 0, 0, 0)])
        b = Series([(1, 0, 1, 0), (0, 0, 0, 0)])
        assert (a * b).nums[0] == (1, 1, 1, 1)

    def test_truncated_at_the_horizon(self):
        a = Series([(0,), (1,), (1,)])
        assert (a * a).nums == ((0,), (0,), (1,))

    def test_canonical_denominator(self):
        a = Series([(2,), (4,)], 6)
        assert (a.nums, a.den) == (((1,), (2,)), 3)
        assert Series.dot([(a, a), (a, -a)]).nums == ((0,), (0,))

    def test_dot_divides(self):
        a = Series([(1,), (1,)])
        assert Series.dot([(a, a)], divisor=4).coefficient(1) == Fraction(1, 2)

    def test_domain(self):
        with pytest.raises(ValueError):
            composition_sum("gamma", (1,), 3)
        with pytest.raises(ValueError):
            composition_sum("zeta", (), 3)
        with pytest.raises(ValueError):
            composition_sum("zeta", (1, -1), 3)
        with pytest.raises(ValueError):
            symmetric_sum((1, 0), 2, 3)
        with pytest.raises(ValueError):
            symmetric_sum((1, 1, 1), 2, 3)
        with pytest.raises(ValueError):
            symmetric_sum((), 0, 3)

    @pytest.mark.parametrize("part", [1.9, "1", Fraction(1)])
    def test_non_integral_exponents_rejected(self, part):
        # Exponents are never truncated or parsed into integers.
        with pytest.raises(TypeError):
            composition_sum("zeta", (part,), 3)
        with pytest.raises(TypeError):
            composition_sum("bernoulli", (2, part), 3)
        with pytest.raises(TypeError):
            symmetric_sum((part,), 2, 3)


class TestAgainstBruteForce:
    """The series evaluators against the composition loops, n <= 4, k <= 10."""

    def test_bernoulli(self):
        for n in range(1, 5):
            for mvec in exponent_tuples(n, 3):
                for k in range(n, 11):
                    assert bernoulli_lhs(mvec, k) == brute_force.bernoulli_lhs(mvec, k)

    @pytest.mark.parametrize(
        "text, n",
        [
            ("1", 1),
            ("x1^3", 1),
            ("x1^2*x2 - 3*x2 + 1/2", 2),
            ("x1^2*x2 - 3*x3 + 1/2", 3),
            ("2*x1*x2^2*x3 + x4^3 - x1", 4),
            ("0", 3),
        ],
    )
    def test_zeta_products(self, text, n):
        F = parse_poly(text, n)
        for k in range(n, 11):
            assert eval_zeta_lhs(F, n, k) == brute_force.zeta_lhs(F, n, k)

    @pytest.mark.parametrize(
        "mu, n",
        [((), 1), ((), 4), ((1,), 3), ((2,), 4), ((3,), 2), ((1, 1), 2), ((1, 1), 4), ((2, 1), 3),
         ((1, 1, 1), 3), ((1, 1, 1), 4), ((2, 1, 1), 4)],
    )
    @pytest.mark.parametrize("star", [False, True])
    def test_monomial_symmetric_weights(self, mu, n, star):
        # sum xi*xj is mu = (1, 1); sum xi*xj*xk is (1, 1, 1), three markers.
        F = monomial_symmetric(mu, n)
        for k in range(n, 11):
            assert mzv_lhs_exact(F, n, k, star=star) == brute_force.mzv_lhs(F, n, k, star=star)

    @pytest.mark.parametrize("star", [False, True])
    def test_zero_weight(self, star):
        for n in range(1, 5):
            for k in range(n, 11):
                value = mzv_lhs_exact(MultiPoly.zero(n), n, k, star=star)
                assert value == brute_force.mzv_lhs(MultiPoly.zero(n), n, k, star=star)
                assert value.is_zero()

    def test_beyond_the_default_horizon(self):
        F = parse_poly("x1^2 + x2^2", 2)
        for k in (17, 20):
            assert mzv_lhs_exact(F, 2, k, star=True) == brute_force.mzv_lhs(F, 2, k, star=True)
            assert eval_zeta_lhs(F, 2, k) == brute_force.zeta_lhs(F, 2, k)
            assert bernoulli_lhs((1, 2), k) == brute_force.bernoulli_lhs((1, 2), k)

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_random_symmetric_weights(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        shapes = [mu for mu in [(), (1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1)] if len(mu) <= n]
        coeffs = data.draw(
            st.dictionaries(st.sampled_from(shapes), st.integers(-3, 3), min_size=1), label="coeffs"
        )
        F = MultiPoly.zero(n)
        for mu, coeff in coeffs.items():
            F = F + coeff * monomial_symmetric(mu, n)
        k = data.draw(st.integers(n, 10), label="k")
        star = data.draw(st.booleans(), label="star")
        assert mzv_lhs_exact(F, n, k, star=star) == brute_force.mzv_lhs(F, n, k, star=star)
        assert eval_zeta_lhs(F, n, k) == brute_force.zeta_lhs(F, n, k)
