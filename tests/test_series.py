"""The truncated-series kernel behind every left side.

Its oracles are the composition loops of `brute_force.py` (small n and k),
the Bernoulli recurrence and `zeta_even` of the pipeline, and a check that
the kernel imports none of the code it is compared with.
"""

import ast
import functools
import itertools
import math
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
    mzv_lhs_exact,
    parse_poly,
    series,
    zeta_even,
)
from evenzeta.bernoulli_sums import _bernoulli_lhs_grid
from evenzeta.mzv_identities import _mzv_lhs_grid
from evenzeta.series import Series, composition_sum, symmetric_sum, zeta_over_pi
from evenzeta.suites import _exponent_tuples as exponent_tuples
from evenzeta.zeta_identities import _zeta_lhs_grid

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


#: What the left-side grids must never reach: the collapsed-side sum, the
#: derivative tables and their product, and the Bernoulli recurrence.
PIPELINE_DEFINITIONS = {
    ("bernoulli_sums", "_collapsed_sum"),
    ("bernoulli_sums", "f_prod"),
    ("rationals", "bernoulli"),
}


@functools.lru_cache(maxsize=None)
def _definitions(module):
    """The top-level definitions of an evenzeta module by name, and the
    names it imports from sibling modules as (module, name)."""
    tree = ast.parse((SERIES_PATH.parent / f"{module}.py").read_text(encoding="utf-8"))
    defined, imported = {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defined[target.id] = node
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
    return defined, imported


def reachable(module, name):
    """Every (module, name) of evenzeta that the definition of ``name``
    reaches through the names its code loads, transitively: definitions of
    its own module and names imported from a sibling module."""
    seen, stack = set(), [(module, name)]
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        defined, imported = _definitions(key[0])
        node = defined.get(key[1])
        if node is None:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in defined:
                    stack.append((key[0], sub.id))
                elif sub.id in imported:
                    stack.append(imported[sub.id])
    return seen


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
                    assert names.isdisjoint({"bernoulli", "_SHARED_TABLE"}), ast.unparse(node)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert alias.name.split(".")[-1] not in PIPELINE_MODULES | {"rationals"}

    @pytest.mark.parametrize(
        "module, helper",
        [
            ("bernoulli_sums", "_bernoulli_lhs_grid"),
            ("zeta_identities", "_zeta_lhs_grid"),
            ("mzv_identities", "_mzv_lhs_grid"),
        ],
    )
    def test_left_side_grids_reach_nothing_of_the_pipeline(self, module, helper):
        reached = reachable(module, helper)
        assert ("series", "_product") in reached or ("series", "_symmetric") in reached
        assert not reached & PIPELINE_DEFINITIONS
        assert not {m for m, _ in reached} & {"derivative_tables", "enumeration"}

    def test_the_reach_sees_the_pipeline(self):
        # The walk itself is not blind: the collapsed side reaches its sum,
        # and the Bernoulli identity the tables and their product.
        assert ("bernoulli_sums", "_collapsed_sum") in reachable("zeta_identities", "eval_identity_rhs")
        reached = reachable("bernoulli_sums", "bernoulli_identity")
        assert ("bernoulli_sums", "f_prod") in reached
        assert ("derivative_tables", "f_table") in reached

    def test_zeta_values_match_the_bernoulli_table(self):
        for j in range(25):
            assert zeta_over_pi(j) == zeta_even(j)

    def test_bernoulli_weights_match_the_recurrence(self):
        # The zeta series, through bernoulli_lhs's prefactor -2 (-1/4)^k.
        for k in range(1, 25):
            assert bernoulli_lhs((0,), k) == bernoulli(2 * k) / math.factorial(2 * k)


    def test_one_product_serves_both_left_sides(self):
        # The Bernoulli left side rescales the zeta product, so the zeta
        # side of the same exponents is a cache hit.
        series._product.cache_clear()
        bernoulli_lhs((2, 1), 5)
        misses = series._product.cache_info().misses
        assert eval_zeta_lhs(MultiPoly.monomial((1, 2)), 2, 5) == composition_sum((2, 1), 5)
        assert series._product.cache_info().misses == misses


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
        product = Series.dot([(a, a)], divisor=4)
        assert Fraction(product.nums[1][0], product.den) == Fraction(1, 2)

    def test_domain(self):
        with pytest.raises(ValueError):
            composition_sum((), 3)
        with pytest.raises(ValueError):
            composition_sum((1, -1), 3)
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
            composition_sum((part,), 3)
        with pytest.raises(TypeError):
            composition_sum((2, part), 3)
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
                value = mzv_lhs_exact(MultiPoly(n), n, k, star=star)
                assert value == brute_force.mzv_lhs(MultiPoly(n), n, k, star=star)
                assert value == 0

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
        terms = {}
        for mu, coeff in coeffs.items():
            scaled = brute_force.poly_scale(monomial_symmetric(mu, n).terms, coeff)
            terms = brute_force.poly_add(terms, scaled)
        F = MultiPoly(n, terms)
        k = data.draw(st.integers(n, 10), label="k")
        star = data.draw(st.booleans(), label="star")
        assert mzv_lhs_exact(F, n, k, star=star) == brute_force.mzv_lhs(F, n, k, star=star)
        assert eval_zeta_lhs(F, n, k) == brute_force.zeta_lhs(F, n, k)


def _weights(data, n, kind):
    """A weight of ``kind`` at depth n with degree <= 3: exponents for the
    Bernoulli kind, small integer combinations of monomials over a small
    denominator for zeta, and of monomial symmetric functions for mzv and
    mzsv."""
    if kind == "bernoulli":
        return data.draw(st.sampled_from(list(exponent_tuples(n, 3))), label="mvec")
    if kind == "zeta":
        monomials = st.sampled_from(list(exponent_tuples(n, 3)))
        terms = data.draw(st.dictionaries(monomials, st.integers(-3, 3), max_size=4), label="terms")
        den = data.draw(st.integers(1, 5), label="den")
        return MultiPoly(n, {e: Fraction(c, den) for e, c in terms.items()})
    shapes = [mu for mu in [(), (1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1)] if len(mu) <= n]
    coeffs = data.draw(st.dictionaries(st.sampled_from(shapes), st.integers(-3, 3)), label="coeffs")
    terms = {}
    for mu, coeff in coeffs.items():
        terms = brute_force.poly_add(terms, brute_force.poly_scale(monomial_symmetric(mu, n).terms, coeff))
    return MultiPoly(n, terms)


class TestGridOracles:
    """Each left-side grid reads every k of a sequence off one series; at
    each k it must agree with the one-k oracle, which builds its series to
    its own horizon."""

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(st.data())
    def test_grid_matches_the_one_k_oracle(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        kind = data.draw(st.sampled_from(["bernoulli", "zeta", "mzv", "mzsv"]), label="kind")
        weight = _weights(data, n, kind)
        ks = data.draw(st.lists(st.integers(n, 20), min_size=1, max_size=6), label="ks")
        if kind == "bernoulli":
            assert _bernoulli_lhs_grid(weight, ks) == [bernoulli_lhs(weight, k) for k in ks]
        elif kind == "zeta":
            assert _zeta_lhs_grid(weight, n, ks) == [eval_zeta_lhs(weight, n, k) for k in ks]
        else:
            star = kind == "mzsv"
            expected = [mzv_lhs_exact(weight, n, k, star=star) for k in ks]
            assert _mzv_lhs_grid(weight, n, ks, star) == expected

    def test_a_k_below_n_is_refused_by_every_grid(self):
        F = parse_poly("x1 + x2 + x3", 3)
        with pytest.raises(ValueError, match="need k >= n = 3, got 2"):
            _bernoulli_lhs_grid((1, 0, 0), [5, 2])
        with pytest.raises(ValueError, match="need k >= n = 3, got 2"):
            _zeta_lhs_grid(F, 3, [5, 2])
        with pytest.raises(ValueError, match="need k >= n = 3, got 2"):
            _mzv_lhs_grid(F, 3, [5, 2])
