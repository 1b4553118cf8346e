"""The collapsed sides on integers.

``WeightedSumIdentity.rhs_value`` sums p_l(k) times the basis value of the
identity's kind over one running denominator.  Their oracle is the
term-by-term ``Fraction`` sum of ``brute_force.py``
(``bernoulli_rhs``, ``zeta_rhs``), and the oracle of the integer p_l
assembly in ``bernoulli_identity`` is ``brute_force.bernoulli_rhs_polys``,
which runs none of the package's elimination.
"""

import types

import pytest
from brute_force import bernoulli_rhs, bernoulli_rhs_polys, collapsed_sums, f_product, zeta_rhs
from hypothesis import given, settings
from hypothesis import strategies as st

from evenzeta import (
    bernoulli_identity,
    eval_identity_rhs,
    mzsv_identity,
    mzv_identity,
    parse_poly,
    zeta_identity_monomial,
)
from evenzeta.suites import _MAX_WEIGHT, MAX_K, MAX_N, _exponent_tuples, _weight_family

#: The degree-3 weight at depth 10 that CI builds as an mzv and mzsv identity.
DEPTH_TEN_WEIGHT = (
    "(x1+x2+x3+x4+x5+x6+x7+x8+x9+x10)^3 + x1^2+x2^2+x3^2+x4^2+x5^2+x6^2+x7^2+x8^2+x9^2+x10^2"
)


def names_used(code):
    """Every global or attribute name a code object and the code nested in
    it (comprehensions, inner functions) refer to."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= names_used(const)
    return names


@pytest.mark.parametrize("oracle", [bernoulli_rhs_polys, collapsed_sums, f_product])
def test_bernoulli_oracle_runs_no_pipeline_step(oracle):
    # The oracle of the p_l shares only the table rows with the package: it
    # names none of the steps that build the identity.
    steps = {"big_F", "f_prod", "_eliminate", "_identity_rows", "bernoulli_identity"}
    assert not names_used(oracle.__code__) & steps


def check_bernoulli(identity, ks):
    for k in ks:
        assert identity.rhs_value(k) == bernoulli_rhs(identity, k), (identity.mvec, k)


def check_zeta(identity, ks):
    for k in ks:
        value, expected = eval_identity_rhs(identity, k), zeta_rhs(identity, k)
        assert value == expected, (identity.kind, identity.n, k)


class TestSuiteIdentities:
    """Every identity of ``verify --suite all`` at its largest bounds,
    ``suites.MAX_N`` and ``suites.MAX_K``."""

    @pytest.mark.parametrize("n", range(1, MAX_N + 1))
    def test_bernoulli_and_zeta(self, n):
        for mvec in _exponent_tuples(n, _MAX_WEIGHT):
            check_bernoulli(bernoulli_identity(mvec), range(n, MAX_K + 1))
            check_zeta(zeta_identity_monomial(mvec), range(1, MAX_K + 1))

    def test_grid_has_zero_terms(self):
        # A zero p_l is skipped, so the grid must hold some: m = (3,) has one.
        assert not bernoulli_identity((3,)).terms[1]
        assert not zeta_identity_monomial((3,)).terms[1]

    @pytest.mark.parametrize("n", range(1, MAX_N + 1))
    def test_mzv_and_mzsv(self, n):
        for _, weight in _weight_family(n):
            for build in (mzv_identity, mzsv_identity):
                check_zeta(build(weight, n), range(1, MAX_K + 1))


class TestDeepIdentities:
    """Table depth 48, the deepest the CLI admits, for k from n to N + 2
    (N = sum(m) + n); k < T truncates the sum."""

    @pytest.mark.parametrize("mvec", [(24, 23), (16, 16, 14)])
    def test_bernoulli(self, mvec):
        identity = bernoulli_identity(mvec)
        assert list(identity.terms) == bernoulli_rhs_polys(mvec)
        n, N = len(mvec), sum(mvec) + len(mvec)
        assert n < identity.T < N
        check_bernoulli(identity, range(n, N + 3))

    def test_zeta(self):
        identity = zeta_identity_monomial((24, 23))
        check_zeta(identity, range(2, 49 + 3))  # n = 2, N = 49


class TestDepthTen:
    @pytest.mark.parametrize("build", [mzv_identity, mzsv_identity])
    def test_degree_three_weight(self, build):
        identity = build(parse_poly(DEPTH_TEN_WEIGHT, 10), 10)
        check_zeta(identity, (1, 4, 10, 11, 13, 16))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=4), st.data())
def test_random_exponents(mvec, data):
    n, N = len(mvec), sum(mvec) + len(mvec)
    k = data.draw(st.integers(n, N + 2), label="k")
    identity = bernoulli_identity(mvec)
    assert list(identity.terms) == bernoulli_rhs_polys(mvec)
    check_bernoulli(identity, (k,))
    check_zeta(zeta_identity_monomial(mvec), (k,))
