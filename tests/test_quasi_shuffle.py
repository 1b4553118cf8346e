"""Quasi-shuffle word algebra.

The symmetric-sum identities are checked against `symmetric_word_sum`, a
plain permutation count that knows nothing about either product.
"""

import importlib
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evenzeta
from evenzeta import (
    NCPoly,
    is_admissible,
    partition_word_sum,
    sbar,
    star,
    symmetric_word_sum,
    verify_symmetric_sum,
)


class TestNCPoly:
    def test_zero_and_unit(self):
        assert not NCPoly.zero()
        assert NCPoly.unit().items() == [((), Fraction(1))]

    def test_from_word(self):
        p = NCPoly.from_word((2, 3), Fraction(1, 2))
        assert p.items() == [((2, 3), Fraction(1, 2))]

    def test_zero_coefficients_dropped(self):
        assert NCPoly({(2,): Fraction(0)}) == NCPoly.zero()
        assert NCPoly.from_word((2,)) - NCPoly.from_word((2,)) == NCPoly.zero()

    def test_linear_algebra(self):
        a = NCPoly.from_word((2,))
        b = NCPoly.from_word((3,))
        assert 2 * a + b - a == a + b
        assert -(a - b) == b - a
        assert Fraction(1, 2) * (2 * a) == a

    def test_items_sorted(self):
        p = NCPoly.from_word((3, 2)) + NCPoly.from_word((2, 3)) + NCPoly.from_word((2,))
        assert [w for w, _ in p.items()] == [(2,), (2, 3), (3, 2)]

    def test_str(self):
        assert str(star((2,), (3,))) == "z2z3 + z3z2 + z5"
        assert str(sbar((2,), (2,))) == "2*z2z2 - z4"
        assert str(NCPoly.zero()) == "0"

    def test_immutable_and_hashable(self):
        p = NCPoly.from_word((2,))
        with pytest.raises(AttributeError):
            p.terms = {}
        assert len({p, NCPoly.from_word((2,)), NCPoly.zero()}) == 2

    def test_letters_validated(self):
        with pytest.raises(ValueError):
            NCPoly.from_word((0, 2))


class TestProducts:
    def test_star_of_single_letters(self):
        assert star((2,), (3,)) == (
            NCPoly.from_word((2, 3))
            + NCPoly.from_word((3, 2))
            + NCPoly.from_word((5,))
        )

    def test_sbar_of_single_letters(self):
        assert sbar((2,), (2,)) == 2 * NCPoly.from_word((2, 2)) - NCPoly.from_word(
            (4,)
        )

    def test_empty_word_is_unit(self):
        w = NCPoly.from_word((2, 1, 3))
        assert star(w, ()) == w
        assert star((), w) == w
        assert sbar(w, ()) == w

    def test_star_recursion_case(self):
        # z1 * z1z2 by hand: 2 z1z1z2 + z1z2z1 + z2z2 + z1z3.
        result = star((1,), (1, 2))
        assert result == (
            2 * NCPoly.from_word((1, 1, 2))
            + NCPoly.from_word((1, 2, 1))
            + NCPoly.from_word((2, 2))
            + NCPoly.from_word((1, 3))
        )

    def test_sbar_recursion_case(self):
        result = sbar((1,), (1, 2))
        assert result == (
            2 * NCPoly.from_word((1, 1, 2))
            + NCPoly.from_word((1, 2, 1))
            - NCPoly.from_word((2, 2))
            - NCPoly.from_word((1, 3))
        )

    def test_products_preserve_letter_weight(self):
        # Every word in the product carries the same total letter sum.
        for product in (star, sbar):
            result = product((2, 3), (4, 1))
            for word, _ in result.items():
                assert sum(word) == 10

    def test_bilinearity(self):
        a = NCPoly.from_word((2,)) + 2 * NCPoly.from_word((3,))
        b = NCPoly.from_word((1, 1))
        expected = star((2,), b) + 2 * star((3,), b)
        assert star(a, b) == expected


words = st.lists(st.integers(1, 4), min_size=0, max_size=4).map(tuple)
short_words = st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple)
admissible_words = st.one_of(
    st.just(()),
    st.tuples(st.integers(2, 4)).flatmap(
        lambda head: st.lists(st.integers(1, 4), max_size=3).map(
            lambda rest: head + tuple(rest)
        )
    ),
)


coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=6)
ncpolys = st.dictionaries(short_words, coefficients, max_size=3).map(NCPoly)


def is_canonical(p):
    """Same terms as the public constructor makes of them, every coefficient
    a nonzero Fraction."""
    return p == NCPoly(dict(p.terms)) and all(
        type(c) is Fraction and c != 0 for c in p.terms.values()
    )


class TestCanonicalResults:
    @settings(deadline=None, max_examples=60)
    @given(ncpolys, ncpolys, coefficients)
    def test_results_are_canonical(self, u, v, scale):
        for result in (star(u, v), sbar(u, v), u + v, u - v, -u, scale * u, u - u):
            assert is_canonical(result)

    def test_cancelled_words_are_dropped(self):
        # The mixed products z2*z1 and z1*z2 cancel term by term.
        u = NCPoly.from_word((2,)) - NCPoly.from_word((1,))
        v = NCPoly.from_word((1,)) + NCPoly.from_word((2,))
        for product in (star, sbar):
            result = product(u, v)
            assert is_canonical(result)
            assert result.terms.keys() == (product((2,), (2,)) - product((1,), (1,))).terms.keys()

    @settings(deadline=None, max_examples=60)
    @given(ncpolys, ncpolys)
    def test_rational_coefficients_expand_termwise(self, u, v):
        for product in (star, sbar):
            expected = NCPoly.zero()
            for w1, c1 in u.items():
                for w2, c2 in v.items():
                    expected = expected + (c1 * c2) * product(w1, w2)
            assert product(u, v) == expected


def _package_caches():
    """Every ``lru_cache`` defined in an evenzeta module, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(evenzeta.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"evenzeta.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = value
    return found


# Fewest entries each cache must keep so that no benchmark workload evicts:
# the most distinct keys one workload or `verify --suite all --max-n 5
# --max-k 16` forms in a fresh process (verify --suite words --max-n 5 forms
# about 8,300 word products), or every table depth the CLI admits.
CACHE_FLOORS = {
    "derivative_tables.f_table": 49,
    "derivative_tables.g_table": 49,
    "mzv_identities._sorted_power_sum": 31,
    "quasi_shuffle._word_product": 8_400,
    "series._phi_power": 33,
    "series._product": 62,
    "series._symmetric": 78,
    "series._weights": 2,
    "zeta_identities._monomial_identity": 226,
    "zeta_identities.zeta_even": 17,
}


def test_every_cache_has_a_floor():
    assert set(_package_caches()) == set(CACHE_FLOORS)


@pytest.mark.parametrize("name", sorted(CACHE_FLOORS))
def test_lru_cache_is_bounded(name):
    maxsize = _package_caches()[name].cache_info().maxsize
    assert isinstance(maxsize, int)
    assert CACHE_FLOORS[name] <= maxsize < 10**6


class TestAlgebraLaws:
    @given(words, words)
    def test_commutative(self, u, v):
        assert star(u, v) == star(v, u)
        assert sbar(u, v) == sbar(v, u)

    @settings(deadline=None, max_examples=60)
    @given(short_words, short_words, short_words)
    def test_associative(self, u, v, w):
        assert star(star(u, v), w) == star(u, star(v, w))
        assert sbar(sbar(u, v), w) == sbar(u, sbar(v, w))

    @given(admissible_words, admissible_words)
    def test_admissible_closed(self, u, v):
        assert is_admissible(u)
        assert is_admissible(star(u, v))
        assert is_admissible(sbar(u, v))

    def test_admissibility_predicate(self):
        assert is_admissible((2, 1, 1))
        assert not is_admissible((1, 2))
        assert is_admissible(())


class TestSymmetricSums:
    def test_multiplicities(self):
        p = symmetric_word_sum((2, 2))
        assert p == 2 * NCPoly.from_word((2, 2))

        q = symmetric_word_sum((1, 2))
        assert q == NCPoly.from_word((1, 2)) + NCPoly.from_word((2, 1))

    def test_partition_expansion_depth_two(self):
        # Two positions: the pair block merges the letters.
        expected = symmetric_word_sum((2, 3))
        assert partition_word_sum((2, 3), "star") == expected
        assert partition_word_sum((2, 3), "sbar") == expected

    def test_sweep(self):
        kvecs = [
            (2,),
            (1, 1),
            (2, 3),
            (2, 2),
            (1, 2, 3),
            (2, 2, 2),
            (1, 1, 1, 1),
            (3, 1, 2, 1),
        ]
        for kvec in kvecs:
            result = verify_symmetric_sum(kvec)
            assert result.ok, result.describe()

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            partition_word_sum((2, 2), "shuffle")

    def test_depth_caps(self):
        with pytest.raises(ValueError):
            symmetric_word_sum((1,) * 9)
        with pytest.raises(ValueError):
            verify_symmetric_sum((1,) * 7)
        with pytest.raises(ValueError):
            verify_symmetric_sum(())
