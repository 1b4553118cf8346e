"""Quasi-shuffle word algebra.

The symmetric-sum identities are checked against `symmetric_word_sum`, a
plain permutation count that knows nothing about either product, the
set-partition expansion, built by a recursion over sub-multisets, against
the partition-by-partition loop of `brute_force.py`, and both products
against its lattice-path sum.
"""

import gc
import importlib
import itertools
import math
import pkgutil
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute_force
import evenzeta
from evenzeta import (
    MultiPoly,
    NCPoly,
    is_admissible,
    partition_word_sum,
    quasi_shuffle,
    sbar,
    star,
    symmetric_word_sum,
    verify_symmetric_sum,
)
from evenzeta.suites import words_suite


class TestNCPoly:
    def test_zero_and_unit(self):
        assert not NCPoly()
        assert NCPoly.unit().items() == [((), Fraction(1))]

    def test_zero_coefficients_dropped(self):
        assert NCPoly({(2,): Fraction(0)}) == NCPoly()
        assert NCPoly([((2,), 1), ((2,), -1)]) == NCPoly()

    def test_items_sorted(self):
        p = NCPoly({(3, 2): 1, (2, 3): 1, (2,): 1})
        assert [w for w, _ in p.items()] == [(2,), (2, 3), (3, 2)]

    def test_str(self):
        assert str(star((2,), (3,))) == "z2z3 + z3z2 + z5"
        assert str(sbar((2,), (2,))) == "2*z2z2 - z4"
        assert str(NCPoly()) == "0"

    def test_repr(self):
        assert repr(sbar((2,), (2,))) == "NCPoly('2*z2z2 - z4')"
        assert repr(NCPoly({(3, 2): Fraction(-1, 2)})) == "NCPoly('-1/2*z3z2')"
        assert repr(NCPoly.unit()) == "NCPoly('1')"

    def test_immutable_and_hashable(self):
        p = NCPoly({(2,): 1})
        for name, value in (("terms", {}), ("nums", {}), ("den", 2)):
            with pytest.raises(AttributeError):
                setattr(p, name, value)
        p.terms[(3,)] = Fraction(1)
        with pytest.raises(TypeError):
            p.nums[(3,)] = 1
        assert p.items() == [((2,), Fraction(1))]
        assert len({p, NCPoly({(2,): 1}), NCPoly()}) == 2
        # One value built by the constructor and by products.
        third = Fraction(1, 3)
        built = [
            NCPoly({(1, 1): Fraction(2, 3), (2,): third}),
            NCPoly([((1, 1), third), ((2,), third), ((1, 1), third)]),
            star(NCPoly({(1,): third}), (1,)),
            star(NCPoly({(1,): Fraction(2, 3)}), NCPoly({(1,): Fraction(1, 2)})),
        ]
        assert len(set(built)) == 1
        assert all(is_canonical(p) and p == built[0] for p in built)
        # Equal numerators never make different types or arities equal.
        assert MultiPoly(1, {(2,): 1}) != NCPoly({(2,): 1})
        assert MultiPoly(2) != MultiPoly(3)

    def test_letters_validated(self):
        with pytest.raises(ValueError):
            NCPoly({(0, 2): 1})

    @pytest.mark.parametrize("letters", [(2.7,), ("2", 1), (Fraction(2),)])
    def test_non_integral_letters_rejected(self, letters):
        # Letters are never truncated or parsed into integers.
        with pytest.raises(TypeError):
            star(letters, (1,))
        with pytest.raises(TypeError):
            symmetric_word_sum(letters)
        with pytest.raises(TypeError):
            NCPoly({letters: 1})

    @pytest.mark.parametrize("coeff", [0.1, "1/3"])
    def test_inexact_coefficients_rejected(self, coeff):
        with pytest.raises(TypeError, match="expected an int or Fraction"):
            NCPoly({(2,): coeff})
        with pytest.raises(TypeError, match="expected an int or Fraction"):
            NCPoly([((2,), coeff)])


#: Every word of length at most 3 over the letters 1..3.
short_letter_words = [
    word for length in range(4) for word in itertools.product(range(1, 4), repeat=length)
]

_sample = random.Random(32)

#: Pairs for the lattice-path oracle: every pair of short words, a fixed
#: sample of words of 4-6 letters 1..3 against every short word, and words
#: of 4-7 letters against single letters, the shapes ``_expansion`` forms.
oracle_pairs = [
    *itertools.product(short_letter_words, repeat=2),
    *(
        (tuple(_sample.choices(range(1, 4), k=length)), v)
        for length in (4, 5, 6)
        for _ in range(6)
        for v in short_letter_words
    ),
    *(
        (tuple(_sample.choices(range(1, 4), k=length)), (letter,))
        for length in (4, 5, 6, 7)
        for _ in range(8)
        for letter in (1, 2, 3)
    ),
]


class TestProducts:
    def test_star_of_single_letters(self):
        assert star((2,), (3,)) == NCPoly({(2, 3): 1, (3, 2): 1, (5,): 1})

    def test_sbar_of_single_letters(self):
        assert sbar((2,), (2,)) == NCPoly({(2, 2): 2, (4,): -1})

    def test_empty_word_is_unit(self):
        w = NCPoly({(2, 1, 3): 1})
        assert star(w, ()) == w
        assert star((), w) == w
        assert sbar(w, ()) == w

    def test_star_recursion_case(self):
        # z1 * z1z2 by hand: 2 z1z1z2 + z1z2z1 + z2z2 + z1z3.
        result = star((1,), (1, 2))
        assert result == NCPoly({(1, 1, 2): 2, (1, 2, 1): 1, (2, 2): 1, (1, 3): 1})

    def test_sbar_recursion_case(self):
        result = sbar((1,), (1, 2))
        assert result == NCPoly({(1, 1, 2): 2, (1, 2, 1): 1, (2, 2): -1, (1, 3): -1})

    def test_products_preserve_letter_weight(self):
        # Every word in the product carries the same total letter sum.
        for product in (star, sbar):
            result = product((2, 3), (4, 1))
            for word, _ in result.items():
                assert sum(word) == 10

    @pytest.mark.parametrize("product, sign", [(star, 1), (sbar, -1)], ids=["star", "sbar"])
    def test_matches_lattice_path_oracle(self, product, sign):
        for u, v in oracle_pairs:
            assert dict(product(u, v).items()) == brute_force.word_product(u, v, sign), (u, v)

    def test_bilinearity(self):
        a = NCPoly({(2,): 1, (3,): 2})
        b = NCPoly({(1, 1): 1})
        expected = brute_force.poly_add(star((2,), b).terms, brute_force.poly_scale(star((3,), b).terms, 2))
        assert star(a, b).terms == expected


class TestUnorderedPairs:
    @pytest.mark.parametrize("u, v", [((7, 1, 5), (2, 6)), ((3,), (1, 1, 2)), ((2, 2, 1), (2, 2))])
    def test_swapped_product_adds_no_miss(self, u, v):
        # The product commutes, so the cache keeps one entry per unordered
        # pair of words: the swapped products are all hits.
        product = star(u, v)
        misses = quasi_shuffle._word_product.cache_info().misses
        assert star(v, u) == product
        assert dict(sbar(v, u).items()) == brute_force.word_product(u, v, -1)
        assert dict(sbar(u, v).items()) == brute_force.word_product(u, v, -1)
        assert quasi_shuffle._word_product.cache_info().misses == misses


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
    """Nonzero integer numerators over one positive denominator in lowest
    terms, equal and hashing equal to what the public constructor makes of
    ``terms``, and every coefficient in ``terms`` a nonzero Fraction."""
    rebuilt = NCPoly(p.terms)
    return (
        p.den > 0
        and math.gcd(p.den, *p.nums.values()) == 1
        and all(type(c) is int and c != 0 for c in p.nums.values())
        and p == rebuilt
        and hash(p) == hash(rebuilt)
        and all(type(c) is Fraction and c != 0 for c in p.terms.values())
    )


class TestCanonicalResults:
    @settings(deadline=None, max_examples=60)
    @given(ncpolys, ncpolys)
    def test_results_are_canonical(self, u, v):
        for result in (u, v, star(u, v), sbar(u, v)):
            assert is_canonical(result)

    def test_cancelled_words_are_dropped(self):
        # The mixed products z2*z1 and z1*z2 cancel term by term.
        u = NCPoly({(2,): 1, (1,): -1})
        v = NCPoly({(1,): 1, (2,): 1})
        for product in (star, sbar):
            result = product(u, v)
            assert is_canonical(result)
            high, low = product((2,), (2,)).terms, product((1,), (1,)).terms
            assert result.terms.keys() == brute_force.poly_add(high, brute_force.poly_neg(low)).keys()

    @settings(deadline=None, max_examples=60)
    @given(ncpolys, ncpolys)
    def test_rational_coefficients_expand_termwise(self, u, v):
        for product in (star, sbar):
            expected = {}
            for w1, c1 in u.items():
                for w2, c2 in v.items():
                    term = brute_force.poly_scale(product(w1, w2).terms, c1 * c2)
                    expected = brute_force.poly_add(expected, term)
            assert product(u, v).terms == expected


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
# 954 word products, one per unordered pair of words, holding 11,683
# distinct words, and a spot-checks repetition 955-957, far under the
# floor), or every table depth the CLI admits.  The CLI keeps its one
# argument parser, the expansion cache the 258 expansions of the costliest
# admitted word, the letters 1..8, in both modes, and the template cache
# every shape whose templates are kept (the words suite forms 15), and the
# examples module its one gallery, built on first use.  Every
# monomial-identity miss is also an elimination-rows miss, so the rows cache
# keeps at least as many entries as the monomial identities.  The orbit
# splits are one per symmetric weight: the mzv suite at --max-n 5 builds 25
# weights, a build-wide repetition 8.
CACHE_FLOORS = {
    "bernoulli_sums._identity_rows": 226,
    "cli._build_parser": 1,
    "derivative_tables.f_table": 49,
    "derivative_tables.g_table": 49,
    "examples._gallery": 1,
    "mzv_identities._orbit_split": 25,
    "mzv_identities._sorted_power_sum": 31,
    "quasi_shuffle._expansion": 258,
    "quasi_shuffle._path_templates": 49,
    "quasi_shuffle._word_product": 8_400,
    "rationals.zeta_even": 17,
    "series._phi_power": 33,
    "series._product": 62,
    "series._symmetric": 78,
    "series._weights": 2,
    "zeta_identities._monomial_identity": 226,
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
        assert p == NCPoly({(2, 2): 2})

        q = symmetric_word_sum((1, 2))
        assert q == NCPoly({(1, 2): 1, (2, 1): 1})

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
            partition_word_sum((1,) * 9, "star")
        with pytest.raises(ValueError):
            verify_symmetric_sum((1,) * 7)
        with pytest.raises(ValueError):
            verify_symmetric_sum(())


def _multisets(letters, depths):
    for depth in depths:
        yield from itertools.combinations_with_replacement(letters, depth)


class TestPartitionExpansion:
    @pytest.mark.parametrize("mode", ["star", "sbar"])
    def test_matches_partition_by_partition_oracle(self, mode):
        for kvec in _multisets(range(1, 5), range(1, 6)):
            expected = brute_force.partition_word_sum(kvec, mode)
            assert partition_word_sum(kvec, mode).terms == expected, kvec

    @pytest.mark.parametrize("fault", ["drop", "flip", "parity"])
    def test_kernel_fault_fails_the_check(self, monkeypatch, fault):
        # Drop, sign-flip or move into the wrong parity part the terms of
        # each word product whose words start with the two first letters
        # merged; the expansion goes through that kernel, so the
        # symmetric-sum check must fail at every depth from 2 on.
        kernel = quasi_shuffle._word_product.__wrapped__

        def faulty(left, right):
            even, odd = kernel(left, right)
            if not left or not right:
                return even, odd
            merged = left[0] + right[0]

            def split(part):
                terms = list(zip(*part))
                return (
                    [t for t in terms if t[0][0] != merged],
                    [t for t in terms if t[0][0] == merged],
                )

            def negated(terms):
                return [(w, -c) for w, c in terms]

            def part(terms):
                return tuple(w for w, _ in terms), tuple(c for _, c in terms)

            (even_kept, even_merged), (odd_kept, odd_merged) = split(even), split(odd)
            if fault == "drop":
                return part(even_kept), part(odd_kept)
            if fault == "flip":
                return part(even_kept + negated(even_merged)), part(odd_kept + negated(odd_merged))
            return part(even_kept + odd_merged), part(odd_kept + even_merged)

        # Expansions cached with the right kernel would hide the fault, and
        # expansions cached with the faulty one would reach later tests.
        _clear_word_caches()
        monkeypatch.setattr(quasi_shuffle, "_word_product", faulty)
        try:
            for kvec in _multisets(range(1, 4), range(2, 5)):
                assert not verify_symmetric_sum(kvec).ok, kvec
        finally:
            monkeypatch.undo()
            _clear_word_caches()

    @pytest.mark.parametrize("depth", [6, 7])
    def test_deep_words_match_the_permutation_sum(self, depth):
        # Every multiset of the words suite's letters at depths past its own;
        # verify_symmetric_sum admits depth 6 at most.
        for kvec in _multisets(range(1, 4), [depth]):
            expected = symmetric_word_sum(kvec)
            for mode in ("star", "sbar"):
                assert partition_word_sum(kvec, mode) == expected, (kvec, mode)
            if depth == 6:
                result = verify_symmetric_sum(kvec)
                assert result.ok, result.describe()

    @pytest.mark.parametrize("kvec", [(1, 1, 1, 2, 2, 2, 3, 3), (3,) * 8])
    def test_words_at_the_depth_cap(self, kvec):
        expected = symmetric_word_sum(kvec)
        for mode in ("star", "sbar"):
            assert partition_word_sum(kvec, mode) == expected, mode


class TestPathTemplates:
    def test_templates_of_long_pairs_are_not_kept(self, monkeypatch):
        # Past the bound a pair builds its templates for the call alone.
        monkeypatch.setattr(quasi_shuffle, "_TEMPLATE_MAX_LENGTH", 4)
        _clear_word_caches()
        for u, v in [((1, 2), (2, 1)), ((1, 2, 3), (2, 1)), ((3, 1, 2, 1), (2,)), ((2,), (2, 2, 1, 3))]:
            for product, sign in ((star, 1), (sbar, -1)):
                assert dict(product(u, v).items()) == brute_force.word_product(u, v, sign), (u, v)
        # Only the 2 x 2 shape is kept.
        assert quasi_shuffle._path_templates.cache_info().currsize == 1


def _clear_word_caches():
    quasi_shuffle._expansion.cache_clear()
    quasi_shuffle._path_templates.cache_clear()
    quasi_shuffle._word_product.cache_clear()
    quasi_shuffle._words.clear()


class _WatchedTable(dict):
    """A word table that records its largest size and how often it was
    cleared."""

    peak = 0
    clears = 0

    def setdefault(self, key, default):
        value = super().setdefault(key, default)
        self.peak = max(self.peak, len(self))
        return value

    def clear(self):
        self.clears += 1
        super().clear()


#: Bytes the word-product cache may hold after ``words_suite(5)`` from cold
#: caches.  It held 13.9 MB while each entry kept its own words as (word,
#: coefficient) pairs, 5.3 MB with shared words in parallel tuples, and
#: 3.0 MB, path templates included, since products are read off templates
#: and keep no suffix-pair entries.
WORDS_SUITE_HELD_BYTES = 7 << 19


class TestWordTable:
    def test_entries_share_equal_words(self):
        _clear_word_caches()
        star((1, 2, 1), (2, 1))
        # That product's entry, read as a cache hit, and entries of pairs it
        # did not form, formed here.
        for left, right in [((1, 2, 1), (2, 1)), ((2, 1), (2, 1)), ((1, 2, 1), (1,)), ((2, 1), (1,))]:
            for words, coeffs in quasi_shuffle._word_product(left, right):
                assert len(words) == len(coeffs)
                for word in words:
                    assert quasi_shuffle._words[word] is word, (left, right, word)

    def test_parts_are_disjoint_shared_and_exact(self, monkeypatch):
        # Every ordered pair of words of length <= 3 over the letters 1..4,
        # so that many paths meet on one word, as in (2, 2, 1) x (2, 2, 3),
        # besides the pairs whose paths all give distinct words.
        words = [w for length in range(4) for w in itertools.product(range(1, 5), repeat=length)]
        table = _WatchedTable()
        monkeypatch.setattr(quasi_shuffle, "_words", table)
        quasi_shuffle._word_product.cache_clear()
        for u, v in itertools.product(words, repeat=2):
            even, odd = quasi_shuffle._word_product(u, v)
            for part_words, coeffs in (even, odd):
                assert len(part_words) == len(coeffs) == len(set(part_words)), (u, v)
                for word in part_words:
                    if u and v:
                        assert table[word] is word, (u, v, word)
                    else:
                        # A product with the empty word holds the other word.
                        assert word is (u or v), (u, v)
            assert not set(even[0]) & set(odd[0]), (u, v)
            assert dict(star(u, v).items()) == brute_force.word_product(u, v, 1), (u, v)
            assert dict(sbar(u, v).items()) == brute_force.word_product(u, v, -1), (u, v)
        assert table.clears == 0

    @pytest.mark.parametrize("bound", [16, 200])
    def test_table_stays_within_its_bound(self, monkeypatch, bound):
        # Bound 16 is below the size of some single parts, which then keep
        # their own words; both bounds are passed many times over.
        pairs = list(itertools.product(short_letter_words, repeat=2))
        expected = [(star(u, v), sbar(u, v)) for u, v in pairs]
        table = _WatchedTable()
        monkeypatch.setattr(quasi_shuffle, "_WORD_TABLE_SIZE", bound)
        monkeypatch.setattr(quasi_shuffle, "_words", table)
        quasi_shuffle._word_product.cache_clear()
        for (u, v), products in zip(pairs, expected):
            assert (star(u, v), sbar(u, v)) == products, (u, v)
            assert dict(star(u, v).items()) == brute_force.word_product(u, v, 1), (u, v)
        assert table.clears > 1
        assert 0 < table.peak <= bound

    def test_words_suite_memory_is_bounded(self):
        _clear_word_caches()
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = words_suite(5)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert report.ok and report.passed == 265
        assert held < WORDS_SUITE_HELD_BYTES, f"{held / 1e6:.2f} MB held"
