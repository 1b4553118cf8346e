"""Acceptance gate: ten end-to-end criteria with runtime budgets.

Each test prints one line, `acceptance N (summary): PASS/FAIL [elapsed]`,
visible under `pytest -s tests/test_acceptance.py`.  Budgets are enforced:
a criterion that produces the right values too slowly fails.
"""

import decimal
import math
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

from evenzeta import (
    UniPoly,
    bernoulli_identity,
    check_gallery_identity,
    gallery,
    mzsv_identity,
    mzv_identity,
    mzv_lhs_exact,
    mzv_numeric,
    parse_poly,
    tables_suite,
    verify_bernoulli,
    verify_mzv,
    verify_symmetric_sum,
    words_suite,
    zeta_even,
    zeta_identity_monomial,
)
from evenzeta.mzv_identities import _sorted_power_sum
from evenzeta.suites import _exponent_tuples as exponent_tuples, _weight_family

K = UniPoly.x()

# 50 significant digits; the numeric criterion compares against pi^4.
PI = Decimal("3.1415926535897932384626433832795028841971693993751")


@contextmanager
def criterion(number, summary, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"acceptance {number} ({summary}): FAIL [{elapsed:.2f} s]")
        raise
    elapsed = time.perf_counter() - start
    note = f"{elapsed:.2f} s" + (f" / budget {budget:g} s" if budget else "")
    if budget is not None and elapsed >= budget:
        print(f"acceptance {number} ({summary}): FAIL [{note}] over budget")
        raise AssertionError(f"criterion {number} exceeded {budget} s: {elapsed:.2f} s")
    print(f"acceptance {number} ({summary}): PASS [{note}]")


def weight_family(n):
    """The five weight polynomials of the cross-path criterion."""
    return [weight for _, weight in _weight_family(n)]


def test_criterion_01_bernoulli_gallery():
    with criterion(1, "depth-4 Bernoulli displays exact", budget=1.0):
        entries = gallery(2)
        assert len(entries) == 3
        for entry in entries:
            result = check_gallery_identity(entry)
            assert result.ok, result.describe()
        # Spot-check the flat display directly.
        identity = bernoulli_identity((0, 0, 0, 0))
        assert identity.terms[0] == -(K + 1) * (2 * K + 1) * (2 * K + 3) / 3
        assert identity.terms[1] == -2 * K / 3


def test_criterion_02_zeta_gallery():
    with criterion(2, "depth-4 zeta displays exact", budget=1.0):
        entries = gallery(3)
        assert len(entries) == 3
        for entry in entries:
            result = check_gallery_identity(entry)
            assert result.ok, result.describe()
        # The printed cubic-weight display, plus its symmetric-sum form
        # (four equal monomial contributions).
        cubic = zeta_identity_monomial((3, 0, 0, 0))
        assert cubic.terms[2] == 3 * (2 * K - 5) * (13 * K - 9) / 16
        from evenzeta import zeta_identity_poly

        symmetric = zeta_identity_poly(
            parse_poly("x1^3 + x2^3 + x3^3 + x4^3", 4), 4
        )
        assert symmetric.terms[2] == 4 * cubic.terms[2]


def test_criterion_03_mzv_gallery():
    with criterion(3, "depth-4 mzv/mzsv displays exact", budget=5.0):
        entries = gallery(4)
        assert len(entries) == 6
        for entry in entries:
            result = check_gallery_identity(entry)
            assert result.ok, result.describe()
        star = mzsv_identity(parse_poly("1", 4), 4)
        assert star.terms[0] == (4 * K - 5) * (8 * K**2 - 20 * K + 3) / 192


def test_criterion_04_bernoulli_brute_force():
    with criterion(4, "Bernoulli sums n<=4 |m|<=3 k<=12 exact", budget=30.0):
        checked = 0
        for n in range(1, 5):
            for mvec in exponent_tuples(n, 3):
                identity = bernoulli_identity(mvec)
                for k in range(n, 13):
                    result = verify_bernoulli(mvec, k, identity=identity)
                    assert result.ok, result.describe()
                    checked += 1
        assert checked == 673


def test_criterion_05_mzv_cross_path():
    with criterion(5, "mzv/mzsv pipeline vs series evaluator", budget=60.0):
        checked = 0
        for n in range(1, 5):
            for F in weight_family(n):
                identities = {
                    False: mzv_identity(F, n),
                    True: mzsv_identity(F, n),
                }
                for star in (False, True):
                    for k in range(n, 11):
                        result = verify_mzv(
                            F, n, k, star=star, identity=identities[star]
                        )
                        assert result.ok, result.describe()
                        checked += 1
        assert checked == 340


def test_criterion_06_two_fold_baseline():
    with criterion(6, "two-fold sum equals (3/4) zeta(2k)", budget=5.0):
        identity = mzv_identity(parse_poly("1", 2), 2)
        assert identity.T == 0
        assert identity.terms[0] == UniPoly.constant(Fraction(3, 4))
        for k in range(2, 11):
            lhs = mzv_lhs_exact(parse_poly("1", 2), 2, k)
            assert lhs == Fraction(3, 4) * zeta_even(k)


def test_criterion_07_word_sweep():
    with criterion(7, "symmetric word sums via both products", budget=10.0):
        from itertools import combinations_with_replacement

        for n in range(1, 5):
            for kvec in combinations_with_replacement(range(1, 4), n):
                result = verify_symmetric_sum(kvec)
                assert result.ok, result.describe()
        # Commutativity/associativity and admissibility closure.
        report = words_suite(4)
        assert report.ok, report.summary_line()
        assert report.failed == 0


def test_criterion_08_power_sum_closed_form():
    with criterion(8, "two-part composition power sums", budget=5.0):
        for p1 in range(6):
            for p2 in range(6):
                poly = _sorted_power_sum(tuple(sorted((p1, p2))))
                assert poly.degree() == p1 + p2 + 1
                assert poly.leading() == Fraction(
                    math.factorial(p1) * math.factorial(p2), math.factorial(p1 + p2 + 1)
                )
                for k in range(2, 31):
                    brute = sum(
                        Fraction(i) ** p1 * Fraction(k - i) ** p2
                        for i in range(1, k)
                    )
                    assert poly(k) == brute


def test_criterion_09_structural_invariants():
    with criterion(9, "table invariants and degree bounds", budget=60.0):
        report = tables_suite()
        assert report.ok, report.summary_line()
        assert report.failed == 0

        def degrees_ok(terms, r, n):
            for l, poly in enumerate(terms):
                if not poly.is_zero():
                    assert poly.degree() <= r + n - 2 * l - 1

        # Identities of criteria 1-4 (monomial weights).
        for n in range(1, 5):
            for mvec in exponent_tuples(n, 3):
                degrees_ok(bernoulli_identity(mvec).terms, sum(mvec), n)
                degrees_ok(zeta_identity_monomial(mvec).terms, sum(mvec), n)
        # Identities of criteria 5-6 (polynomial weights, both kinds).
        for n in range(1, 5):
            for F in weight_family(n):
                if F.is_zero():
                    continue
                r = int(F.degree())
                degrees_ok(mzv_identity(F, n).terms, r, n)
                degrees_ok(mzsv_identity(F, n).terms, r, n)


def test_criterion_10_numeric_sanity():
    with criterion(10, "numeric partial sums near pi^4 targets", budget=10.0):
        with decimal.localcontext() as ctx:
            ctx.prec = 45
            pi4 = PI**4
            target_22 = pi4 / 120
            target_4 = pi4 / 90

            approx_22, tail_22 = mzv_numeric((2, 2), 10**4)
            rel = abs(approx_22 - target_22) / target_22
            assert rel < Decimal("1e-3"), f"relative error {rel}"
            # The tail bound is honest: the truncation error sits inside it.
            assert abs(approx_22 - target_22) < tail_22

            approx_4, _ = mzv_numeric((4,), 10**3)
            assert abs(approx_4 - target_4) < Decimal("1e-8")
