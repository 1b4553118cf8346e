"""Bernoulli numbers, rational helpers and the shared growable table.

The recurrence implementation is checked against an independent oracle:
the coefficients of t/(e^t - 1) computed by long division of power series.
"""

import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evenzeta import bernoulli, f_table, g_table
from evenzeta import derivative_tables
from evenzeta.rationals import GrowableTable, _next_bernoulli


def series_quotient_coeffs(count):
    """First `count` coefficients of t/(e^t - 1) by power-series division.

    The denominator (e^t - 1)/t has coefficients 1/(j+1)!; divide 1 by it
    term by term.  Independent of the recurrence used in the package.
    """
    den = [Fraction(1, math.factorial(j + 1)) for j in range(count)]
    out = []
    for i in range(count):
        acc = Fraction(1) if i == 0 else Fraction(0)
        for j in range(1, i + 1):
            acc -= den[j] * out[i - j]
        out.append(acc / den[0])
    return out


class TestBernoulliValues:
    def test_seed_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)

    def test_known_table(self):
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(6) == Fraction(1, 42)
        assert bernoulli(8) == Fraction(-1, 30)
        assert bernoulli(10) == Fraction(5, 66)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_indices_vanish(self):
        for i in range(3, 42, 2):
            assert bernoulli(i) == 0

    def test_even_sign_alternates(self):
        # B_{2j} has sign (-1)^{j+1} for j >= 1.
        for j in range(1, 21):
            value = bernoulli(2 * j)
            assert value != 0
            assert (value > 0) == (j % 2 == 1)

    def test_against_series_division_oracle(self):
        # t/(e^t - 1) = sum B_i t^i / i!, so coefficient i equals B_i/i!.
        coeffs = series_quotient_coeffs(31)
        for i in range(31):
            assert coeffs[i] == bernoulli(i) / math.factorial(i)

    def test_recurrence_invariant(self):
        # sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1.
        for n in range(1, 41):
            total = sum(math.comb(n + 1, j) * bernoulli(j) for j in range(n + 1))
            assert total == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestBernoulliTable:
    def test_fresh_table_matches_shared(self):
        table = GrowableTable(Fraction(1), _next_bernoulli)
        for i in range(25):
            assert table.value(i) == bernoulli(i)


class TestGrowableTable:
    """One append-only table class backs the Bernoulli numbers and both
    derivative triangles; every prefix handed out is shared, never copied."""

    @pytest.mark.parametrize(
        "fresh, reference, depths",
        [
            (
                lambda: GrowableTable(Fraction(1), _next_bernoulli),
                lambda d: [bernoulli(i) for i in range(d + 1)],
                [80, 64, 40, 80, 72, 20],
            ),
            (
                lambda: GrowableTable(f_table(0).rows[0], derivative_tables._f_step),
                lambda d: f_table(d).rows,
                [18, 24, 12, 24, 21, 6],
            ),
            (
                lambda: GrowableTable(g_table(0).rows[0], derivative_tables._g_step),
                lambda d: g_table(d).rows,
                [18, 24, 12, 24, 21, 6],
            ),
        ],
        ids=["bernoulli", "f_triangle", "g_triangle"],
    )
    def test_concurrent_extension(self, fresh, reference, depths):
        # A fresh table grown by several threads at once, to different
        # depths, must agree with the single-threaded build.
        table = fresh()
        start = threading.Barrier(len(depths))
        results = {}

        def worker(index, depth):
            start.wait()
            results[index] = table.prefix(depth)

        threads = [threading.Thread(target=worker, args=item) for item in enumerate(depths)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so extensions overlap
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        expected = tuple(reference(max(depths)))
        deepest = depths.index(max(depths))
        for index, depth in enumerate(depths):
            entries = results[index]
            assert entries == expected[: depth + 1]
            for i, entry in enumerate(entries):
                assert entry is results[deepest][i]


rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)


class TestRationalField:
    @given(rationals, rationals, rationals)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(rationals)
    def test_inverse(self, a):
        if a != 0:
            assert a * (1 / a) == 1
