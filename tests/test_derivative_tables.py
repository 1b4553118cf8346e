"""Derivative coefficient tables and their inverse triangle.

The inverse table is built by its own recursion and checked against an
independent oracle: generic back-substitution inversion of the forward
triangle, written here without reference to the package's recursion.  Both
triangles are also checked at depth against ``brute_force.f_triangle`` and
``g_triangle``, which run the documented recursions on plain ``Fraction``
lists.
"""

import math
from fractions import Fraction

import pytest

import brute_force

from evenzeta import (
    UniPoly,
    c_coeffs,
    d_coeffs,
    f_table,
    g_table,
)

T = UniPoly.x()
DEPTH = 12


def invert_unit_triangle(depth):
    """Invert the triangular system sum_j f[m][j] g[j-1][i] = delta.

    Treats row m of f (entries i = 1..m+1; the i = 0 entry is outside the
    triangle) as a lower-triangular matrix row in the basis h, h^2, ...
    and solves for g columnwise by forward substitution.
    """
    f = f_table(depth)
    g = [[None] * (m + 2) for m in range(depth + 1)]
    for m in range(depth + 1):
        # Diagonal first: f[m][m+1] is a constant, nonzero.
        diag = f.entry(m, m + 1)
        assert diag.degree() == 0
        g[m][m + 1] = UniPoly.one() / diag.coefficient(0)
        for i in range(m, 0, -1):
            acc = UniPoly.zero()
            for j in range(i, m + 1):
                acc = acc + f.entry(m, j) * g[j - 1][i]
            g[m][i] = -acc / diag.coefficient(0)
    return g


class TestFTable:
    def test_recorded_rows(self):
        f = f_table(3)
        assert f.entry(0, 0) == (T - 2) / 2
        assert f.entry(0, 1) == UniPoly.one()
        assert f.entry(1, 1) == 1 - T
        assert f.entry(2, 1) == T**2 - 3 * T + 1
        assert f.entry(2, 2) == 3 * T - 3
        assert f.entry(3, 4) == UniPoly.constant(-6)

    def test_diagonal_is_signed_factorial(self):
        f = f_table(DEPTH)
        for m in range(DEPTH + 1):
            expected = Fraction((-1) ** m * math.factorial(m))
            assert f.entry(m, m + 1) == UniPoly.constant(expected)

    def test_degrees(self):
        # deg f_{m,i} = m + 1 - i for i >= 1.
        f = f_table(DEPTH)
        for m in range(DEPTH + 1):
            for i in range(1, m + 2):
                assert f.entry(m, i).degree() == m + 1 - i

    def test_integer_coefficients(self):
        f = f_table(DEPTH)
        for m in range(DEPTH + 1):
            for i in range(1, m + 2):
                for c in f.entry(m, i).coeffs:
                    assert c.denominator == 1

    def test_alternating_row_sum(self):
        # sum_{i=1}^{m+1} (-1)^{i-1} f_{m,i}(t) t^{i-1} = 1: substituting
        # h = -1/t into the h-expansion collapses every row to a constant.
        f = f_table(DEPTH)
        for m in range(DEPTH + 1):
            total = UniPoly.zero()
            for i in range(1, m + 2):
                total = total + (-1) ** (i - 1) * f.entry(m, i) * T ** (i - 1)
            assert total == UniPoly.one()

    def test_row_bounds(self):
        f = f_table(2)
        with pytest.raises(ValueError):
            f.entry(3, 0)
        with pytest.raises(ValueError):
            f.entry(1, 3)


class TestGTable:
    def test_recorded_entries(self):
        g = g_table(4)
        assert g.entry(0, 1) == UniPoly.one()
        assert g.entry(2, 1) == (2 * T**2 - 3 * T + 2) / 2
        assert g.entry(2, 2) == (3 * T - 3) / 2
        assert g.entry(4, 5) == UniPoly.constant(Fraction(1, 24))

    def test_diagonal(self):
        g = g_table(DEPTH)
        for m in range(DEPTH + 1):
            expected = Fraction((-1) ** m, math.factorial(m))
            assert g.entry(m, m + 1) == UniPoly.constant(expected)

    def test_degree_bound(self):
        g = g_table(DEPTH)
        for m in range(DEPTH + 1):
            for i in range(1, m + 2):
                assert g.entry(m, i).degree() <= m + 1 - i

    def test_inversion_identity(self):
        # sum_{j=i}^{m+1} f_{m,j} g_{j-1,i} = delta_{i,m+1}.
        f = f_table(DEPTH)
        g = g_table(DEPTH)
        for m in range(DEPTH + 1):
            for i in range(1, m + 2):
                acc = UniPoly.zero()
                for j in range(i, m + 2):
                    acc = acc + f.entry(m, j) * g.entry(j - 1, i)
                expected = UniPoly.one() if i == m + 1 else UniPoly.zero()
                assert acc == expected

    def assert_matches_oracle(self, depth):
        g = g_table(depth)
        oracle = invert_unit_triangle(depth)
        for m in range(depth + 1):
            for i in range(1, m + 2):
                assert g.entry(m, i) == oracle[m][i]

    def test_matches_back_substitution_oracle(self):
        self.assert_matches_oracle(DEPTH)

    def test_matches_back_substitution_oracle_at_depth_20(self):
        self.assert_matches_oracle(20)


class TestRecursionOracle:
    """Every entry equals the plain-Fraction recursion and is canonical."""

    @pytest.mark.parametrize(
        "build, oracle, first",
        [(f_table, brute_force.f_triangle, 0), (g_table, brute_force.g_triangle, 1)],
    )
    def test_matches_fraction_recursion_at_depth_32(self, build, oracle, first):
        table, expected = build(32), oracle(32)
        for m in range(33):
            for i in range(first, m + 2):
                poly = table.entry(m, i)
                assert poly.den > 0
                assert math.gcd(poly.den, *poly.nums) == 1
                assert not poly.nums or poly.nums[-1] != 0
                assert list(poly.coeffs) == expected[m][i - first]


class TestSharedTriangles:
    """Both triangles grow in one shared table; every depth is a prefix."""

    @pytest.mark.parametrize("build", [f_table, g_table])
    def test_rows_are_shared_not_copied(self, build):
        shallow, deep = build(5), build(9)
        assert len(shallow.rows) == 6 and len(deep.rows) == 10
        for m in range(6):
            assert shallow.rows[m] is deep.rows[m]


class TestLeadingCoefficientTables:
    def test_c_matches_f_leading(self):
        # c_{m,i} is the leading coefficient of f_{m,i}: the i = 0 column
        # has degree 1 (coefficient 1/2), the rest degree m + 1 - i.
        f = f_table(DEPTH)
        c = c_coeffs(DEPTH)
        for m in range(DEPTH + 1):
            assert c[m][0] == f.entry(m, 0).leading() == Fraction(1, 2)
            for i in range(1, m + 2):
                assert c[m][i] == f.entry(m, i).coefficient(m + 1 - i)

    def test_c_recorded_values(self):
        c = c_coeffs(6)
        for m in range(7):
            assert c[m][0] == Fraction(1, 2)
            assert c[m][1] == (-1) ** m
            assert c[m][m + 1] == (-1) ** m * math.factorial(m)

    def test_c_sign_pattern(self):
        # sign(c_{m,i}) = (-1)^m for 1 <= i <= m+1.
        c = c_coeffs(DEPTH)
        for m in range(DEPTH + 1):
            for i in range(1, m + 2):
                assert c[m][i] != 0
                assert (c[m][i] > 0) == (m % 2 == 0)

    def test_alternating_c_sum(self):
        # sum_{i=1}^{m+1} (-1)^i c_{m,i} = -delta_{m,0}.
        c = c_coeffs(DEPTH)
        for m in range(DEPTH + 1):
            total = sum((-1) ** i * c[m][i] for i in range(1, m + 2))
            assert total == (-1 if m == 0 else 0)

    def test_d_matches_g_leading(self):
        # d_{m,i} is the coefficient of t^{m+1-i} in g_{m,i}.
        g = g_table(DEPTH)
        d = d_coeffs(DEPTH)
        for m in range(DEPTH + 1):
            for i in range(1, m + 2):
                assert d[m][i - 1] == g.entry(m, i).coefficient(m + 1 - i)

    def test_d_recorded_values(self):
        d = d_coeffs(6)
        for m in range(7):
            assert d[m][0] == (-1) ** m
            assert d[m][m] == Fraction((-1) ** m, math.factorial(m))
