"""Polynomial arithmetic and the expression parser."""

from fractions import Fraction

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute_force
from evenzeta import MultiPoly, ParseError, UniPoly, max_parse_degree, parse_poly, polynomials

X = UniPoly.x()


class TestUniPolyBasics:
    def test_construction_trims_trailing_zeros(self):
        p = UniPoly([1, 2, 0, 0])
        assert p.coeffs == (1, 2)
        assert p.degree() == 1

    def test_zero(self):
        assert UniPoly.zero().is_zero()
        assert UniPoly.zero().degree() == float("-inf")

    def test_leading(self):
        assert (3 * X**2 + X).leading() == 3
        with pytest.raises(ValueError):
            UniPoly.zero().leading()

    def test_coefficient_out_of_range(self):
        assert (X + 1).coefficient(5) == 0

    def test_arithmetic(self):
        p = X**2 - 1
        q = X + 1
        assert p - q * (X - 1) == UniPoly.zero()
        assert (p + q).coefficient(0) == 0
        assert (2 * q) / 2 == q

    def test_pow(self):
        cube = (X - 2) ** 3
        assert cube.coeffs == (-8, 12, -6, 1)
        assert (X**0) == UniPoly.one()

    def test_evaluate(self):
        p = 2 * X**3 - X + Fraction(1, 2)
        assert p(Fraction(1, 2)) == Fraction(1, 4)

    def test_derivative(self):
        p = X**4 + 3 * X
        assert p.derivative() == 4 * X**3 + 3
        assert UniPoly.constant(7).derivative().is_zero()

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            UniPoly([0.5])

    def test_reflected_subtraction(self):
        assert 1 - X == UniPoly((1, -1))
        assert Fraction(1, 2) - X == UniPoly((Fraction(1, 2), -1))
        with pytest.raises(TypeError, match="for -:"):
            "a" - X

    def test_repr(self):
        assert repr(UniPoly((Fraction(1, 2), 0, 3))) == "UniPoly(nums=(1, 0, 6), den=2)"
        assert repr(UniPoly(())) == "UniPoly(nums=(), den=1)"

    def test_immutable(self):
        p = X + 1
        with pytest.raises(AttributeError):
            p.coeffs = (9,)

    def test_hashable(self):
        assert len({X + 1, X + 1, X}) == 2

    def test_equality_reads_every_coefficient(self):
        # Polynomials of degree 60 over one denominator that differ only at
        # degree 45 are unequal; equal ones built two ways hash equal.
        base = UniPoly([Fraction(k, 7) for k in range(1, 62)])
        moved = base + UniPoly.monomial(45)
        assert moved.den == base.den and moved.nums[:45] == base.nums[:45]
        assert base != moved and moved != base
        rebuilt = moved - UniPoly.monomial(45)
        assert rebuilt == base and hash(rebuilt) == hash(base)


coeffs = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6
)
unipolys = st.lists(coeffs, max_size=5).map(UniPoly)


coeff_lists = st.lists(coeffs, max_size=5)


def trimmed(values):
    values = list(values)
    while values and not values[-1]:
        values.pop()
    return values


# Oracle: polynomials as plain lists of Fractions, lowest power first.
def ref_add(a, b):
    longer, shorter = (a, b) if len(a) >= len(b) else (b, a)
    return trimmed(x + (shorter[i] if i < len(shorter) else 0) for i, x in enumerate(longer))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trimmed(out)


def ref_eval(a, point):
    return sum((x * point**i for i, x in enumerate(a)), Fraction(0))


def assert_canonical(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(x) is int for x in p.nums)
    assert not p.nums or p.nums[-1] != 0
    assert math.gcd(p.den, *p.nums) == 1


def assert_matches(p, values):
    assert_canonical(p)
    assert list(p.coeffs) == trimmed(values)
    expected = UniPoly(values)
    assert (p.nums, p.den, hash(p)) == (expected.nums, expected.den, hash(expected))


class TestIntegerRepresentation:
    def test_least_common_denominator(self):
        p = UniPoly([Fraction(1, 2), Fraction(-1, 3), 0])
        assert (p.nums, p.den) == ((3, -2), 6)
        assert p.coeffs == (Fraction(1, 2), Fraction(-1, 3))

    def test_zero_is_empty_over_one(self):
        for zero in (UniPoly(), UniPoly([0, 0]), X - X, 0 * (X + Fraction(1, 3))):
            assert (zero.nums, zero.den) == ((), 1)

    def test_normalised_after_cancellation(self):
        p = (X / 6 + Fraction(1, 6)) + (X / 3 - Fraction(1, 6))
        assert (p.nums, p.den) == ((0, 1), 2)

    def test_dot_sum_of_products(self):
        # (1 + 2x)(3 - x) + x^2 * 1 + 0 * 5 = 3 + 5x - x^2
        pairs = [
            (UniPoly([1, 2]), UniPoly([3, -1])),
            (X**2, UniPoly.one()),
            (UniPoly.zero(), UniPoly.constant(5)),
        ]
        assert UniPoly.dot(pairs) == UniPoly([3, 5, -1])

    def test_dot_over_common_denominator(self):
        # 1/2 * 1/3 + 1/6 * 1 = 1/3, normalised once at the end.
        half, third, sixth = (UniPoly.constant(Fraction(1, d)) for d in (2, 3, 6))
        total = UniPoly.dot([(half, third), (sixth, UniPoly.one())])
        assert (total.nums, total.den) == ((1,), 3)

    def test_dot_of_no_pairs_is_zero(self):
        total = UniPoly.dot([])
        assert (total.nums, total.den) == ((), 1)

    def test_dot_with_zero_factors(self):
        total = UniPoly.dot([(UniPoly.zero(), X), (X + 1, UniPoly.zero())])
        assert (total.nums, total.den) == ((), 1)

    @given(coeff_lists, coeff_lists)
    def test_add_and_mul_match_oracle(self, a, b):
        p, q = UniPoly(a), UniPoly(b)
        assert_matches(p + q, ref_add(a, b))
        assert_matches(p - q, ref_add(a, [-x for x in b]))
        assert_matches(p * q, ref_mul(a, b))
        assert_matches(q * p, ref_mul(a, b))

    @given(st.lists(st.tuples(coeff_lists, coeff_lists), max_size=4))
    def test_dot_matches_oracle(self, pairs):
        expected = []
        for a, b in pairs:
            expected = ref_add(expected, ref_mul(a, b))
        assert_matches(UniPoly.dot((UniPoly(a), UniPoly(b)) for a, b in pairs), expected)

    @given(coeff_lists, coeffs)
    def test_scalar_mul_matches_oracle(self, a, scale):
        assert_matches(UniPoly(a) * scale, [x * scale for x in a])
        if scale:
            assert_matches(UniPoly(a) / scale, [x / scale for x in a])

    @given(coeff_lists)
    def test_derivative_matches_oracle(self, a):
        assert_matches(UniPoly(a).derivative(), [i * x for i, x in enumerate(a)][1:])

    @given(coeff_lists, coeffs)
    def test_call_matches_oracle(self, a, point):
        value = UniPoly(a)(point)
        assert type(value) is Fraction
        assert value == ref_eval(a, point)


class TestUniPolyRingLaws:
    @given(unipolys, unipolys, unipolys)
    def test_mul_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(unipolys, unipolys, unipolys)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(unipolys, unipolys)
    def test_mul_commutative(self, p, q):
        assert p * q == q * p

    @given(unipolys, unipolys)
    def test_degree_of_product(self, p, q):
        if not p.is_zero() and not q.is_zero():
            assert (p * q).degree() == p.degree() + q.degree()

    @given(unipolys, unipolys, st.integers(-5, 5))
    def test_evaluation_is_homomorphism(self, p, q, point):
        assert (p * q)(point) == p(point) * q(point)
        assert (p + q)(point) == p(point) + q(point)


class TestMultiPoly:
    def test_degree(self):
        assert MultiPoly(2, {(2, 3): 1, (4, 0): 1}).degree() == 5
        assert MultiPoly.monomial((2, 3), Fraction(1, 2)).degree() == 5
        assert MultiPoly(2).degree() == float("-inf")

    def test_is_symmetric(self):
        assert parse_poly("x1^2 + x2^2", 2).is_symmetric()
        assert parse_poly("x1*x2", 2).is_symmetric()
        assert not parse_poly("x1^2*x2", 2).is_symmetric()
        assert MultiPoly(4, {(0, 0, 0, 0): Fraction(1, 3)}).is_symmetric()

    @pytest.mark.parametrize("exponent", [1.5, "1", Fraction(1)])
    def test_non_integral_exponents_rejected(self, exponent):
        with pytest.raises(TypeError):
            MultiPoly(2, [((exponent, 0), 1)])
        with pytest.raises(TypeError):
            MultiPoly(2, {(0, exponent): Fraction(1, 2)})

    def test_render_is_canonical(self):
        p = parse_poly("3/2*x1 - x2", 2)
        assert p.render() == "3/2*x1 - x2"
        assert parse_poly("x2 + x1^2", 2).render() == "x1^2 + x2"
        assert MultiPoly(2).render() == "0"


class TestParser:
    def test_rational_literals(self):
        assert parse_poly("3/4", 1) == MultiPoly(1, {(0,): Fraction(3, 4)})

    def test_precedence(self):
        assert parse_poly("x1 + 2*x1^2", 1).terms == {(1,): 1, (2,): 2}

    def test_parentheses(self):
        assert parse_poly("(x1 + x2)^2", 2) == parse_poly(
            "x1^2 + 2*x1*x2 + x2^2", 2
        )

    def test_unary_minus(self):
        assert parse_poly("-x1 + 1", 1) == parse_poly("1 - x1", 1)
        assert parse_poly("-x1^2", 1) == MultiPoly(1, {(2,): -1})
        assert parse_poly("x1*(-x2)", 2) == MultiPoly(2, {(1, 1): -1})

    @pytest.mark.parametrize("text, position", [("x1*-x2", 3), ("x1 - -x2", 5), ("--x1", 1)])
    def test_sign_only_where_an_expression_opens(self, text, position):
        with pytest.raises(ParseError) as info:
            parse_poly(text, 2)
        assert info.value.position == position

    def test_whitespace_insensitive(self):
        assert parse_poly(" x1 *x2+ 1 ", 2) == parse_poly("x1*x2+1", 2)

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x3", 2)
        assert info.value.position == 0

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x1 x2", 2)

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse_poly("(x1 + x2", 2)

    def test_negative_exponent(self):
        with pytest.raises(ParseError):
            parse_poly("x1^-2", 1)

    def test_exponent_cap(self):
        parse_poly("x1^64", 1)
        with pytest.raises(ParseError):
            parse_poly("x1^65", 1)

    def test_degree_limit_values(self):
        assert [max_parse_degree(n) for n in (1, 2, 3, 4, 8)] == [64, 43, 16, 9, 4]
        for n in range(3, 12):
            d = max_parse_degree(n)
            assert math.comb(d + n, n) <= 1000 < math.comb(d + 1 + n, n)

    def test_power_degree_limit(self, monkeypatch):
        base = "(x1 + x2 + x3 + x4)"
        degrees = []
        expand = polynomials._product

        def recording(left, right):
            degrees.append(max(map(sum, left)) + max(map(sum, right)))
            return expand(left, right)

        monkeypatch.setattr(polynomials, "_product", recording)
        assert parse_poly(f"{base}^9", 4).degree() == 9
        assert max(degrees) == 9

        def refuse(left, right):
            raise AssertionError("expanded an over-limit power")

        monkeypatch.setattr(polynomials, "_product", refuse)
        with pytest.raises(ParseError) as info:
            parse_poly(f"{base}^10", 4)
        assert "total degree 10 exceeds the limit 9" in str(info.value)

    def test_product_degree_limit(self, monkeypatch):
        base = "(x1 + x2 + x3 + x4)"
        degrees = []
        expand = polynomials._product

        def recording(left, right):
            degrees.append(max(map(sum, left)) + max(map(sum, right)))
            return expand(left, right)

        monkeypatch.setattr(polynomials, "_product", recording)
        assert parse_poly("*".join([base] * 9), 4).degree() == 9
        assert max(degrees) == 9
        degrees.clear()
        text = "*".join([base] * 10)
        with pytest.raises(ParseError) as info:
            parse_poly(text, 4)
        assert info.value.position == text.rindex("*")
        assert max(degrees) == 9

    @pytest.mark.parametrize(
        "text, expected",
        [("(x1^43 - x1^43)*x1^43", "0"), ("0*x2^43", "0"), ("(x2^43 - x2^43 + x1)^43", "x1^43")],
    )
    def test_cancelled_terms_do_not_count_toward_the_limit(self, text, expected):
        assert parse_poly(text, 2).render() == expected

    def test_a_zero_factor_has_no_degree(self):
        # At arity 1000 the limit is 0, so a product with x1 is admitted only
        # when the other factor is zero.
        assert max_parse_degree(1000) == 0
        assert parse_poly("0*x1", 1000).is_zero()
        with pytest.raises(ParseError, match="total degree 1 exceeds"):
            parse_poly("2*x1", 1000)

    @pytest.mark.parametrize("text, arity, position", [("٣*x1", 2, 0), ("x١", 2, 0), ("x1^²", 1, 3)])
    def test_only_ascii_digits(self, text, arity, position):
        with pytest.raises(ParseError) as info:
            parse_poly(text, arity)
        assert info.value.position == position

    @pytest.mark.parametrize("text, position", [("x001+x2", 0), ("x1+x02", 3), ("x1*x010", 3), ("x0", 0)])
    def test_variable_index_has_no_leading_zero(self, text, position):
        # The variables are x1..xn as written: x01 is not x1, nor x010 x10.
        with pytest.raises(ParseError, match="unknown variable") as info:
            parse_poly(text, 10)
        assert info.value.position == position

    def test_dense_weight_at_the_degree_limit(self):
        text, coeffs = brute_force.dense_weight(3, max_parse_degree(3))
        assert len(coeffs) == 969
        assert parse_poly(text, 3) == MultiPoly(3, coeffs)

    def test_nesting_at_the_limit(self):
        # 64 nested levels parse; the 65th opening parenthesis is refused at
        # its own offset, before the parser recurses into it.
        limit = polynomials._MAX_NESTING
        text = "2*(" * limit + "x1 + 1" + ")" * limit
        assert parse_poly(text, 1) == MultiPoly(1, {(0,): 2**limit, (1,): 2**limit})
        with pytest.raises(ParseError, match="nest deeper") as info:
            parse_poly("2*(" * (limit + 1) + "x1" + ")" * (limit + 1), 1)
        assert info.value.position == 3 * limit + 2

    def test_coefficient_bits_at_the_limit(self, monkeypatch):
        # A 126-bit constant counts 126 + 1 (its denominator 1) + 1 (one
        # term) bits per factor, so its 64th power sits at the limit of
        # 8,192; one bit more is refused at the exponent, before expanding.
        limit = polynomials._MAX_COEFFICIENT_BITS
        assert limit == 64 * 128
        base = 2**125 + 3
        assert parse_poly(f"({base})^64*x1^48", 1) == MultiPoly(1, {(48,): base**64})
        monkeypatch.setattr(polynomials, "_product", lambda left, right: pytest.fail("expanded"))
        text = f"({2 * base})^64"
        with pytest.raises(ParseError, match="8256 bits exceed the limit 8192") as info:
            parse_poly(text, 1)
        assert info.value.position == text.rindex("64")

    @pytest.mark.parametrize(
        "text, position",
        [
            # The third power of the tower would have 2^(64^3) as coefficient.
            ("(((((2)^64)^64)^64)^64)^64", 16),
            ("((2^64)^64)^4", 12),
            ("(2^64)^64*(2^64)^64", 9),
            # Two terms whose denominators multiply past the limit.
            (f"({3**39}/{7**22})^64*x1 + ({3**39}/{11**18})^64*x1^2", 0),
        ],
    )
    def test_coefficient_bits_past_the_limit(self, text, position):
        with pytest.raises(ParseError, match="exceed the limit 8192") as info:
            parse_poly(text, 1)
        assert info.value.position == position

    def test_nesting_counts_open_parentheses_only(self):
        # Parentheses side by side do not add up towards the limit.
        assert parse_poly(" + ".join(["((x1))"] * 200), 1) == MultiPoly(1, {(1,): 200})

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_poly("1/0", 1)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_poly("", 1)


@st.composite
def multipolys(draw):
    arity = draw(st.integers(1, 3))
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        expts = tuple(draw(st.integers(0, 3)) for _ in range(arity))
        terms[expts] = draw(coeffs)
    return MultiPoly(arity, terms)


class OverLimit(Exception):
    """The tree holds a product or power the parser must refuse."""


@st.composite
def expression_trees(draw):
    """An arity and an expression tree over it: ("const", q), ("var", i),
    ("neg", t), (op, a, b) for op in + - *, or ("^", t, exponent)."""
    arity = draw(st.integers(1, 3))
    leaves = st.one_of(
        st.tuples(st.just("const"), coeffs), st.tuples(st.just("var"), st.integers(1, arity))
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*"), children, children),
            st.tuples(st.just("neg"), children),
            st.tuples(st.just("^"), children, st.integers(0, 9)),
        )

    return arity, draw(st.recursive(leaves, extend, max_leaves=8))


def tree_text(tree, level=0):
    """The tree as parser input, parenthesised where its precedence (0 sum,
    1 product, 2 power, 3 primary) is below ``level``."""
    kind = tree[0]
    if kind == "const":
        q = tree[1]
        text, own = (str(abs(q)), 3) if q >= 0 else (f"-{abs(q)}", 0)
    elif kind == "var":
        text, own = f"x{tree[1]}", 3
    elif kind == "neg":
        text, own = f"-{tree_text(tree[1], 1)}", 0
    elif kind == "^":
        text, own = f"{tree_text(tree[1], 3)}^{tree[2]}", 2
    elif kind == "*":
        text, own = f"{tree_text(tree[1], 1)}*{tree_text(tree[2], 2)}", 1
    else:
        text, own = f"{tree_text(tree[1], 0)} {kind} {tree_text(tree[2], 1)}", 0
    return text if own >= level else f"({text})"


def dict_degree(terms):
    return max(map(sum, terms), default=float("-inf"))


def tree_value(tree, arity):
    """The tree through the ``brute_force.poly_*`` dict arithmetic;
    ``OverLimit`` where a product or power would pass
    ``max_parse_degree(arity)``."""
    kind = tree[0]
    if kind == "const":
        return {(0,) * arity: tree[1]} if tree[1] else {}
    if kind == "var":
        return {tuple(int(i == tree[1]) for i in range(1, arity + 1)): Fraction(1)}
    if kind == "neg":
        return brute_force.poly_neg(tree_value(tree[1], arity))
    if kind == "^":
        base = tree_value(tree[1], arity)
        if tree[2] and dict_degree(base) * tree[2] > max_parse_degree(arity):
            raise OverLimit
        return brute_force.poly_pow(base, arity, tree[2])
    left, right = tree_value(tree[1], arity), tree_value(tree[2], arity)
    if kind == "*":
        if dict_degree(left) + dict_degree(right) > max_parse_degree(arity):
            raise OverLimit
        return brute_force.poly_mul(left, right)
    if kind == "-":
        right = brute_force.poly_neg(right)
    return brute_force.poly_add(left, right)


class TestParserOracle:
    @settings(deadline=None, max_examples=150)
    @given(expression_trees())
    def test_parse_matches_multipoly_arithmetic(self, case):
        arity, tree = case
        text = tree_text(tree)
        try:
            expected = tree_value(tree, arity)
        except OverLimit:
            with pytest.raises(ParseError, match="total degree"):
                parse_poly(text, arity)
        else:
            assert parse_poly(text, arity).terms == expected, text


class TestRenderRoundTrip:
    @given(multipolys())
    def test_parse_of_render(self, p):
        parsed = parse_poly(p.render(), p.arity)
        assert parsed == p
        assert is_canonical_multi(p) and is_canonical_multi(parsed)


class TestMultiPolyRepresentation:
    def test_numerators_over_least_common_denominator(self):
        p = parse_poly("1/2*x1^2 + 1/2*x2^2 - 2/3", 2)
        assert dict(p.nums) == {(2, 0): 3, (0, 2): 3, (0, 0): -4}
        assert p.den == 6

    def test_zero_is_empty_over_one(self):
        p = MultiPoly(1, [((1,), Fraction(1, 3)), ((1,), Fraction(-1, 3))])
        assert (dict(p.nums), p.den) == ({}, 1)
        assert p == MultiPoly(1) and p.is_zero()

    @pytest.mark.parametrize(
        "arity, terms, error",
        [
            (0, {}, ValueError),
            (2, {(1,): 1}, ValueError),
            (2, {(1, -1): 1}, ValueError),
            (2, {(1, 0): 0.5}, TypeError),
        ],
    )
    def test_constructor_validates(self, arity, terms, error):
        with pytest.raises(error):
            MultiPoly(arity, terms)

    def test_terms_is_a_fresh_copy(self):
        p = parse_poly("x1 + x2", 2)
        before = (hash(p), p.render(), p.terms)
        p.terms[(5, 5)] = Fraction(3)
        assert (hash(p), p.render(), p.terms) == before
        assert p == parse_poly("x1 + x2", 2)

    def test_zeroed_copy_leaves_the_poly(self):
        p = MultiPoly(2, {(1, 0): 1})
        p.terms[(1, 0)] = Fraction(0)
        assert repr(p) == "MultiPoly(2, 'x1')"
        assert not p.is_zero() and p == MultiPoly.monomial((1, 0))

    def test_numerators_are_read_only(self):
        p = parse_poly("x1 + 1/2", 1)
        with pytest.raises(AttributeError):
            p.nums = {}
        with pytest.raises(AttributeError):
            p.den = 1
        with pytest.raises(AttributeError):
            p.terms = {}
        with pytest.raises(TypeError):
            p.nums[(1,)] = 5
        assert p.render() == "x1 + 1/2"


def is_canonical_multi(p):
    """Nonzero integer numerators over one positive denominator in lowest
    terms, equal and hashing equal to what the public constructor makes of
    ``terms``, and every coefficient in ``terms`` a nonzero Fraction."""
    rebuilt = MultiPoly(p.arity, p.terms)
    return (
        type(p.den) is int
        and p.den > 0
        and math.gcd(p.den, *p.nums.values()) == 1
        and all(type(c) is int and c != 0 for c in p.nums.values())
        and p == rebuilt
        and hash(p) == hash(rebuilt)
        and all(type(c) is Fraction and c != 0 for c in p.terms.values())
    )

