"""Exact polynomial arithmetic over rationals, univariate and multivariate,
plus a parser for polynomial text in variables x1..xn.

Every type here keeps integer numerators over one denominator, in lowest
terms.  ``UniPoly`` is dense (low degree first), for the coefficient
polynomials in one variable k, and carries the arithmetic the identities
are built with.  ``_Combination`` is the sparse form, a read-only mapping
from key to numerator with equality and hashing but no arithmetic;
``MultiPoly`` (keyed by exponent tuples), for the weight polynomials in the
summation indices, and ``quasi_shuffle.NCPoly`` (keyed by words) build on
it.  A weight is parsed, tested for symmetry, collapsed block by block and
rendered, never added or multiplied.  All are immutable and hashable, and
all reject floats and strings: only ints and ``Fraction`` values
(``Scalar``) enter.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Sequence, Union

__all__ = ["NEG_INFINITY", "MultiPoly", "ParseError", "UniPoly", "max_parse_degree", "parse_poly"]

#: Degree reported for the zero polynomial.
NEG_INFINITY = float("-inf")

#: The scalars every exact type in the package accepts.
Scalar = Union[int, Fraction]

#: Largest exponent the parser accepts; keeps pathological inputs from
#: expanding into astronomically many terms.
_MAX_EXPONENT = 64

#: Most monomials a parsed polynomial may be able to hold.  A polynomial of
#: total degree D in n variables has at most C(D + n, n) of them, so the
#: parser caps the total degree (see ``max_parse_degree``).
_MAX_PARSE_TERMS = 1_000

#: Most bits the parser lets the coefficients of one product or power, and of
#: the whole weight, take: numerators and common denominator alike (see
#: ``_coefficient_bits``).  It keeps every rendered coefficient of an
#: admitted weight's identity below Python's 4,300-digit limit on int-to-str
#: conversion.
_MAX_COEFFICIENT_BITS = 8192

#: Most parentheses the parser lets nest.  Each level recurses four frames
#: deep, so this keeps the parser far from the interpreter's recursion limit.
_MAX_NESTING = 64


def _as_rational(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class UniPoly:
    """Dense univariate polynomial with exact rational coefficients.

    Stored as integer numerators over one denominator: the coefficient of
    x**i is ``nums[i] / den``.  The form is canonical -- ``nums`` has no
    trailing zeros, ``den > 0`` and gcd(den, *nums) == 1, so ``den`` is the
    least common denominator and zero is ((), 1) -- and all arithmetic runs
    on the integers, with one normalisation per result.  ``nums`` and
    ``den`` are read-only; ``coeffs`` gives the coefficients as Fractions.
    """

    __slots__ = ("nums", "den")

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        values = [_as_rational(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in values))
        self._store([c.numerator * (den // c.denominator) for c in values], den)

    @classmethod
    def _normalised(cls, nums: list[int], den: int) -> "UniPoly":
        """The polynomial sum_i nums[i]/den x**i, for den > 0."""
        poly = object.__new__(cls)
        poly._store(nums, den)
        return poly

    def _store(self, nums: list[int], den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        common = math.gcd(den, *nums)
        object.__setattr__(self, "nums", tuple(x // common for x in nums))
        object.__setattr__(self, "den", den // common)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("UniPoly is immutable")

    def __reduce__(self) -> tuple:
        return UniPoly, (self.coeffs,)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly()

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((1,))

    @staticmethod
    def constant(value: Scalar) -> "UniPoly":
        return UniPoly((value,))

    @staticmethod
    def x() -> "UniPoly":
        return UniPoly((0, 1))

    @staticmethod
    def monomial(power: int) -> "UniPoly":
        if power < 0:
            raise ValueError(f"monomial power must be >= 0, got {power}")
        return UniPoly((0,) * power + (1,))

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """``coeffs[i]`` is the coefficient of x**i, up to the degree."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def degree(self) -> int | float:
        return len(self.nums) - 1 if self.nums else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of x**i (zero outside the stored range)."""
        if i < 0:
            raise ValueError(f"coefficient index must be >= 0, got {i}")
        return Fraction(self.nums[i], self.den) if i < len(self.nums) else Fraction(0)

    def leading(self) -> Fraction:
        if not self.nums:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "UniPoly | Scalar") -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        a = [x * (den // self.den) for x in self.nums]
        b = [x * (den // other.den) for x in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, x in enumerate(b):
            a[i] += x
        return UniPoly._normalised(a, den)

    __radd__ = __add__

    def __sub__(self, other: "UniPoly | Scalar") -> "UniPoly":
        if not isinstance(other, (UniPoly, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "UniPoly":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return UniPoly.constant(other) - self

    def __neg__(self) -> "UniPoly":
        return UniPoly._normalised([-x for x in self.nums], self.den)

    def __mul__(self, other: "UniPoly | Scalar") -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly._normalised(
                [x * other.numerator for x in self.nums], self.den * other.denominator
            )
        if not isinstance(other, UniPoly):
            return NotImplemented
        return UniPoly.dot([(self, other)])

    __rmul__ = __mul__

    @staticmethod
    def dot(pairs: Iterable[tuple["UniPoly", "UniPoly"]]) -> "UniPoly":
        """The sum of p * q over ``pairs``.

        Every product is convolved on integer numerators over the lcm of the
        pairs' denominators, and the sum is normalised once at the end.
        """
        pairs = [(p, q) for p, q in pairs if p.nums and q.nums]
        den = math.lcm(*(p.den * q.den for p, q in pairs))
        acc: list[int] = []
        for p, q in pairs:
            scale = den // (p.den * q.den)
            acc.extend([0] * (len(p.nums) + len(q.nums) - 1 - len(acc)))
            for a, x in enumerate(p.nums):
                if x:
                    x *= scale
                    for b, y in enumerate(q.nums):
                        acc[a + b] += x * y
        return UniPoly._normalised(acc, den)

    def __truediv__(self, other: Scalar) -> "UniPoly":
        scale = _as_rational(other)
        if not scale:
            raise ZeroDivisionError("polynomial division by zero scalar")
        return self * (Fraction(1) / scale)

    def __pow__(self, exponent: int) -> "UniPoly":
        """Power by square-and-multiply."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial exponent must be a nonnegative int, got {exponent!r}")
        result, base = UniPoly.one(), self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def derivative(self) -> "UniPoly":
        return UniPoly._normalised([i * x for i, x in enumerate(self.nums) if i], self.den)

    def __call__(self, point: Scalar) -> Fraction:
        """Evaluate by Horner's rule on integers, with point = p/q:
        sum_i nums[i] p^i q^(d-i) over den * q^d, d the degree."""
        x = _as_rational(point)
        acc, scale = 0, 1
        for c in reversed(self.nums):
            acc = acc * x.numerator + c * scale
            scale *= x.denominator
        return Fraction(acc * x.denominator, self.den * scale)

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash(("UniPoly", self.nums, self.den))

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __repr__(self) -> str:
        return f"UniPoly(nums={self.nums!r}, den={self.den})"


class _Combination:
    """Finite rational linear combination of keys: the storage, equality
    and hashing of ``MultiPoly`` (keyed by exponent tuples) and
    ``quasi_shuffle.NCPoly`` (keyed by words).

    Stored as integer numerators over one denominator: the coefficient of a
    key is ``nums[key] / den``.  The form is canonical -- no zero numerator
    is stored, ``den > 0`` and gcd(den, *nums) == 1, so zero is ({}, 1) --
    and the code that forms combinations works on the integer numerators
    and makes each result with ``_normalised``.  ``nums`` (a read-only
    mapping) and ``den`` cannot be changed; ``terms`` gives the
    coefficients as Fractions.

    A subclass checks each key in ``_validated_key`` and holds in its first
    own slots the shape its keys share (the arity of a ``MultiPoly``), which
    ``_shape`` returns.  Values of different types or shapes are never
    equal.
    """

    __slots__ = ("nums", "den")

    nums: Mapping
    den: int

    def __init__(self, terms: Mapping | Iterable[tuple] = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict = {}
        for key, coeff in items:
            key = self._validated_key(key)
            data[key] = data.get(key, 0) + _as_rational(coeff)
        den = math.lcm(*(c.denominator for c in data.values()))
        self._store({key: c.numerator * (den // c.denominator) for key, c in data.items()}, den)

    @classmethod
    def _normalised(cls, nums: dict, den: int, *shape: object) -> "_Combination":
        """The combination sum_key nums[key]/den key, for den > 0 and valid
        keys; ``shape`` fills the subclass's first slots in order."""
        combo = object.__new__(cls)
        for name, value in zip(cls.__slots__, shape):
            object.__setattr__(combo, name, value)
        combo._store(nums, den)
        return combo

    def _store(self, nums: dict, den: int) -> None:
        nums = {key: c for key, c in nums.items() if c}
        common = math.gcd(den, *nums.values())
        if common != 1:
            nums = {key: c // common for key, c in nums.items()}
        object.__setattr__(self, "nums", MappingProxyType(nums))
        object.__setattr__(self, "den", den // common)

    def _shape(self) -> tuple:
        """The values of the subclass's own slots, in order."""
        return ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self) -> tuple:
        return type(self), (*self._shape(), self.terms)

    @property
    def terms(self) -> dict:
        """A new dict from each key present to its nonzero coefficient."""
        return {key: Fraction(c, self.den) for key, c in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Combination):
            return NotImplemented
        return (
            type(self) is type(other)
            and self._shape() == other._shape()
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, *self._shape(), self.den, frozenset(self.nums.items())))


class MultiPoly(_Combination):
    """Sparse multivariate polynomial in variables x1..x(arity), with exact
    rational coefficients in the canonical form of ``_Combination``: the
    coefficient of the monomial with exponent tuple e (length == arity,
    entries >= 0) is ``nums[e] / den``.
    """

    __slots__ = ("arity", "_symmetric")

    arity: int
    nums: Mapping[tuple[int, ...], int]

    def __init__(
        self,
        arity: int,
        terms: Mapping[tuple[int, ...], Scalar] | Iterable[tuple[tuple[int, ...], Scalar]] = (),
    ) -> None:
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        object.__setattr__(self, "arity", arity)
        super().__init__(terms)

    def _shape(self) -> tuple[int]:
        return (self.arity,)

    def _validated_key(self, expts: Sequence[int]) -> tuple[int, ...]:
        key = tuple(operator.index(e) for e in expts)
        if len(key) != self.arity:
            raise ValueError(f"exponent tuple {key} does not match arity {self.arity}")
        if any(e < 0 for e in key):
            raise ValueError(f"exponents must be >= 0, got {key}")
        return key

    # -- constructors ------------------------------------------------------

    @staticmethod
    def monomial(expts: Sequence[int], coeff: Scalar = 1) -> "MultiPoly":
        expts = tuple(expts)
        return MultiPoly(len(expts), {expts: coeff})

    # -- inspection --------------------------------------------------------

    def degree(self) -> int | float:
        if not self.nums:
            return NEG_INFINITY
        return max(map(sum, self.nums))

    def is_symmetric(self) -> bool:
        """True when invariant under every permutation of the variables.

        It suffices to test the adjacent transpositions, which generate the
        whole symmetric group.  The polynomial is immutable, so the answer
        is kept on it: a weight that the ``identity`` command admits and the
        mzv or mzsv builder checks again is tested once.
        """
        symmetric = getattr(self, "_symmetric", None)
        if symmetric is None:
            nums = self.nums
            symmetric = all(
                nums.get((*expts[:pos], expts[pos + 1], expts[pos], *expts[pos + 2 :])) == c
                for pos in range(self.arity - 1)
                for expts, c in nums.items()
            )
            object.__setattr__(self, "_symmetric", symmetric)
        return symmetric

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text accepted back by ``parse_poly``.

        Monomials appear in descending lexicographic order of exponent
        tuples, the usual display convention (x1^2 before x2).  Magnitudes
        are written from ``nums`` and ``den`` as ``str`` of the reduced
        ``Fraction`` would write them.
        """
        if not self.nums:
            return "0"
        den = self.den
        pieces: list[str] = []
        for expts, num in sorted(self.nums.items(), reverse=True):
            factors = [
                f"x{index}" if power == 1 else f"x{index}^{power}"
                for index, power in enumerate(expts, start=1)
                if power
            ]
            magnitude = abs(num)
            if magnitude != den or not factors:
                common = math.gcd(magnitude, den)
                top, bottom = magnitude // common, den // common
                factors.insert(0, str(top) if bottom == 1 else f"{top}/{bottom}")
            body = "*".join(factors)
            if pieces:
                pieces.append(f"- {body}" if num < 0 else f"+ {body}")
            else:
                pieces.append(f"-{body}" if num < 0 else body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self.arity}, {self.render()!r})"


class ParseError(ValueError):
    """Polynomial text rejected; ``position`` is the 0-based offset of the problem."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


_Token = tuple[str, Any, int]  # kind, value, position


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch, start = text[i], i
        i += 1
        if ch.isspace():
            continue
        if "0" <= ch <= "9":
            while i < len(text) and "0" <= text[i] <= "9":
                i += 1
            tokens.append(("int", int(text[start:i]), start))
        elif ch.isalpha() or ch == "_":
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("name", text[start:i], start))
        elif ch in "+-*/^()":
            tokens.append((ch, ch, start))
        else:
            raise ParseError(f"unexpected character {ch!r}", start)
    tokens.append(("end", "", len(text)))
    return tokens


def _product(left: dict, right: dict) -> dict:
    """The expanded product of two parsed polynomials, cancelled terms dropped."""
    out: dict = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            key = tuple(map(operator.add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _coefficient_bits(terms: dict) -> int:
    """Bits that bound a factor's share of a product's coefficients.

    Over its common denominator D a factor has integer numerators below
    2^(bits of the largest numerator + bits of D), and a product of factors
    sums at most the product of their term counts, so the numerators and the
    denominator of every coefficient of the product have at most the sum of
    this value over the factors in bits.
    """
    values = terms.values()
    den = math.lcm(*(c.denominator for c in values))
    top = max((abs(c.numerator).bit_length() for c in values), default=0)
    return top + den.bit_length() + len(terms).bit_length()


def _admit_bits(position: int, *factors: dict) -> None:
    """Refuse a product of ``factors`` whose coefficients could pass the limit."""
    bits = sum(map(_coefficient_bits, factors))
    if bits > _MAX_COEFFICIENT_BITS:
        raise ParseError(
            f"coefficients of up to {bits} bits exceed the limit {_MAX_COEFFICIENT_BITS}",
            position,
        )


class _Parser:
    """Recursive descent over the grammar

        expr    := ('+' | '-')? term (('+' | '-') term)*
        term    := factor ('*' factor)*
        factor  := primary ('^' INT)?
        primary := INT ('/' INT)? | VARIABLE | '(' expr ')'

    with VARIABLE one of x1..xn, its index written without a leading zero.
    There is no implicit multiplication.
    Every production returns a dict from exponent tuple to nonzero int or
    Fraction coefficient; ``parse`` makes the one ``MultiPoly``.
    """

    def __init__(self, text: str, arity: int) -> None:
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0
        self.arity = arity
        self.max_degree = max_parse_degree(arity)

    def _next(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def _accept(self, kinds: str) -> _Token | None:
        """The next token if its kind is one of ``kinds``, consumed."""
        return self._next() if self.tokens[self.pos][0] in kinds else None

    def parse(self) -> MultiPoly:
        terms = self._expr()
        kind, value, position = self._next()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", position)
        # A sum is not a product, but its terms' denominators can still
        # multiply into one common denominator past the limit.
        _admit_bits(self.tokens[0][2], terms)
        return MultiPoly(self.arity, terms)

    def _expr(self) -> dict:
        # Each term is added into one accumulator, in place.
        acc: dict = {}
        sign = self._accept("+-")
        while True:
            negate = sign and sign[0] == "-"
            for key, c in self._term().items():
                acc[key] = acc.get(key, 0) + (-c if negate else c)
            if not (sign := self._accept("+-")):
                return {key: c for key, c in acc.items() if c}

    def _admit(self, position: int, *factors: dict) -> None:
        """Refuse a product of ``factors`` whose total degree or coefficient
        bits exceed their limits."""
        degree = sum(max(map(sum, f), default=NEG_INFINITY) for f in factors)
        if degree > self.max_degree:
            raise ParseError(
                f"total degree {degree} exceeds the limit {self.max_degree} "
                f"with arity {self.arity}",
                position,
            )
        _admit_bits(position, *factors)

    def _term(self) -> dict:
        position, terms = self.tokens[self.pos][2], self._factor()
        if self.tokens[self.pos][0] != "*":  # a lone factor: no product admits it
            self._admit(position, terms)
        while star := self._accept("*"):
            rhs = self._factor()
            self._admit(star[2], terms, rhs)
            terms = _product(terms, rhs)
        return terms

    def _factor(self) -> dict:
        base = self._primary()
        if not self._accept("^"):
            return base
        kind, value, position = self._next()
        if kind != "int":
            raise ParseError("expected a nonnegative integer exponent", position)
        if value > _MAX_EXPONENT:
            raise ParseError(f"exponent {value} exceeds the limit {_MAX_EXPONENT}", position)
        self._admit(position, *[base] * value)
        terms = {(0,) * self.arity: 1}
        for _ in range(value):
            terms = _product(terms, base)
        return terms

    def _primary(self) -> dict:
        kind, value, position = self._next()
        if kind == "int":
            if self._accept("/"):
                dkind, dvalue, dposition = self._next()
                if dkind != "int":
                    raise ParseError("expected an integer denominator", dposition)
                if dvalue == 0:
                    raise ParseError("zero denominator", dposition)
                value = Fraction(value, dvalue)
            return {(0,) * self.arity: value} if value else {}
        if kind == "name":
            body = value[1:]
            named = value.startswith("x") and body.isascii() and body.isdigit() and body[0] != "0"
            index = int(body) if named else 0
            if 1 <= index <= self.arity:
                return {tuple(int(i == index) for i in range(1, self.arity + 1)): 1}
            raise ParseError(f"unknown variable {value!r} (expected x1..x{self.arity})", position)
        if kind == "(":
            if self.nesting == _MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than the limit {_MAX_NESTING}", position)
            self.nesting += 1
            terms = self._expr()
            self.nesting -= 1
            ckind, _, cposition = self._next()
            if ckind != ")":
                raise ParseError("expected ')'", cposition)
            return terms
        raise ParseError("expected a number, a variable, or '('", position)


def max_parse_degree(arity: int) -> int:
    """Largest total degree ``parse_poly`` admits in ``arity`` variables.

    It is the largest D <= 64 with C(D + arity, arity) <= 1,000, the most
    monomials such a polynomial can have: 64 for one variable, 43 for two,
    16 for three, 9 for four, 4 for eight.
    """
    degree = 0
    while degree < _MAX_EXPONENT and math.comb(degree + 1 + arity, arity) <= _MAX_PARSE_TERMS:
        degree += 1
    return degree


def parse_poly(text: str, arity: int) -> MultiPoly:
    """Parse polynomial text over the variables x1..x{arity}.

    Accepted syntax: integer and a/b rational literals, variables x1..xn,
    the operators + - * ^, and parentheses.  Multiplication is always
    explicit.  Malformed input raises ``ParseError`` with the offset of the
    offending token.  So does a term, product or power whose total degree
    would exceed ``max_parse_degree(arity)``, or whose coefficients could
    take more than 8,192 bits; it is refused before it is expanded.  So is a
    weight whose own coefficients, bounded the same way, could pass 8,192
    bits, as a sum of terms with large coprime denominators can.
    So does a parenthesis nested more than 64 deep, before it is read.
    """
    return _Parser(text, arity).parse()
