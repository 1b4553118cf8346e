"""Exact polynomial arithmetic over rationals, univariate and multivariate,
plus a parser for polynomial text in variables x1..xn.

Every type here keeps integer numerators over one denominator, in lowest
terms.  ``UniPoly`` is dense (low degree first), for the coefficient
polynomials in one variable k.  ``_Combination`` is the sparse form, a
read-only mapping from key to numerator, with its linear arithmetic;
``MultiPoly`` (keyed by exponent tuples), for the weight polynomials in the
summation indices, and ``quasi_shuffle.NCPoly`` (keyed by words) build on
it.  All are immutable and hashable, and all reject floats and strings:
only ints and ``Fraction`` values (``Scalar``) enter.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

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


def _as_rational(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def _power(base, exponent: int, one):
    """``base ** exponent`` by square-and-multiply, from the unit ``one``."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError(f"polynomial exponent must be a nonnegative int, got {exponent!r}")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


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
    def monomial(power: int, coeff: Scalar = 1) -> "UniPoly":
        if power < 0:
            raise ValueError(f"monomial power must be >= 0, got {power}")
        return UniPoly((0,) * power + (coeff,))

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
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
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
            scale = _as_rational(other)
            return UniPoly._normalised(
                [x * scale.numerator for x in self.nums], self.den * scale.denominator
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
        return _power(self, exponent, UniPoly.one())

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

    def shift(self, offset: int) -> "UniPoly":
        """Return q with q(x) = p(x - offset), by repeated synthetic division."""
        if not isinstance(offset, int):
            raise TypeError(f"shift offset must be an int, got {type(offset).__name__}")
        nums = list(self.nums)
        for low in range(len(nums) - 1):
            for j in range(len(nums) - 2, low - 1, -1):
                nums[j] -= offset * nums[j + 1]
        return UniPoly._normalised(nums, self.den)

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
    """Finite rational linear combination of keys: the storage and the
    linear arithmetic of ``MultiPoly`` (keyed by exponent tuples) and
    ``quasi_shuffle.NCPoly`` (keyed by words).

    Stored as integer numerators over one denominator: the coefficient of a
    key is ``nums[key] / den``.  The form is canonical -- no zero numerator
    is stored, ``den > 0`` and gcd(den, *nums) == 1, so zero is ({}, 1) --
    and all arithmetic runs on the integers, with one normalisation per
    result.  ``nums`` (a read-only mapping) and ``den`` cannot be changed;
    ``terms`` gives the coefficients as Fractions.

    A subclass checks each key in ``_validated_key`` and holds in its own
    slots the shape its keys share (the arity of a ``MultiPoly``), which
    ``_shape`` returns.  Values of different types or shapes are never
    equal, and only values of one type and shape add.
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
        keys; ``shape`` fills the subclass's own slots in order."""
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

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: object) -> "_Combination | None":
        """``other`` as an addend of this type and shape, or None."""
        return other if type(other) is type(self) else None

    def __add__(self, other: "_Combination | Scalar") -> "_Combination":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        den = math.lcm(self.den, rhs.den)
        scale = den // rhs.den
        nums = {key: c * (den // self.den) for key, c in self.nums.items()}
        for key, c in rhs.nums.items():
            nums[key] = nums.get(key, 0) + c * scale
        return self._normalised(nums, den, *self._shape())

    __radd__ = __add__

    def __sub__(self, other: "_Combination | Scalar") -> "_Combination":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: Scalar) -> "_Combination":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs - self

    def __neg__(self) -> "_Combination":
        return self._normalised({key: -c for key, c in self.nums.items()}, self.den, *self._shape())

    def __mul__(self, other: Scalar) -> "_Combination":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        scale = _as_rational(other)
        return self._normalised(
            {key: c * scale.numerator for key, c in self.nums.items()},
            self.den * scale.denominator,
            *self._shape(),
        )

    __rmul__ = __mul__

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

    __slots__ = ("arity",)

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
    def zero(arity: int) -> "MultiPoly":
        return MultiPoly(arity)

    @staticmethod
    def constant(arity: int, value: Scalar) -> "MultiPoly":
        return MultiPoly(arity, {(0,) * arity: value})

    @staticmethod
    def variable(arity: int, index: int) -> "MultiPoly":
        """The variable x{index}, 1-based."""
        if not 1 <= index <= arity:
            raise ValueError(f"variable index must be in 1..{arity}, got {index}")
        expts = tuple(1 if i == index - 1 else 0 for i in range(arity))
        return MultiPoly(arity, {expts: 1})

    @staticmethod
    def monomial(expts: Sequence[int], coeff: Scalar = 1) -> "MultiPoly":
        expts = tuple(expts)
        return MultiPoly(len(expts), {expts: coeff})

    # -- inspection --------------------------------------------------------

    def degree(self) -> int | float:
        if not self.nums:
            return NEG_INFINITY
        return max(map(sum, self.nums))

    def monomials(self) -> list[tuple[Fraction, tuple[int, ...]]]:
        """Terms as (coefficient, exponents), exponent tuples in ascending
        lexicographic order."""
        return [(Fraction(self.nums[e], self.den), e) for e in sorted(self.nums)]

    def coefficient(self, expts: Sequence[int]) -> Fraction:
        return Fraction(self.nums.get(tuple(expts), 0), self.den)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.arity:
            raise ValueError(f"expected {self.arity} coordinates, got {len(point)}")
        coords = [_as_rational(p) for p in point]
        acc = Fraction(0)
        for expts, c in self.nums.items():
            term = Fraction(c)
            for base, power in zip(coords, expts):
                if power:
                    term *= base**power
            acc += term
        return acc / self.den

    def is_symmetric(self) -> bool:
        """True when invariant under every permutation of the variables.

        It suffices to test the adjacent transpositions, which generate the
        whole symmetric group.
        """
        nums = self.nums
        for pos in range(self.arity - 1):
            for expts, c in nums.items():
                swapped = (*expts[:pos], expts[pos + 1], expts[pos], *expts[pos + 2 :])
                if nums.get(swapped) != c:
                    return False
        return True

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: object) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            if other.arity != self.arity:
                raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.arity, other)
        return None

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return super().__mul__(other)
        rhs = self._coerce(other)
        nums: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.nums.items():
            for e2, c2 in rhs.nums.items():
                key = tuple(map(operator.add, e1, e2))
                nums[key] = nums.get(key, 0) + c1 * c2
        return MultiPoly._normalised(nums, self.den * rhs.den, self.arity)

    def __pow__(self, exponent: int) -> "MultiPoly":
        return _power(self, exponent, MultiPoly._normalised({(0,) * self.arity: 1}, 1, self.arity))

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


_Token = tuple[str, object, int]  # kind, value, position


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            tokens.append(("int", int(text[start:i]), start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("name", text[start:i], start))
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the grammar

        expr    := ('+' | '-')? term (('+' | '-') term)*
        term    := factor ('*' factor)*
        factor  := primary ('^' INT)?
        primary := INT ('/' INT)? | VARIABLE | '(' expr ')'

    with VARIABLE one of x1..xn.  There is no implicit multiplication.
    """

    def __init__(self, text: str, arity: int) -> None:
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        self.tokens = _tokenize(text)
        self.pos = 0
        self.arity = arity
        self.max_degree = max_parse_degree(arity)

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _next(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse(self) -> MultiPoly:
        poly = self._expr()
        kind, value, position = self._peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", position)
        return poly

    def _expr(self) -> MultiPoly:
        negate = False
        if self._peek()[0] in "+-":
            negate = self._next()[0] == "-"
        poly = self._term()
        if negate:
            poly = -poly
        while self._peek()[0] in "+-":
            op = self._next()[0]
            rhs = self._term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def _admit(self, degree: int | float, position: int) -> None:
        if degree > self.max_degree:
            raise ParseError(
                f"total degree {degree} exceeds the limit {self.max_degree} "
                f"with arity {self.arity}",
                position,
            )

    def _term(self) -> MultiPoly:
        poly = self._factor()
        while self._peek()[0] == "*":
            position = self._next()[2]
            rhs = self._factor()
            self._admit(poly.degree() + rhs.degree(), position)
            poly = poly * rhs
        return poly

    def _factor(self) -> MultiPoly:
        base = self._primary()
        if self._peek()[0] != "^":
            return base
        self._next()
        kind, value, position = self._next()
        if kind != "int":
            raise ParseError("expected a nonnegative integer exponent", position)
        assert isinstance(value, int)
        if value > _MAX_EXPONENT:
            raise ParseError(f"exponent {value} exceeds the limit {_MAX_EXPONENT}", position)
        if value:
            self._admit(base.degree() * value, position)
        return base**value

    def _primary(self) -> MultiPoly:
        kind, value, position = self._next()
        if kind == "int":
            assert isinstance(value, int)
            if self._peek()[0] == "/":
                self._next()
                dkind, dvalue, dposition = self._next()
                if dkind != "int":
                    raise ParseError("expected an integer denominator", dposition)
                assert isinstance(dvalue, int)
                if dvalue == 0:
                    raise ParseError("zero denominator", dposition)
                return MultiPoly.constant(self.arity, Fraction(value, dvalue))
            return MultiPoly.constant(self.arity, value)
        if kind == "name":
            assert isinstance(value, str)
            body = value[1:]
            if value.startswith("x") and body.isdigit() and 1 <= int(body) <= self.arity:
                return MultiPoly.variable(self.arity, int(body))
            raise ParseError(f"unknown variable {value!r} (expected x1..x{self.arity})", position)
        if kind == "(":
            poly = self._expr()
            ckind, _, cposition = self._next()
            if ckind != ")":
                raise ParseError("expected ')'", cposition)
            return poly
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
    offending token.  So does a product or power whose total degree would
    exceed ``max_parse_degree(arity)``; it is refused before it is expanded.
    """
    return _Parser(text, arity).parse()
