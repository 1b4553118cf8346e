"""A commutative word algebra modelling multiplication of nested series.

Words z_{k_1} ... z_{k_n} over positive integer letters multiply by two
bilinear rules defined recursively on first letters:

    z_k w_1 * z_l w_2 = z_k (w_1 * z_l w_2) + z_l (z_k w_1 * w_2)
                        +- z_{k+l} (w_1 * w_2)

with + for the ``star`` product and - for the ``sbar`` variant; the empty
word is the unit of both.  The symmetric sum of all reorderings of a word
factors over set partitions into iterated products of single letters, with
signed weights for ``star`` and plain weights for ``sbar``; that expansion is
what ``verify_symmetric_sum`` checks.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

from .checks import CheckResult
from .enumeration import partition_weight, set_partitions

__all__ = [
    "NCPoly",
    "Word",
    "is_admissible",
    "partition_word_sum",
    "sbar",
    "star",
    "symmetric_word_sum",
    "verify_symmetric_sum",
]

#: A word: a tuple of positive integer letters.  The empty tuple is the unit.
Word = tuple[int, ...]

Scalar = Union[int, Fraction]

#: Depth cap for materialising all permutations of a word.
_MAX_SYMMETRIC_DEPTH = 8

#: Depth cap for the full symmetric-sum verification sweep.
_MAX_VERIFY_DEPTH = 6

#: Entries kept by the word-product cache.  ``verify --suite words --max-n 5``
#: needs about 8,300 of them; the bound keeps a long-lived process from
#: holding every product it ever formed.
_WORD_PRODUCT_CACHE_SIZE = 1 << 14


def _validated_word(letters: Sequence[int]) -> Word:
    word = tuple(int(k) for k in letters)
    if any(k < 1 for k in word):
        raise ValueError(f"letters must be positive integers, got {word}")
    return word


class NCPoly:
    """Finite rational linear combination of words.

    Zero coefficients are never stored; the zero element has no terms.
    Scalar multiples and sums combine like terms exactly.
    """

    __slots__ = ("terms",)

    terms: dict[Word, Fraction]

    def __init__(
        self, terms: Mapping[Word, Scalar] | Iterable[tuple[Word, Scalar]] = ()
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[Word, Fraction] = {}
        for letters, coeff in items:
            word = _validated_word(letters)
            value = data.get(word, Fraction(0)) + Fraction(coeff)
            if value:
                data[word] = value
            else:
                data.pop(word, None)
        object.__setattr__(self, "terms", data)

    @classmethod
    def _trusted(cls, data: dict[Word, Fraction]) -> "NCPoly":
        """Wrap terms that are already canonical: words of positive letters
        mapped to nonzero ``Fraction`` coefficients.  Takes ``data`` over
        without copying or checking it."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", data)
        return poly

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("NCPoly is immutable")

    @staticmethod
    def zero() -> "NCPoly":
        return NCPoly()

    @staticmethod
    def unit() -> "NCPoly":
        """The empty word."""
        return NCPoly({(): 1})

    @staticmethod
    def from_word(letters: Sequence[int], coeff: Scalar = 1) -> "NCPoly":
        return NCPoly({tuple(letters): coeff})

    def items(self) -> list[tuple[Word, Fraction]]:
        """Terms in lexicographic word order."""
        return [(word, self.terms[word]) for word in sorted(self.terms)]

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "NCPoly") -> "NCPoly":
        if not isinstance(other, NCPoly):
            return NotImplemented
        data = dict(self.terms)
        for word, coeff in other.terms.items():
            value = data.get(word, 0) + coeff
            if value:
                data[word] = value
            else:
                del data[word]
        return NCPoly._trusted(data)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return NCPoly._trusted({w: -c for w, c in self.terms.items()})

    def __mul__(self, other: Scalar) -> "NCPoly":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return NCPoly()
        return NCPoly._trusted({w: c * other for w, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(("NCPoly", frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for word, coeff in self.items():
            body = "".join(f"z{k}" for k in word) or "1"
            if abs(coeff) != 1 or not word:
                body = f"{abs(coeff)}*{body}" if word else str(abs(coeff))
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"NCPoly({str(self)!r})"


@lru_cache(maxsize=_WORD_PRODUCT_CACHE_SIZE)
def _word_product(left: Word, right: Word, merge_sign: int) -> tuple[tuple[Word, int], ...]:
    """Product of two single words as a sorted tuple of (word, int coeff)."""
    if not left:
        return ((right, 1),)
    if not right:
        return ((left, 1),)
    head_left, head_right = left[0], right[0]
    acc: Counter[Word] = Counter()
    for word, c in _word_product(left[1:], right, merge_sign):
        acc[(head_left, *word)] += c
    for word, c in _word_product(left, right[1:], merge_sign):
        acc[(head_right, *word)] += c
    for word, c in _word_product(left[1:], right[1:], merge_sign):
        acc[(head_left + head_right, *word)] += merge_sign * c
    return tuple(sorted((w, c) for w, c in acc.items() if c))


def _coerce(value: "NCPoly | Sequence[int]") -> NCPoly:
    if isinstance(value, NCPoly):
        return value
    return NCPoly.from_word(_validated_word(value))


def _bilinear(u: NCPoly, v: NCPoly, merge_sign: int) -> NCPoly:
    # Word products have integer coefficients, so the whole sum is carried in
    # integers over the square of the common denominator of both factors,
    # and each word gets one Fraction.
    den = math.lcm(*(c.denominator for poly in (u, v) for c in poly.terms.values()))
    left, right = (
        [(w, c.numerator * (den // c.denominator)) for w, c in poly.terms.items()]
        for poly in (u, v)
    )
    acc: dict[Word, int] = {}
    for w1, a1 in left:
        for w2, a2 in right:
            scale = a1 * a2
            for word, c in _word_product(w1, w2, merge_sign):
                acc[word] = acc.get(word, 0) + scale * c
    denominator = den * den
    return NCPoly._trusted({word: Fraction(c, denominator) for word, c in acc.items() if c})


def star(u: "NCPoly | Sequence[int]", v: "NCPoly | Sequence[int]") -> NCPoly:
    """Quasi-shuffle product: merged letters carry a plus sign.

    Arguments may be ``NCPoly`` values or bare letter tuples.  Commutative
    and associative; the empty word is the unit.
    """
    return _bilinear(_coerce(u), _coerce(v), 1)


def sbar(u: "NCPoly | Sequence[int]", v: "NCPoly | Sequence[int]") -> NCPoly:
    """Signed variant: merged letters carry a minus sign."""
    return _bilinear(_coerce(u), _coerce(v), -1)


def is_admissible(value: "NCPoly | Sequence[int]") -> bool:
    """True when every word present is empty or starts with a letter >= 2.

    Admissible words span the subalgebra of convergent nested series; both
    products keep it closed.
    """
    poly = _coerce(value)
    return all(not word or word[0] >= 2 for word in poly.terms)


def symmetric_word_sum(kvec: Sequence[int]) -> NCPoly:
    """Sum of z_{k_sigma(1)} ... z_{k_sigma(n)} over all n! orderings.

    Repeated letters contribute with multiplicity, so the coefficients are
    the permutation counts of each distinct rearrangement.
    """
    word = _validated_word(kvec)
    if not 1 <= len(word) <= _MAX_SYMMETRIC_DEPTH:
        raise ValueError(f"depth must be in 1..{_MAX_SYMMETRIC_DEPTH}, got {len(word)}")
    counts = Counter(itertools.permutations(word))
    return NCPoly({rearranged: Fraction(count) for rearranged, count in counts.items()})


def partition_word_sum(kvec: Sequence[int], mode: str) -> NCPoly:
    """Set-partition expansion of the symmetric word sum.

    For each set partition of the letter positions, form one letter per block
    (the sum of its letters) and multiply those single-letter words with the
    product selected by ``mode``: "star" uses the + product with weights
    (-1)^(n-i) * prod (|P_j| - 1)!, "sbar" uses the - product with the
    unsigned weights.  Both modes reproduce ``symmetric_word_sum``.
    """
    if mode not in ("star", "sbar"):
        raise ValueError(f"mode must be 'star' or 'sbar', got {mode!r}")
    word = _validated_word(kvec)
    if not 1 <= len(word) <= _MAX_SYMMETRIC_DEPTH:
        raise ValueError(f"depth must be in 1..{_MAX_SYMMETRIC_DEPTH}, got {len(word)}")
    product = star if mode == "star" else sbar
    total = NCPoly.zero()
    for partition in set_partitions(len(word)):
        weight = partition_weight(partition)
        coeff = weight.c_tilde if mode == "star" else weight.c
        acc = NCPoly.unit()
        for block in partition:
            acc = product(acc, (sum(word[index - 1] for index in block),))
        total = total + coeff * acc
    return total


def verify_symmetric_sum(kvec: Sequence[int]) -> CheckResult:
    """Check the permutation sum against both set-partition expansions."""
    word = _validated_word(kvec)
    if not 1 <= len(word) <= _MAX_VERIFY_DEPTH:
        raise ValueError(f"depth must be in 1..{_MAX_VERIFY_DEPTH}, got {len(word)}")
    expected = symmetric_word_sum(word)
    via_star = partition_word_sum(word, "star")
    via_sbar = partition_word_sum(word, "sbar")
    ok = expected == via_star and expected == via_sbar
    return CheckResult(
        ok=ok,
        label=f"symmetric word sum k={word}",
        lhs=str(expected),
        rhs=f"star: {via_star}; sbar: {via_sbar}",
    )
