"""A commutative word algebra modelling multiplication of nested series.

Words z_{k_1} ... z_{k_n} over positive integer letters multiply by two
bilinear rules defined recursively on first letters:

    z_k w_1 * z_l w_2 = z_k (w_1 * z_l w_2) + z_l (z_k w_1 * w_2)
                        +- z_{k+l} (w_1 * w_2)

with + for the ``star`` product and - for the ``sbar`` variant; the empty
word is the unit of both.  ``NCPoly`` keeps integer numerators over one
denominator, and both products run on one cached kernel: the ``star``
product of two words split by the parity of the number of merged letters,
so that ``sbar`` is the even part minus the odd part.  Each cached part is a
pair of parallel tuples, its words and their coefficients, and the words are
taken from a bounded table that holds one object per distinct word, so the
many entries that contain a word share it.  The symmetric sum of
all reorderings of a word factors over set partitions into iterated
products of single letters, with signed weights for ``star`` and plain
weights for ``sbar``; that expansion is what ``verify_symmetric_sum``
checks.  A partition's weight is a product of block weights and both
products commute and associate, so ``partition_word_sum`` enumerates no
partition: it splits off the block that holds the first letter, one
sub-multiset of the other letters at a time, and multiplies the cached
expansion of the letters left over by that block's letter, in integers.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Collection, Iterable, Mapping, Sequence

from .checks import CheckResult
from .polynomials import Scalar, _Combination

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

#: Depth cap for materialising all permutations of a word.
_MAX_SYMMETRIC_DEPTH = 8

#: Depth cap for the full symmetric-sum verification sweep.
_MAX_VERIFY_DEPTH = 6

#: Entries kept by the word-product cache, one per ordered pair of words for
#: both products.  ``verify --suite words --max-n 5`` forms 3,889 of them (a
#: ``spot-checks`` benchmark repetition 3,893-3,896), which hold 84,528
#: words, 19,870 of them distinct; the bound keeps a long-lived process from
#: holding every product it ever formed.
_WORD_PRODUCT_CACHE_SIZE = 1 << 14

#: Distinct words the word table keeps, over three times the 19,870 above.
#: When a part would take the table past the bound, it is cleared: that
#: only loses sharing with the words of older entries, never a value.
_WORD_TABLE_SIZE = 1 << 16

#: Entries kept by the expansion cache, one per sorted multiset of letters
#: and merge sign.  The letters 1..8 in both modes, the costliest input
#: ``partition_word_sum`` admits, form 258 of them, and ``verify --suite
#: words --max-n 5`` forms 112.
_EXPANSION_CACHE_SIZE = 1 << 9

#: The word table: each distinct word formed by the word-product kernel, as
#: the first object equal to it, keyed by itself.
_words: dict[Word, Word] = {}


def _validated_word(letters: Sequence[int]) -> Word:
    word = tuple(operator.index(k) for k in letters)
    if any(k < 1 for k in word):
        raise ValueError(f"letters must be positive integers, got {word}")
    return word


class NCPoly(_Combination):
    """Finite rational linear combination of words, in the canonical form of
    ``polynomials._Combination``: the coefficient of a word is
    ``nums[word] / den``."""

    __slots__ = ()

    nums: Mapping[Word, int]

    _validated_key = staticmethod(_validated_word)

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
        return [(word, Fraction(self.nums[word], self.den)) for word in sorted(self.nums)]

    def __str__(self) -> str:
        if not self.nums:
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


#: Words with positive integer coefficients, as parallel tuples.
_WordTerms = tuple[tuple[Word, ...], tuple[int, ...]]


def _shared(words: Collection[Word]) -> tuple[Word, ...]:
    """The words, each replaced by the equal word the table holds."""
    if len(_words) + len(words) > _WORD_TABLE_SIZE:
        _words.clear()
        if len(words) > _WORD_TABLE_SIZE:
            return tuple(words)
    share = _words.setdefault
    return tuple([share(word, word) for word in words])


@lru_cache(maxsize=_WORD_PRODUCT_CACHE_SIZE)
def _word_product(left: Word, right: Word) -> tuple[_WordTerms, _WordTerms]:
    """``star`` product of two single words, split as (even, odd) by the
    parity of the number of merged letters behind each word.

    A word w of the product has |left| + |right| - |w| merged letters, so no
    word is in both parts, and ``sbar`` is even - odd.  Each part holds
    distinct words, each the word table's object (a product with the empty
    word holds the other argument).
    """
    if not left:
        return ((right,), (1,)), ((), ())
    if not right:
        return ((left,), (1,)), ((), ())
    # The heads are the first letters as one-letter words.  Words from the
    # three terms start with head_left, head_right and the merged letter,
    # which exceeds both heads, and each tail part holds distinct words; so
    # only the first two terms can meet, and only when the heads are equal.
    # Otherwise each part is the three prefixed lists end to end.  Merging a
    # letter moves the tail product's terms to the other part.
    head_left, head_right, merged = left[:1], right[:1], (left[0] + right[0],)
    tail_left = _word_product(left[1:], right)
    tail_right = _word_product(left, right[1:])
    tail_both = _word_product(left[1:], right[1:])
    parts = []
    for parity in (0, 1):
        (lw, lc), (rw, rc) = tail_left[parity], tail_right[parity]
        bw, bc = tail_both[1 - parity]
        if head_left != head_right:
            words = [head_left + word for word in lw]
            words += [head_right + word for word in rw]
            words += [merged + word for word in bw]
            coeffs = lc + rc + bc
        else:
            acc = {head_left + word: c for word, c in zip(lw, lc)}
            for word, c in zip(rw, rc):
                key = head_right + word
                acc[key] = acc.get(key, 0) + c
            for word, c in zip(bw, bc):
                acc[merged + word] = c
            words, coeffs = acc, tuple(acc.values())
        parts.append((_shared(words), coeffs))
    return parts[0], parts[1]


def _coerce(value: "NCPoly | Sequence[int]") -> NCPoly:
    if isinstance(value, NCPoly):
        return value
    return NCPoly._normalised({_validated_word(value): 1}, 1)


def _integer_product(
    left: Iterable[tuple[Word, int]], right: Iterable[tuple[Word, int]], merge_sign: int
) -> dict[Word, int]:
    """Product of two integer combinations of words; ``right`` is iterated
    once per term of ``left``.  Words whose terms cancel stay, with 0."""
    acc: dict[Word, int] = {}
    for w1, a1 in left:
        for w2, a2 in right:
            scale = a1 * a2
            even, odd = _word_product(w1, w2)
            for word, c in zip(*even):
                acc[word] = acc.get(word, 0) + scale * c
            scale *= merge_sign
            for word, c in zip(*odd):
                acc[word] = acc.get(word, 0) + scale * c
    return acc


def _bilinear(u: NCPoly, v: NCPoly, merge_sign: int) -> NCPoly:
    # Word products have integer coefficients, so the numerators multiply
    # out in integers over the product of the two denominators.
    return NCPoly._normalised(
        _integer_product(u.nums.items(), v.nums.items(), merge_sign), u.den * v.den
    )


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
    return all(not word or word[0] >= 2 for word in poly.nums)


def symmetric_word_sum(kvec: Sequence[int]) -> NCPoly:
    """Sum of z_{k_sigma(1)} ... z_{k_sigma(n)} over all n! orderings.

    Repeated letters contribute with multiplicity, so the coefficients are
    the permutation counts of each distinct rearrangement.
    """
    word = _validated_word(kvec)
    if not 1 <= len(word) <= _MAX_SYMMETRIC_DEPTH:
        raise ValueError(f"depth must be in 1..{_MAX_SYMMETRIC_DEPTH}, got {len(word)}")
    counts = Counter(itertools.permutations(word))
    return NCPoly._normalised(dict(counts), 1)


def partition_word_sum(kvec: Sequence[int], mode: str) -> NCPoly:
    """Set-partition expansion of the symmetric word sum.

    For each set partition of the letter positions, form one letter per block
    (the sum of its letters) and multiply those single-letter words with the
    product selected by ``mode``: "star" uses the + product with weights
    (-1)^(n-i) * prod (|P_j| - 1)!, "sbar" uses the - product with the
    unsigned weights.  Both modes reproduce ``symmetric_word_sum``.

    No partition is enumerated.  A partition's weight is the product of one
    weight per block, and both products commute and associate, so the sum
    over partitions is the sum over the block B that holds the first letter
    of B's weight times (the expansion of the other letters) * z_{sum B}.
    That recursion (Newton's identity n e_n = sum_i +-e_{n-i} p_i read in the
    word algebra) is run on the letters sorted, over sub-multisets, with one
    cached expansion per multiset and mode.
    """
    if mode not in ("star", "sbar"):
        raise ValueError(f"mode must be 'star' or 'sbar', got {mode!r}")
    word = _validated_word(kvec)
    if not 1 <= len(word) <= _MAX_SYMMETRIC_DEPTH:
        raise ValueError(f"depth must be in 1..{_MAX_SYMMETRIC_DEPTH}, got {len(word)}")
    return _expansion(tuple(sorted(word)), 1 if mode == "star" else -1)


@lru_cache(maxsize=_EXPANSION_CACHE_SIZE)
def _expansion(letters: Word, merge_sign: int) -> NCPoly:
    """Set-partition expansion of a sorted word under the product with the
    given merge sign, with integer coefficients.

    The block that holds the first letter takes a sub-multiset C of the
    other letters, chosen in prod_a C(c_a, t_a) ways when the other letters
    hold c_a copies of a and C holds t_a of them; a block of size s + 1
    weighs s! * (-merge_sign)^s.
    """
    if not letters:
        return NCPoly.unit()
    first, rest = letters[0], Counter(letters[1:])
    distinct = sorted(rest)
    total: dict[Word, int] = {}
    for taken in itertools.product(*(range(rest[a] + 1) for a in distinct)):
        size = sum(taken)
        ways = math.prod(math.comb(rest[a], t) for a, t in zip(distinct, taken))
        letter = first + sum(a * t for a, t in zip(distinct, taken))
        remaining = tuple(a for a, t in zip(distinct, taken) for _ in range(rest[a] - t))
        block = (((letter,), ways * math.factorial(size) * (-merge_sign) ** size),)
        product = _integer_product(_expansion(remaining, merge_sign).nums.items(), block, merge_sign)
        for w, c in product.items():
            total[w] = total.get(w, 0) + c
    return NCPoly._normalised(total, 1)


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
