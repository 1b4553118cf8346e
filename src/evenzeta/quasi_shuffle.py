"""A commutative word algebra modelling multiplication of nested series.

Words z_{k_1} ... z_{k_n} over positive integer letters multiply by two
bilinear rules defined recursively on first letters:

    z_k w_1 * z_l w_2 = z_k (w_1 * z_l w_2) + z_l (z_k w_1 * w_2)
                        +- z_{k+l} (w_1 * w_2)

with + for the ``star`` product and - for the ``sbar`` variant; the empty
word is the unit of both.  Unrolled, the rule sums over the lattice paths
from (0, 0) to (m, n) for words of m and n letters: a step right writes the
next letter of the left word, a step down the next letter of the right one,
and a diagonal step their sum, merged, with the sign once per merged letter.
The paths depend on the two lengths only.  ``NCPoly`` keeps integer
numerators over one denominator, and both products run on one cached
kernel: the ``star`` product of two words split by the parity of the number
of merged letters, so that ``sbar`` is the even part minus the odd part,
cached once per unordered pair of words because the product commutes.  The
kernel reads each word off a path template of the pair's shape, an
itemgetter over the pair's letters built once per shape, and counts equal
words together.  A shape has D(m, n) templates, the Delannoy number, so a
product costs D(m, n) word reads, and a pair longer than
``_TEMPLATE_MAX_LENGTH`` builds its templates anew for each product.  Each
cached part is a pair of parallel tuples, its words and their coefficients,
and the words are taken from a bounded table that holds one object per
distinct word, so the many entries that contain a word share it.  The
symmetric sum of all reorderings of a word factors over set partitions into
iterated products of single letters, with signed weights for ``star`` and
plain weights for ``sbar``; that expansion is what ``verify_symmetric_sum``
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
from .polynomials import _Combination

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

#: Entries kept by the word-product cache, one per unordered pair of words
#: for both products (``_ordered_product`` puts the smaller word first).
#: ``verify --suite words --max-n 5`` forms 954 of them (a ``spot-checks``
#: benchmark repetition 955-957), which hold 38,084 words, 11,683 of them
#: distinct; the bound keeps a long-lived process from holding every
#: product it ever formed.
_WORD_PRODUCT_CACHE_SIZE = 1 << 14

#: Distinct words the word table keeps, over five times the 11,683 above.
#: When a part would take the table past the bound, it is cleared: that
#: only loses sharing with the words of older entries, never a value.
_WORD_TABLE_SIZE = 1 << 16

#: Entries kept by the expansion cache, one per sorted multiset of letters
#: and merge sign.  The letters 1..8 in both modes, the costliest input
#: ``partition_word_sum`` admits, form 258 of them, and ``verify --suite
#: words --max-n 5`` forms 112.
_EXPANSION_CACHE_SIZE = 1 << 9

#: Longest pair, in letters of both words, whose path templates are kept:
#: the 49 shapes m <= n with m + n <= 14 hold 196,305 templates in all, the
#: largest (7 x 7) 48,639 of them.  A longer pair builds its own.
_TEMPLATE_MAX_LENGTH = 14

#: Entries kept by the template cache, one per shape, over the 49 above.
_TEMPLATE_CACHE_SIZE = 1 << 6

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
    def unit() -> "NCPoly":
        """The empty word."""
        return NCPoly({(): 1})

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
    return tuple(map(_words.setdefault, words, words))


#: The path templates of one shape, one itemgetter per path.
_Templates = tuple[operator.itemgetter, ...]


@lru_cache(maxsize=_TEMPLATE_CACHE_SIZE)
def _path_templates(m: int, n: int) -> tuple[_Templates, _Templates]:
    """Every quasi-shuffle path of an m-letter word with an n-letter word,
    split as (even, odd) by the parity of its number of merged letters.

    A path is an itemgetter over the letters ``left + right + merged``, where
    ``merged[i * n + j]`` is ``left[i] + right[j]``: a step right takes
    ``left[i]``, a step down ``right[j]`` and a diagonal step their sum.
    """
    # below[j] and row[j]: the index paths from the cells (i + 1, j) and
    # (i, j) to the end cell (m, n), split as (even, odd).
    below: list[tuple[list[Word], list[Word]]] = []
    for i in range(m, -1, -1):
        # Every cell but the end cell replaces its entry.
        row: list[tuple[list[Word], list[Word]]] = [([()], [])] * (n + 1)
        for j in range(n - (i == m), -1, -1):
            steps = []
            if i < m:
                steps.append(((i,), below[j]))
            if j < n:
                steps.append(((m + j,), row[j + 1]))
            if i < m and j < n:
                # A merged letter moves the paths to the other part.
                even, odd = below[j + 1]
                steps.append(((m + n + i * n + j,), (odd, even)))
            row[j] = tuple([step + path for step, parts in steps for path in parts[parity]] for parity in (0, 1))
        below = row
    # Only the 1 x 1 merge is a one-letter path; a slice keeps its word a
    # tuple, where itemgetter of one index would return the bare letter.
    return tuple(
        tuple(
            operator.itemgetter(*path) if len(path) > 1 else operator.itemgetter(slice(path[0], path[0] + 1))
            for path in paths
        )
        for paths in below[0]
    )


@lru_cache(maxsize=_WORD_PRODUCT_CACHE_SIZE)
def _word_product(left: Word, right: Word) -> tuple[_WordTerms, _WordTerms]:
    """``star`` product of two single words, split as (even, odd) by the
    parity of the number of merged letters behind each word.

    A word w of the product has |left| + |right| - |w| merged letters, so no
    word is in both parts, and ``sbar`` is even - odd.  Each part holds
    distinct words, each the word table's object (a product with the empty
    word holds the other argument).

    Each path template of the pair's shape (``_path_templates``, shorter
    word first) reads one word off the pair's letters, and equal words are
    counted together.  An m- by n-letter shape has D(m, n) templates, the
    Delannoy number (63 at 3 x 3, 48,639 at 7 x 7, 265,729 at 8 x 8), built
    once per shape when m + n <= ``_TEMPLATE_MAX_LENGTH`` and on every call
    for a longer pair, whose templates are not kept.
    """
    if not left:
        return ((right,), (1,)), ((), ())
    if not right:
        return ((left,), (1,)), ((), ())
    if len(left) > len(right):
        left, right = right, left
    m, n = len(left), len(right)
    letters = left + right + tuple([a + b for a in left for b in right])
    templates = _path_templates if m + n <= _TEMPLATE_MAX_LENGTH else _path_templates.__wrapped__
    parts = []
    for getters in templates(m, n):
        counts = Counter([get(letters) for get in getters])
        parts.append((_shared(counts), tuple(counts.values())))
    return parts[0], parts[1]


def _ordered_product(left: Word, right: Word) -> tuple[_WordTerms, _WordTerms]:
    """``_word_product`` with the smaller word first.  The product commutes,
    so the cache holds one entry per unordered pair of words."""
    return _word_product(left, right) if left <= right else _word_product(right, left)


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
            even, odd = _ordered_product(w1, w2)
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
