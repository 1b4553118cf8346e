"""Composition-by-composition left sides: the small-k oracle of the series
kernel behind ``bernoulli_lhs``, ``eval_zeta_lhs`` and ``mzv_lhs_exact``.
``compositions`` and ``partition_shape`` are the enumerations the oracles
and the tests walk; the package itself needs neither.

Each sum walks every composition of k into n parts.  The multiple zeta
values at even arguments are expanded over set partitions: the symmetric
sum of zeta(2k_sigma(1), ..., 2k_sigma(n)) over all orderings is the signed
sum over set partitions of products of single zeta values, so for a
symmetric weight the composition sum is 1/n! times the sum over
compositions and partitions of the signed block products.  The cost is
C(k-1, n-1) compositions times Bell(n) partitions, so keep n and k small.

``word_product`` is the oracle of the ``star`` and ``sbar`` products of two
words: it sums over lattice paths and calls nothing in
``evenzeta.quasi_shuffle``.  ``partition_word_sum`` is the
partition-by-partition oracle of the word
expansion of the same name in ``evenzeta.quasi_shuffle``: it multiplies each
partition's block letters out on its own through the public ``star`` or
``sbar`` and adds the weighted results.
"""

from fractions import Fraction
from typing import Iterator

from evenzeta import (
    NCPoly,
    PiValue,
    SetPartition,
    bernoulli,
    factorial,
    partition_weight,
    sbar,
    set_partitions,
    star,
    zeta_even,
)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield every tuple of ``parts`` positive integers summing to ``total``.

    Emitted in lexicographic order; the iterator is empty when total < parts.
    """
    if parts < 1:
        raise ValueError(f"need at least one part, got {parts}")
    if total < parts:
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def partition_shape(partition: SetPartition) -> tuple[int, ...]:
    """Block sizes of a set partition, sorted nonincreasing."""
    return tuple(sorted((len(block) for block in partition), reverse=True))


def bernoulli_lhs(mvec, k):
    """sum over compositions of prod_j k_j^{m_j} B_{2k_j}/(2k_j)!."""
    total = Fraction(0)
    for comp in compositions(k, len(mvec)):
        term = Fraction(1)
        for kj, mj in zip(comp, mvec):
            term *= kj**mj * bernoulli(2 * kj) / factorial(2 * kj)
        total += term
    return total


def zeta_lhs(F, n, k):
    """sum over compositions of F(k_1..k_n) zeta(2k_1) ... zeta(2k_n)."""
    total = PiValue.zero(k)
    for comp in compositions(k, n):
        value = F.evaluate(comp)
        if not value:
            continue
        product = PiValue(0, value)
        for kj in comp:
            product = product * zeta_even(kj)
        total = total + product
    return total


def mzv_lhs(F, n, k, star=False):
    """sum over compositions of F(k_1..k_n) zeta(2k_1, ..., 2k_n), or
    zeta*(...) when ``star``, for a symmetric F."""
    parts = set_partitions(n)
    weights = [partition_weight(p) for p in parts]
    total = PiValue.zero(k)
    for comp in compositions(k, n):
        value = F.evaluate(comp)
        if not value:
            continue
        comp_total = PiValue.zero(k)
        for part, weight in zip(parts, weights):
            product = PiValue(0, Fraction(1))
            for block in part:
                product = product * zeta_even(sum(comp[index - 1] for index in block))
            comp_total = comp_total + (weight.c if star else weight.c_tilde) * product
        total = total + value * comp_total
    return total * Fraction(1, factorial(n))


def partition_word_sum(kvec, mode):
    """sum over set partitions of the weighted product, in block order, of
    the block letters: star with signed weights, sbar with plain ones."""
    product = star if mode == "star" else sbar
    total = NCPoly.zero()
    for partition in set_partitions(len(kvec)):
        weight = partition_weight(partition)
        acc = NCPoly.unit()
        for block in partition:
            acc = product(acc, (sum(kvec[index - 1] for index in block),))
        total = total + (weight.c_tilde if mode == "star" else weight.c) * acc
    return total


def word_product(u, v, sign):
    """The product of words u and v with merged letters weighted by ``sign``
    (1 for star, -1 for sbar), as a dict from word to nonzero int coefficient.

    It sums over the Delannoy lattice paths from (0, 0) to (len(u), len(v)):
    a right step writes the next letter of u, a down step the next letter of
    v, and a diagonal step their sum, with weight ``sign``.
    """
    total = {}

    def walk(i, j, word, weight):
        if i == len(u) and j == len(v):
            total[word] = total.get(word, 0) + weight
            return
        if i < len(u):
            walk(i + 1, j, word + (u[i],), weight)
        if j < len(v):
            walk(i, j + 1, word + (v[j],), weight)
        if i < len(u) and j < len(v):
            walk(i + 1, j + 1, word + (u[i] + v[j],), weight * sign)

    walk(0, 0, (), 1)
    return {word: c for word, c in total.items() if c}
