"""Composition-by-composition left sides: the small-k oracle of the series
kernel behind ``bernoulli_lhs``, ``eval_zeta_lhs`` and ``mzv_lhs_exact``.

Each sum walks every composition of k into n parts.  The multiple zeta
values at even arguments are expanded over set partitions: the symmetric
sum of zeta(2k_sigma(1), ..., 2k_sigma(n)) over all orderings is the signed
sum over set partitions of products of single zeta values, so for a
symmetric weight the composition sum is 1/n! times the sum over
compositions and partitions of the signed block products.  The cost is
C(k-1, n-1) compositions times Bell(n) partitions, so keep n and k small.

``partition_word_sum`` is the partition-by-partition oracle of the word
expansion of the same name in ``evenzeta.quasi_shuffle``: it multiplies each
partition's block letters out on its own through the public ``star`` or
``sbar`` and adds the weighted results.
"""

from fractions import Fraction

from evenzeta import (
    NCPoly,
    PiValue,
    bernoulli,
    compositions,
    factorial,
    partition_weight,
    sbar,
    set_partitions,
    star,
    zeta_even,
)


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
