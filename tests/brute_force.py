"""Composition-by-composition left sides: the small-k oracle of the series
kernel behind ``bernoulli_lhs``, ``eval_zeta_lhs`` and ``mzv_lhs_exact``.
``compositions``, ``set_partitions``, ``partition_weight`` and
``partition_shape`` are the enumerations the oracles and the tests walk;
the package itself needs none of them.  The oracles read a weight
``MultiPoly`` only through its ``nums`` and ``den`` (see ``weight_value``)
and import nothing from ``evenzeta.enumeration``.

Each sum walks every composition of k into n parts.  The multiple zeta
values at even arguments are expanded over set partitions: the symmetric
sum of zeta(2k_sigma(1), ..., 2k_sigma(n)) over all orderings is the signed
sum over set partitions of products of single zeta values, so for a
symmetric weight the composition sum is 1/n! times the sum over
compositions and partitions of the signed block products.  The cost is
C(k-1, n-1) compositions times Bell(n) partitions, so keep n and k small.

``poly_add``, ``poly_neg``, ``poly_scale``, ``poly_mul`` and ``poly_pow``
are the polynomial arithmetic the package leaves out: they work on plain
dicts from key (an exponent tuple or a word) to ``Fraction`` and import
nothing from ``evenzeta.polynomials``.  The tests build expected weights and
word combinations with them, and check the parser against them.

``f_triangle`` and ``g_triangle`` run the recursions documented in
``f_table`` and ``g_table`` on plain lists of ``Fraction`` coefficients (low
degree first): they are the oracle of the integer triangle steps and share
no code with ``UniPoly``.

``f_product`` and ``collapsed_sums`` are the oracle of ``f_prod`` and of
the collapse behind ``bernoulli_identity``: plain ``UniPoly`` ``+`` and
``*`` over the table rows, odd coefficients included.  ``collapsed_sums``
forms the j >= 1 entries of D^{m_1} f * ... * D^{m_n} f = F_0 +
sum_{j>=1} F_j * D^{j-1} g as F_j = sum_{i>=j} f_i * g_{i-1,j} over the
inverse triangle, O(N^4) in N = sum(m) + n.  The package eliminates the
powers of h from the top and never reads ``g_table`` there, so the two
derivations share no code past the forward rows.

``bernoulli_rhs`` and ``zeta_rhs`` are the oracle of the collapsed side
``WeightedSumIdentity.rhs_value`` over either basis: each term
p_l(k) * basis is formed as a ``Fraction`` product (``UniPoly.__call__``
times the basis value) and added on its own.  ``bernoulli_rhs_polys`` is the
oracle of the p_l assembly in ``bernoulli_identity``: ``UniPoly`` arithmetic
on the even coefficients of ``collapsed_sums`` as Fractions, with no
elimination.

``combined_identity`` is the oracle of ``zeta_identities._combined_identity``,
the orbit combination behind every zeta, mzv and mzsv identity of a weight
polynomial: one ``UniPoly.constant`` per orbit and a ``UniPoly.dot`` per
term, the depth from ``truncation_depth``.  ``dense_weight`` is the densest
symmetric weight the parser admits at one depth.

``floor_ceiling_bracket`` brackets a truncated nested sum between a floor
chain and a ceiling chain, where ``_nested_sum_bracket`` carries the floor
chain alone: put in its place, it must leave every digit of
``mzv_numeric`` unchanged.

``word_product`` is the oracle of the ``star`` and ``sbar`` products of two
words: it sums over lattice paths and calls nothing in
``evenzeta.quasi_shuffle``.  ``partition_word_sum`` is the
partition-by-partition oracle of the word
expansion of the same name in ``evenzeta.quasi_shuffle``: it multiplies each
partition's block letters out on its own through the public ``star`` or
``sbar`` and adds the weighted results' ``terms`` dicts.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from evenzeta import (
    NCPoly,
    UniPoly,
    bernoulli,
    f_table,
    g_table,
    sbar,
    star,
    truncation_depth,
    zeta_even,
    zeta_identity_monomial,
)

#: A set partition of {1, ..., n}: each block is a sorted tuple of indices,
#: and blocks are ordered by their smallest element.
SetPartition = tuple[tuple[int, ...], ...]


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


def set_partitions(n: int) -> list[SetPartition]:
    """All partitions of {1, ..., n} into nonempty blocks, in a fixed order.

    Built by inserting elements 1, 2, ..., n one at a time: each existing
    partition spawns one child per block (element joins the block) plus one
    child with a new singleton block.  The result has Bell(n) entries and the
    order is reproducible across runs.
    """
    if n < 1:
        raise ValueError(f"set partitions need n >= 1, got {n}")
    parts: list[SetPartition] = [((1,),)]
    for element in range(2, n + 1):
        grown: list[SetPartition] = []
        for partition in parts:
            for i, block in enumerate(partition):
                grown.append(partition[:i] + (block + (element,),) + partition[i + 1 :])
            grown.append(partition + ((element,),))
        parts = grown
    return parts


@dataclass(frozen=True)
class PartitionWeight:
    """Multiplicities a set partition carries in symmetric-sum expansions.

    ``c`` is the product over blocks of (size - 1)!; ``c_tilde`` attaches the
    sign (-1)**(n - number of blocks).
    """

    c: int
    c_tilde: int


def partition_weight(partition: SetPartition) -> PartitionWeight:
    n = sum(len(block) for block in partition)
    c = math.prod(math.factorial(len(block) - 1) for block in partition)
    sign = -1 if (n - len(partition)) % 2 else 1
    return PartitionWeight(c=c, c_tilde=sign * c)


def partition_shape(partition: SetPartition) -> tuple[int, ...]:
    """Block sizes of a set partition, sorted nonincreasing."""
    return tuple(sorted((len(block) for block in partition), reverse=True))


def bernoulli_lhs(mvec, k):
    """sum over compositions of prod_j k_j^{m_j} B_{2k_j}/(2k_j)!."""
    total = Fraction(0)
    for comp in compositions(k, len(mvec)):
        term = Fraction(1)
        for kj, mj in zip(comp, mvec):
            term *= kj**mj * bernoulli(2 * kj) / math.factorial(2 * kj)
        total += term
    return total


def weight_value(F, point):
    """The weight polynomial F at ``point``, from its integer numerators
    ``F.nums`` over ``F.den``."""
    total = sum(c * math.prod(x**e for x, e in zip(point, expts)) for expts, c in F.nums.items())
    return Fraction(total, F.den)


def zeta_lhs(F, n, k):
    """sum over compositions of F(k_1..k_n) zeta(2k_1) ... zeta(2k_n), as
    its coefficient of pi^(2k)."""
    total = Fraction(0)
    for comp in compositions(k, n):
        value = weight_value(F, comp)
        if not value:
            continue
        product = Fraction(value)
        for kj in comp:
            product *= zeta_even(kj)
        total += product
    return total


def mzv_lhs(F, n, k, star=False):
    """sum over compositions of F(k_1..k_n) zeta(2k_1, ..., 2k_n), or
    zeta*(...) when ``star``, for a symmetric F, as its coefficient of
    pi^(2k)."""
    parts = set_partitions(n)
    weights = [partition_weight(p) for p in parts]
    total = Fraction(0)
    for comp in compositions(k, n):
        value = weight_value(F, comp)
        if not value:
            continue
        comp_total = Fraction(0)
        for part, weight in zip(parts, weights):
            product = Fraction(1)
            for block in part:
                product *= zeta_even(sum(comp[index - 1] for index in block))
            comp_total += (weight.c if star else weight.c_tilde) * product
        total += value * comp_total
    return total / math.factorial(n)


def partition_word_sum(kvec, mode):
    """sum over set partitions of the weighted product, in block order, of
    the block letters: star with signed weights, sbar with plain ones.  The
    result is a dict from word to nonzero ``Fraction``, like ``.terms``."""
    product = star if mode == "star" else sbar
    total = {}
    for partition in set_partitions(len(kvec)):
        weight = partition_weight(partition)
        acc = NCPoly.unit()
        for block in partition:
            acc = product(acc, (sum(kvec[index - 1] for index in block),))
        total = poly_add(total, poly_scale(acc.terms, weight.c_tilde if mode == "star" else weight.c))
    return total


def floor_ceiling_bracket(kvec, bound, scale):
    """Integers lo <= S * scale <= hi for the truncated nested sum S.

    Level by level from the innermost argument, the prefix sums
    sum_{j <= m} prev[j - 1] / j^k are carried twice: once with every
    quotient floored and once with every quotient ceiled.  All terms are
    nonnegative, so the floor chain stays below the exact scaled sums and the
    ceiling chain above them.
    """
    lo = hi = [scale] * bound  # the empty inner sum is 1
    for exponent in reversed(kvec):
        lo_next, hi_next = [0], [0]
        lo_run = hi_run = 0
        for m in range(1, bound + 1):
            power = m**exponent
            lo_run += lo[m - 1] // power
            hi_run -= -hi[m - 1] // power
            lo_next.append(lo_run)
            hi_next.append(hi_run)
        lo, hi = lo_next, hi_next
    return lo[bound], hi[bound]


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


def _nonzero(terms):
    return {expts: c for expts, c in terms.items() if c}


def poly_add(a, b):
    """Sum of two dicts from key to Fraction, zeros dropped."""
    total = dict(a)
    for expts, c in b.items():
        total[expts] = total.get(expts, Fraction(0)) + c
    return _nonzero(total)


def poly_neg(a):
    return {expts: -c for expts, c in a.items()}


def poly_scale(a, scale):
    return _nonzero({expts: c * scale for expts, c in a.items()})


def poly_mul(a, b):
    """Product of two such dicts, monomial by monomial."""
    total = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            expts = tuple(x + y for x, y in zip(e1, e2))
            total[expts] = total.get(expts, Fraction(0)) + c1 * c2
    return _nonzero(total)


def poly_pow(a, arity, exponent):
    """a ** exponent by repeated multiplication, starting from 1."""
    result = {(0,) * arity: Fraction(1)}
    for _ in range(exponent):
        result = poly_mul(result, a)
    return result


def _combine(*terms):
    """sum of scale * t^shift * p over (scale, shift, p), on coefficient
    lists, with trailing zeros dropped."""
    out = []
    for scale, shift, p in terms:
        out.extend([Fraction(0)] * (shift + len(p) - len(out)))
        for k, c in enumerate(p, shift):
            out[k] += scale * c
    while out and not out[-1]:
        out.pop()
    return out


def _t_derivative(p):
    """t * p'."""
    return [k * c for k, c in enumerate(p)]


def f_triangle(depth):
    """Rows 0..depth of f_{m,i}, i = 0..m+1: row 0 is (t/2 - 1, 1), then
    f_{m,i} = t*f_{m-1,i}' + i*(1 - t)*f_{m-1,i} - (i - 1)*f_{m-1,i-1}."""
    rows = [[[Fraction(-1), Fraction(1, 2)], [Fraction(1)]]]
    for m in range(1, depth + 1):
        prev = rows[-1] + [[]]
        row = [_combine((1, 0, _t_derivative(prev[0])))]
        for i in range(1, m + 2):
            a, b = prev[i], prev[i - 1]
            row.append(_combine((1, 0, _t_derivative(a)), (i, 0, a), (-i, 1, a), (1 - i, 0, b)))
        rows.append(row)
    return rows


def g_triangle(depth):
    """Rows 0..depth of g_{r,j}, j = 1..r+1 (stored from index 0): row 0 is
    (1,), then g_{r,j} = (1 - t)*g_{r-1,j} - (t*g_{r-1,j}' + g_{r-1,j-1})/r."""
    rows = [[[Fraction(1)]]]
    for r in range(1, depth + 1):
        prev, inv = [[]] + rows[-1] + [[]], Fraction(-1, r)
        row = []
        for j in range(1, r + 2):
            a, b = prev[j], prev[j - 1]
            row.append(_combine((1, 0, a), (-1, 1, a), (inv, 0, _t_derivative(a)), (inv, 0, b)))
        rows.append(row)
    return rows


def f_product(mvec):
    """Coefficients of h^i in D^{m_1} f * ... * D^{m_n} f: the f-table rows
    convolved entry by entry with ``UniPoly`` ``+`` and ``*``."""
    table = f_table(max(mvec))
    product = list(table.row(mvec[0]))
    for m in mvec[1:]:
        row = table.row(m)
        merged = [UniPoly.zero()] * (len(product) + len(row) - 1)
        for a, left in enumerate(product):
            for b, right in enumerate(row):
                merged[a + b] = merged[a + b] + left * right
        product = merged
    return product


def collapsed_sums(mvec):
    """F_1, ..., F_N (N = sum(m) + n) as the full products
    F_j = sum_{i=j}^{N} f_i * g_{i-1,j}, every coefficient formed."""
    fs = f_product(mvec)
    total = len(fs) - 1
    inverse = g_table(total - 1)
    sums = []
    for j in range(1, total + 1):
        acc = UniPoly.zero()
        for i in range(j, total + 1):
            acc = acc + fs[i] * inverse.entry(i - 1, j)
        sums.append(acc)
    return sums


def bernoulli_rhs_polys(mvec):
    """p_0, ..., p_T of the Bernoulli identity, as
    p_l(k) = sum_j a_{j,l} 2^(j-1) (k-l)^(j-1) / 2^sum(m) in ``UniPoly``
    arithmetic on Fractions, a_{j,l} = [t^(2l)] F_j of ``collapsed_sums``
    and T = max((s + n - 2) // 2, (n - 1) // 2)."""
    collapsed = collapsed_sums(mvec)
    n, s = len(mvec), sum(mvec)
    depth = max((s + n - 2) // 2, (n - 1) // 2)
    shift = UniPoly.x()
    polys = []
    for l in range(depth + 1):
        acc = UniPoly.zero()
        for j in range(1, s + n - 2 * l + 1):
            a = collapsed[j - 1].coefficient(2 * l)
            acc = acc + UniPoly.constant(a * 2 ** (j - 1)) * (shift - l) ** (j - 1)
        polys.append(acc / 2**s)
    return polys


def bernoulli_rhs(identity, k):
    """sum_{l=0}^{min(T, k)} p_l(k) * B_{2k-2l}/(2k-2l)!, term by term."""
    total = Fraction(0)
    for l in range(min(identity.T, k) + 1):
        value = identity.terms[l](k)
        if value:
            total += value * bernoulli(2 * k - 2 * l) / math.factorial(2 * k - 2 * l)
    return total


def zeta_rhs(identity, k):
    """terms[0](k) zeta(2k) + sum_{l=1}^{min(T, k)} terms[l](k) zeta(2l)
    zeta(2k-2l) as its coefficient of pi^(2k), term by term as ``Fraction``
    products."""
    total = Fraction(0)
    for l in range(min(identity.T, k) + 1):
        value = identity.terms[l](k)
        if not value:
            continue
        if l == 0:
            total += value * zeta_even(k)
        else:
            total += value * (zeta_even(l) * zeta_even(k - l))
    return total


def combined_identity(nums, den, n):
    """(T, terms) of sum c/den * (monomial identity of exponents) over the
    pairs (exponents, c) of ``nums``: the numerators of one orbit under
    permutation are summed, each orbit enters as ``UniPoly.constant(c/den)``
    and each term l is one ``UniPoly.dot`` over the orbits.  T is the largest
    ``truncation_depth`` over all orbits, or (n - 1) // 2 without any."""
    orbits = {}
    for expts, c in nums:
        key = tuple(sorted(expts))
        orbits[key] = orbits.get(key, 0) + c
    depth = max(map(truncation_depth, orbits), default=(n - 1) // 2)
    scaled = [
        (UniPoly.constant(Fraction(c, den)), zeta_identity_monomial(key).terms)
        for key, c in orbits.items()
        if c
    ]
    terms = tuple(
        UniPoly.dot((scale, row[l]) for scale, row in scaled if l < len(row))
        for l in range(depth + 1)
    )
    return depth, terms


def dense_weight(n, degree):
    """(text, coefficients) of the weight with every monomial of total degree
    <= ``degree`` in x1..xn, the monomial with exponents e weighted by
    (1 + sum(e)) / (1 + max(e)); the text writes every coefficient as a/b
    and every power as x_i^p."""
    coeffs, pieces = {}, []
    for expts in itertools.product(range(degree + 1), repeat=n):
        if sum(expts) <= degree:
            coeffs[expts] = Fraction(1 + sum(expts), 1 + max(expts))
            powers = [f"x{i}^{p}" for i, p in enumerate(expts, 1) if p]
            pieces.append("*".join([f"{1 + sum(expts)}/{1 + max(expts)}", *powers]))
    return " + ".join(pieces), coeffs
