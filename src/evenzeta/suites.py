"""Verification grids behind the ``verify`` command.

Each suite runs a family of exact checks and reports pass/fail/skip counts
plus the first failure in full.  Grids iterate in a fixed order and any
random sampling is seeded, so identical invocations produce identical
reports.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .bernoulli_sums import bernoulli_identity, truncation_depth
from .checks import CheckResult
from .derivative_tables import c_coeffs, d_coeffs, f_table, g_table
from .documents import _Identity, _sides, verify_identity
from .mzv_identities import mzsv_identity, mzv_identity
from .polynomials import MultiPoly, UniPoly, parse_poly
from .quasi_shuffle import (
    is_admissible,
    partition_word_sum,
    sbar,
    star,
    symmetric_word_sum,
    verify_symmetric_sum,
)
from .zeta_identities import WeightedSumIdentity, zeta_identity_monomial, zeta_identity_poly

__all__ = [
    "SUITE_NAMES",
    "SuiteReport",
    "bernoulli_suite",
    "mzv_suite",
    "run_suites",
    "tables_suite",
    "words_suite",
    "zeta_suite",
]

#: The runner of each suite, in the canonical order.  Each looks its suite
#: up when called, so a rebound global (a tracer's wrapper, a stub) runs.
_RUNNERS = {
    "tables": lambda max_n, max_k: tables_suite(),
    "bernoulli": lambda max_n, max_k: bernoulli_suite(max_n, max_k),
    "zeta": lambda max_n, max_k: zeta_suite(max_n, max_k),
    "mzv": lambda max_n, max_k: mzv_suite(max_n, max_k),
    "words": lambda max_n, max_k: words_suite(max_n),
}
SUITE_NAMES = tuple(_RUNNERS)

#: Bounds of ``verify`` when none are given.
DEFAULT_MAX_N = 4
DEFAULT_MAX_K = 10

#: Bounds accepted by the suites; larger grids grow combinatorially.
MAX_N = 5
MAX_K = 16

#: Fixed extents of the grids that do not take the shared bounds: the
#: largest exponent sum of the bernoulli and zeta suites, the largest letter
#: of the words suite and the depth of the tables suite.
_MAX_WEIGHT = 3
_MAX_LETTER = 3
_TABLE_DEPTH = 12


@dataclass
class SuiteReport:
    suite: str
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    first_failure: CheckResult | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def add(self, result: CheckResult) -> None:
        if result.ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = result

    def check(self, ok: bool, label: str) -> None:
        self.add(CheckResult(ok=ok, label=label, lhs="", rhs=""))

    def skip(self, count: int = 1) -> None:
        self.skipped += count

    def as_dict(self) -> dict:
        failure = None
        if self.first_failure is not None:
            failure = {
                "label": self.first_failure.label,
                "lhs": self.first_failure.lhs,
                "rhs": self.first_failure.rhs,
            }
        return {
            "suite": self.suite,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "ok": self.ok,
            "first_failure": failure,
        }

    def summary_line(self) -> str:
        return (
            f"suite={self.suite} passed={self.passed} failed={self.failed} "
            f"skipped={self.skipped} ok={'yes' if self.ok else 'no'}"
        )


def _validate_bounds(max_n: int, max_k: int) -> None:
    if not 1 <= max_n <= MAX_N:
        raise ValueError(f"--max-n must be in 1..{MAX_N}, got {max_n}")
    if not 1 <= max_k <= MAX_K:
        raise ValueError(f"--max-k must be in 1..{MAX_K}, got {max_k}")


def _exponent_tuples(length: int, total_cap: int) -> Iterator[tuple[int, ...]]:
    """Every tuple of ``length`` exponents >= 0 with sum <= total_cap."""
    if length == 0:
        yield ()
        return
    for first in range(total_cap + 1):
        for rest in _exponent_tuples(length - 1, total_cap - first):
            yield (first, *rest)


def tables_suite() -> SuiteReport:
    """Structural invariants of the derivative tables up to ``_TABLE_DEPTH``.

    Each relation that sums over a row, the row's alternating sum and the
    inverse relation sum_j f[m,j] * g[j-1,i] at each (m, i), is one
    ``UniPoly.dot``: its products run on integer numerators over one lcm,
    with one normalisation per relation.
    """
    report = SuiteReport("tables")
    fs = f_table(_TABLE_DEPTH)
    gs = g_table(_TABLE_DEPTH)
    cs = c_coeffs(_TABLE_DEPTH)
    ds = d_coeffs(_TABLE_DEPTH)
    half_t = UniPoly((0, Fraction(1, 2)))
    # (-1)^i t^i, so that a row's alternating sum is one dot product.
    signed = [UniPoly((0,) * i + ((-1) ** i,)) for i in range(_TABLE_DEPTH + 1)]
    for m in range(_TABLE_DEPTH + 1):
        expected_head = half_t - 1 if m == 0 else half_t
        report.check(fs.entry(m, 0) == expected_head, f"f[{m},0] equals t/2 - delta")
        diag = UniPoly.constant((-1) ** m * math.factorial(m))
        report.check(fs.entry(m, m + 1) == diag, f"f[{m},{m + 1}] equals (-1)^m m!")
        for i in range(1, m + 2):
            entry = fs.entry(m, i)
            report.check(
                entry.den == 1,
                f"f[{m},{i}] has integer coefficients",
            )
            report.check(entry.degree() == m + 1 - i, f"f[{m},{i}] has degree m+1-i")
            report.check(
                (-1) ** m * entry.leading() > 0,
                f"f[{m},{i}] leading sign is (-1)^m",
            )
        alternating = UniPoly.dot((signed[i - 1], fs.entry(m, i)) for i in range(1, m + 2))
        report.check(alternating == UniPoly.one(), f"row {m} alternating sum is 1")
        report.check(
            gs.entry(m, m + 1) == UniPoly.constant(Fraction((-1) ** m, math.factorial(m))),
            f"g[{m},{m + 1}] equals (-1)^m/m!",
        )
        for i in range(1, m + 2):
            report.check(gs.entry(m, i).degree() <= m + 1 - i, f"g[{m},{i}] degree bound")
        # the two triangles invert each other columnwise
        for i in range(1, m + 2):
            acc = UniPoly.dot((fs.entry(m, j), gs.entry(j - 1, i)) for j in range(i, m + 2))
            expected = UniPoly.one() if i == m + 1 else UniPoly.zero()
            report.check(acc == expected, f"inverse relation at ({m},{i})")
        # extreme coefficients: recursion values match direct extraction
        report.check(cs[m][0] == Fraction(1, 2), f"c[{m},0] equals 1/2")
        for i in range(1, m + 2):
            report.check(
                cs[m][i] == fs.entry(m, i).leading(), f"c[{m},{i}] matches extraction"
            )
            report.check(
                ds[m][i - 1] == gs.entry(m, i).coefficient(m + 1 - i),
                f"d[{m},{i}] matches extraction",
            )
        report.check(cs[m][1] == (-1) ** m, f"c[{m},1] equals (-1)^m")
        report.check(ds[m][0] == (-1) ** m, f"d[{m},1] equals (-1)^m")
        alt_sum = sum(((-1) ** (i - 1)) * cs[m][i] for i in range(1, m + 2))
        report.check(alt_sum == (1 if m == 0 else 0), f"row {m} alternating c-sum")
    return report


def _check_k_grid(report: SuiteReport, identity: _Identity, max_k: int) -> None:
    """Both sides at every k <= max_k, in one pass; k < n is reported as
    skipped.  Only a failing k is rendered, by ``verify_identity``."""
    report.skip(min(identity.n - 1, max_k))
    for k, left, right in _sides(identity, range(identity.n, max_k + 1)):
        if left == right:
            report.passed += 1
        else:
            report.add(verify_identity(identity, k))


def _identity_degree_ok(terms: Sequence[UniPoly], r: int, n: int) -> bool:
    return all(
        poly.degree() <= r + n - 2 * l - 1 for l, poly in enumerate(terms) if not poly.is_zero()
    )


def bernoulli_suite(max_n: int, max_k: int) -> SuiteReport:
    """Verification grid for the Bernoulli-product identities against the
    series left side.

    Every exponent tuple with n <= max_n and sum <= _MAX_WEIGHT, every
    k <= max_k; combinations with k < n are reported as skipped.
    """
    _validate_bounds(max_n, max_k)
    report = SuiteReport("bernoulli")
    for n in range(1, max_n + 1):
        for mvec in _exponent_tuples(n, _MAX_WEIGHT):
            identity = bernoulli_identity(mvec)
            report.check(
                identity.T == truncation_depth(mvec), f"T formula for m={mvec}"
            )
            report.check(
                _identity_degree_ok(identity.rhs, sum(mvec), n),
                f"degree bounds for m={mvec}",
            )
            _check_k_grid(report, identity, max_k)
    return report


def _k_weighted_relation(identity: WeightedSumIdentity) -> bool:
    """Whether sum_j Z(m + e_j) equals k * Z(m) term by term.

    Z(m) is the zeta identity of the weight k_1^{m_1}...k_n^{m_n} and e_j
    raises exponent j by one.  It holds because k_1 + ... + k_n = k on every
    composition and the form over zeta(2l) zeta(2k-2l) is unique; terms
    beyond T count as zero, and the raised identities reach at least as deep.
    """
    mvec, n = identity.mvec, identity.n
    raised = MultiPoly(
        n, [(tuple(m + 1 if i == j else m for i, m in enumerate(mvec)), 1) for j in range(n)]
    )
    left = zeta_identity_poly(raised, n).terms
    right = tuple(UniPoly.x() * term for term in identity.terms)
    return left == right + (UniPoly.zero(),) * (len(left) - len(right))


def zeta_suite(max_n: int, max_k: int) -> SuiteReport:
    """Verification grid for single-zeta identities over the same exponents.

    For each exponent tuple m, checks the k-weighted relation
    sum_j Z(m + e_j) = k * Z(m) between identities built at different
    exponents, the degree bounds, and the series left side at every k.
    """
    _validate_bounds(max_n, max_k)
    report = SuiteReport("zeta")
    for n in range(1, max_n + 1):
        for mvec in _exponent_tuples(n, _MAX_WEIGHT):
            identity = zeta_identity_monomial(mvec)
            report.check(_k_weighted_relation(identity), f"k-weighted relation for m={mvec}")
            report.check(
                _identity_degree_ok(identity.terms, sum(mvec), n),
                f"degree bounds for m={mvec}",
            )
            _check_k_grid(report, identity, max_k)
    return report


def _weight_family(n: int) -> list[tuple[str, MultiPoly]]:
    """The symmetric weights exercised by the mzv suite, per depth."""
    power_sums = [
        ("1", "1"),
        ("sum xi", " + ".join(f"x{i}" for i in range(1, n + 1))),
        ("sum xi^2", " + ".join(f"x{i}^2" for i in range(1, n + 1))),
        ("sum xi^3", " + ".join(f"x{i}^3" for i in range(1, n + 1))),
        (
            "sum xi*xj",
            " + ".join(
                f"x{i}*x{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)
            )
            or "0",
        ),
    ]
    return [(label, parse_poly(text, n)) for label, text in power_sums]


def mzv_suite(max_n: int, max_k: int) -> SuiteReport:
    """Cross-check the multiple-zeta pipeline against the independent
    evaluator for both kinds, over a fixed family of symmetric weights."""
    _validate_bounds(max_n, max_k)
    report = SuiteReport("mzv")
    for n in range(1, max_n + 1):
        for label, weight in _weight_family(n):
            for build in (mzv_identity, mzsv_identity):
                identity = build(weight, n)
                report.check(
                    _identity_degree_ok(identity.terms, int(max(weight.degree(), 0)), n),
                    f"degree bounds for {identity.kind} F={label} n={n}",
                )
                _check_k_grid(report, identity, max_k)
    return report


def words_suite(max_n: int) -> SuiteReport:
    """Word-algebra checks: the symmetric-sum expansions for every multiset
    of at most max_n letters 1.._MAX_LETTER, plus seeded commutativity/
    associativity/admissibility spot checks of both products.

    A multiset whose permutation sum equals both set-partition expansions
    counts as passed; only a failing one is rendered, by
    ``verify_symmetric_sum``.
    """
    _validate_bounds(max_n, MAX_K)
    report = SuiteReport("words")
    for depth in range(1, max_n + 1):
        for kvec in itertools.combinations_with_replacement(range(1, _MAX_LETTER + 1), depth):
            expected = symmetric_word_sum(kvec)
            if all(partition_word_sum(kvec, mode) == expected for mode in ("star", "sbar")):
                report.passed += 1
            else:
                report.add(verify_symmetric_sum(kvec))
    rng = random.Random(20250819)

    def random_word(min_first: int = 1) -> tuple[int, ...]:
        length = rng.randint(0, 3)
        letters = [rng.randint(1, 4) for _ in range(length)]
        if letters and letters[0] < min_first:
            letters[0] = min_first
        return tuple(letters)

    for _ in range(60):
        u, v = random_word(), random_word()
        report.check(star(u, v) == star(v, u), f"star commutes on {u}, {v}")
        report.check(sbar(u, v) == sbar(v, u), f"sbar commutes on {u}, {v}")
    for _ in range(30):
        u, v, w = random_word(), random_word(), random_word()
        report.check(
            star(star(u, v), w) == star(u, star(v, w)),
            f"star associates on {u}, {v}, {w}",
        )
        report.check(
            sbar(sbar(u, v), w) == sbar(u, sbar(v, w)),
            f"sbar associates on {u}, {v}, {w}",
        )
    for _ in range(30):
        u, v = random_word(min_first=2), random_word(min_first=2)
        report.check(
            is_admissible(star(u, v)) and is_admissible(sbar(u, v)),
            f"products of admissible words stay admissible on {u}, {v}",
        )
    return report


def run_suites(
    names: Sequence[str], max_n: int = DEFAULT_MAX_N, max_k: int = DEFAULT_MAX_K
) -> list[SuiteReport]:
    """Run the named suites (in the canonical order) with shared bounds.

    Every name and both bounds are checked before the first suite runs.
    """
    chosen = [name for name in SUITE_NAMES if name in names]
    unknown = set(names) - set(SUITE_NAMES)
    if unknown:
        raise ValueError(f"unknown suite names: {sorted(unknown)}")
    _validate_bounds(max_n, max_k)
    return [_RUNNERS[name](max_n, max_k) for name in chosen]
