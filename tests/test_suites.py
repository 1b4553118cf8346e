"""Verification suite runner and report bookkeeping."""

import sys
from fractions import Fraction

import pytest
from test_quasi_shuffle import _package_caches

from evenzeta import (
    CheckResult,
    NCPoly,
    SUITE_NAMES,
    SuiteReport,
    bernoulli_suite,
    bernoulli_sums,
    mzv_suite,
    parse_poly,
    quasi_shuffle,
    run_suites,
    suites,
    tables_suite,
    verify_identity,
    verify_symmetric_sum,
    words_suite,
    zeta_suite,
)


def _clear_package_caches():
    """Empty every cache the package defines, as ``_package_caches`` finds
    them, so a fault injected between two calls reaches every result built
    above it, wherever that result is cached."""
    for cache in _package_caches().values():
        cache.cache_clear()


class TestSuiteReport:
    def test_counts(self):
        report = SuiteReport("demo")
        report.check(True, "first")
        report.check(False, "second")
        report.skip()
        report.skip()
        assert report.passed == 1
        assert report.failed == 1
        assert report.skipped == 2
        assert not report.ok

    def test_first_failure_kept(self):
        report = SuiteReport("demo")
        report.add(CheckResult(ok=True, label="a", lhs="1", rhs="1"))
        report.add(CheckResult(ok=False, label="b", lhs="1", rhs="2"))
        report.add(CheckResult(ok=False, label="c", lhs="3", rhs="4"))
        assert report.first_failure is not None
        assert report.first_failure.label == "b"

    def test_summary_line(self):
        report = SuiteReport("demo")
        report.check(True, "x")
        assert report.summary_line() == "suite=demo passed=1 failed=0 skipped=0 ok=yes"

    def test_as_dict(self):
        report = SuiteReport("demo")
        report.check(True, "x")
        payload = report.as_dict()
        assert payload["suite"] == "demo"
        assert payload["ok"] is True
        assert payload["first_failure"] is None


class TestRunSuites:
    def test_canonical_order(self):
        reports = run_suites(("words", "tables"), max_n=2, max_k=4)
        assert [r.suite for r in reports] == ["tables", "words"]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            run_suites(("tables", "nosuch"))

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            run_suites(("zeta",), max_n=0)
        with pytest.raises(ValueError):
            run_suites(("zeta",), max_k=999)

    def test_small_full_run_green(self):
        reports = run_suites(SUITE_NAMES, max_n=3, max_k=6)
        assert len(reports) == len(SUITE_NAMES)
        for report in reports:
            assert report.ok, report.summary_line()
            assert report.failed == 0

    def test_default_bound_counts(self):
        # (passed, failed, skipped) per suite at the CLI's default bounds.
        counts = {r.suite: (r.passed, r.failed, r.skipped) for r in run_suites(SUITE_NAMES)}
        assert counts == {
            "tables": (741, 0, 0),
            "bernoulli": (673, 0, 155),
            "zeta": (673, 0, 155),
            "mzv": (380, 0, 60),
            "words": (244, 0, 0),
        }

    def test_largest_bound_counts(self):
        # (passed, failed, skipped) per suite at the largest bounds.
        counts = {
            r.suite: (r.passed, r.failed, r.skipped)
            for r in run_suites(SUITE_NAMES, max_n=5, max_k=16)
        }
        assert counts == {
            "tables": (741, 0, 0),
            "bernoulli": (1871, 0, 379),
            "zeta": (1871, 0, 379),
            "mzv": (750, 0, 100),
            "words": (265, 0, 0),
        }


class TestIndividualSuites:
    def test_words_depth_bound(self):
        # The words suite takes the depth bound 1..5 of every other suite.
        for max_n in (0, 6):
            with pytest.raises(ValueError):
                words_suite(max_n=max_n)

    def test_words_deterministic(self):
        # The random pairs are drawn from a fixed seed.
        first = words_suite(3)
        second = words_suite(3)
        assert first.passed == second.passed
        assert first.ok and second.ok

    def test_k_weighted_relation_catches_a_table_fault(self, monkeypatch):
        # Perturb the constant (even) coefficient of entry 1 of f_prod, which
        # bernoulli_identity collapses, for every tuple of length >= 2 and
        # weight 2.  With max_k = 1 every per-k check of those tuples is
        # skipped (k < n), so only the k-weighted relation can see the
        # fault: it compares identities of weights 1 and 2 with those of
        # weights 2 and 3.
        original = bernoulli_sums.f_prod

        def perturbed(mvec):
            product = list(original(mvec))
            if len(mvec) >= 2 and sum(mvec) == 2:
                product[1] = product[1] + Fraction(1, 7)
            return tuple(product)

        # Every cache is emptied, those above f_prod among them: the
        # elimination rows and the monomial identities.
        _clear_package_caches()
        try:
            with monkeypatch.context() as patch:
                for name, module in list(sys.modules.items()):
                    if name.startswith("evenzeta") and vars(module).get("f_prod") is original:
                        patch.setattr(module, "f_prod", perturbed)
                report = zeta_suite(max_n=3, max_k=1)
        finally:
            _clear_package_caches()
        assert report.failed == 14
        assert report.first_failure.label.startswith("k-weighted relation")


class TestRenderOnlyFailures:
    """The words and tables suites count a passing check without rendering
    it; a failing one must still be counted and reported in full."""

    def test_words_suite_renders_a_failing_multiset(self, monkeypatch):
        # A wrong sbar expansion of one multiset: the star expansion stays
        # right, so a suite that compared it alone would pass.
        target = (1, 2, 2)
        original = quasi_shuffle.partition_word_sum

        def wrong(kvec, mode):
            expansion = original(kvec, mode)
            if tuple(kvec) == target and mode == "sbar":
                return NCPoly({**expansion.terms, (9,): 1})
            return expansion

        clean = words_suite(3)
        with monkeypatch.context() as patch:
            for module in (suites, quasi_shuffle):
                patch.setattr(module, "partition_word_sum", wrong)
            report = words_suite(3)
            expected = verify_symmetric_sum(target)
        assert not expected.ok
        assert (report.passed, report.failed) == (clean.passed - 1, 1)
        assert report.first_failure == expected

    def test_tables_suite_fails_the_inverse_relations_of_a_corrupted_g_entry(self, monkeypatch):
        # g[5,3] + 1/7 keeps its degree and leading coefficient, so only the
        # inverse relations sum_j f[m,j] g[j-1,3] with j - 1 = 5 see it:
        # those at (m, 3) for m = 5..12.
        original = suites.g_table

        class Corrupted:
            def __init__(self, table):
                self.table = table

            def entry(self, m, i):
                value = self.table.entry(m, i)
                return value + Fraction(1, 7) if (m, i) == (5, 3) else value

        monkeypatch.setattr(suites, "g_table", lambda depth: Corrupted(original(depth)))
        report = tables_suite()
        assert (report.passed, report.failed) == (741 - 8, 8)
        assert report.first_failure.label == "inverse relation at (5,3)"


class TestGridFailures:
    """A suite renders a failing k only, by ``verify_identity``: one
    identity's constant term is shifted by 1/7, so its collapsed side is
    wrong at every k, and the report must count each and hold exactly what
    ``verify_identity`` says of the shifted identity at k = n."""

    MAX_N, MAX_K = 3, 6

    @staticmethod
    def _shifted(identity):
        polys = identity.terms
        return identity.replace(terms=(polys[0] + Fraction(1, 7), *polys[1:]))

    def _run(self, monkeypatch, builder, target, run):
        original = getattr(suites, builder)
        shifted = []

        def wrapper(*args):
            identity = original(*args)
            if args == target:
                shifted.append(self._shifted(identity))
                return shifted[-1]
            return identity

        _clear_package_caches()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(suites, builder, wrapper)
                report = run(self.MAX_N, self.MAX_K)
        finally:
            _clear_package_caches()
        (identity,) = shifted
        return report, identity

    @staticmethod
    def _assert_rendered_as_verify_identity(failure, identity):
        expected = verify_identity(identity, identity.n)
        assert not expected.ok
        assert (failure.ok, failure.label, failure.lhs, failure.rhs) == (
            expected.ok,
            expected.label,
            expected.lhs,
            expected.rhs,
        )

    def test_bernoulli(self, monkeypatch):
        report, identity = self._run(
            monkeypatch, "bernoulli_identity", ((1, 0, 1),), bernoulli_suite
        )
        assert report.failed == self.MAX_K - 3 + 1
        self._assert_rendered_as_verify_identity(report.first_failure, identity)

    def test_zeta(self, monkeypatch):
        # The k-weighted relation of the shifted identity fails too, and it
        # is checked before the identity's grid; the grid's own first
        # failure is read off a fresh report.
        report, identity = self._run(
            monkeypatch, "zeta_identity_monomial", ((2, 1),), zeta_suite
        )
        assert report.failed == self.MAX_K - 2 + 1 + 1
        assert report.first_failure.label == "k-weighted relation for m=(2, 1)"
        grid = SuiteReport("zeta")
        suites._check_k_grid(grid, identity, self.MAX_K)
        assert (grid.passed, grid.failed, grid.skipped) == (0, self.MAX_K - 2 + 1, 1)
        self._assert_rendered_as_verify_identity(grid.first_failure, identity)

    def test_mzv(self, monkeypatch):
        target = (parse_poly("x1^2 + x2^2 + x3^2", 3), 3)
        report, identity = self._run(monkeypatch, "mzv_identity", target, mzv_suite)
        assert report.failed == self.MAX_K - 3 + 1
        self._assert_rendered_as_verify_identity(report.first_failure, identity)
