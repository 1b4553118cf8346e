"""Verification suite runner and report bookkeeping."""

import sys
from fractions import Fraction

import pytest

from evenzeta import (
    CheckResult,
    SUITE_NAMES,
    SuiteReport,
    bernoulli_sums,
    run_suites,
    words_suite,
    zeta_identities,
    zeta_suite,
)


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
        # Perturb one even coefficient of F_2 in big_F for every tuple of
        # length >= 2 and weight 2.  With max_k = 1 every per-k check of those
        # tuples is skipped (k < n), so only the k-weighted relation can see
        # the fault: it compares identities of weights 1 and 2 with those of
        # weights 2 and 3.
        original = bernoulli_sums.big_F

        def perturbed(mvec):
            collapsed = list(original(mvec))
            if len(mvec) >= 2 and sum(mvec) == 2:
                collapsed[2] = collapsed[2] + Fraction(1, 7)
            return tuple(collapsed)

        zeta_identities._monomial_identity.cache_clear()
        try:
            with monkeypatch.context() as patch:
                for name, module in list(sys.modules.items()):
                    if name.startswith("evenzeta") and vars(module).get("big_F") is original:
                        patch.setattr(module, "big_F", perturbed)
                report = zeta_suite(max_n=3, max_k=1)
        finally:
            zeta_identities._monomial_identity.cache_clear()
        # n = 2: 2 tuples of weight 1 and 3 of weight 2; n = 3: 3 and 6.
        assert report.failed == 14
        assert report.first_failure.label.startswith("k-weighted relation")
