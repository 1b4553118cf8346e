"""The table of admission limits.

Each limit up to which the package admits an input is paired with the test
that verifies an input at that limit against an oracle.  The test below
pins each limit's value and checks that its named test exists, so neither
can change without this table changing with it.
"""

import importlib

import pytest

from evenzeta import cli, max_parse_degree, quasi_shuffle, suites

#: (limit, its value now, the value pinned here, the test that verifies an
#: input at the limit, as file::class::function).
LIMITS = (
    (
        "cli.MAX_TABLE_DEPTH",
        cli.MAX_TABLE_DEPTH,
        48,
        "test_collapsed_sum.py::TestDeepIdentities::test_bernoulli",
    ),
    (
        "cli.MAX_DUMP_DEPTH",
        cli.MAX_DUMP_DEPTH,
        16,
        "test_derivative_tables.py::TestRecursionOracle::test_matches_fraction_recursion_at_depth_32",
    ),
    (
        "cli.MAX_MZV_DEPTH",
        cli.MAX_MZV_DEPTH,
        10,
        "test_mzv_identities.py::TestAdmittedDepths::test_lowest_k_against_the_two_string",
    ),
    (
        "polynomials.max_parse_degree(3)",
        max_parse_degree(3),
        16,
        "test_polynomials.py::TestParser::test_dense_weight_at_the_degree_limit",
    ),
    (
        "polynomials.max_parse_degree(4)",
        max_parse_degree(4),
        9,
        "test_mzv_identities.py::TestOrbitCombination::test_dense_weights_at_the_degree_limit",
    ),
    (
        "quasi_shuffle._MAX_SYMMETRIC_DEPTH",
        quasi_shuffle._MAX_SYMMETRIC_DEPTH,
        8,
        "test_quasi_shuffle.py::TestPartitionExpansion::test_words_at_the_depth_cap",
    ),
    (
        "quasi_shuffle._MAX_VERIFY_DEPTH",
        quasi_shuffle._MAX_VERIFY_DEPTH,
        6,
        "test_quasi_shuffle.py::TestPartitionExpansion::test_deep_words_match_the_permutation_sum",
    ),
    (
        "suites.MAX_N",
        suites.MAX_N,
        5,
        "test_collapsed_sum.py::TestSuiteIdentities::test_mzv_and_mzsv",
    ),
    (
        "suites.MAX_K",
        suites.MAX_K,
        16,
        "test_collapsed_sum.py::TestSuiteIdentities::test_bernoulli_and_zeta",
    ),
)


@pytest.mark.parametrize("limit, value, pinned, test", LIMITS, ids=[row[0] for row in LIMITS])
def test_each_limit_names_an_existing_test(limit, value, pinned, test):
    assert value == pinned, limit
    path, *names = test.split("::")
    target = importlib.import_module(path.removesuffix(".py"))
    for name in names:
        target = getattr(target, name)
    assert callable(target) and names[-1].startswith("test_"), test
