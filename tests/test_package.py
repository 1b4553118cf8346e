"""The package root re-exports exactly the names its modules declare, the
public names are pinned, and its value types survive copy, deepcopy and
pickle."""

import copy
import importlib
import pickle
from fractions import Fraction

import pytest

import evenzeta

_REEXPORTED = (
    "bernoulli_sums",
    "checks",
    "derivative_tables",
    "documents",
    "enumeration",
    "examples",
    "mzv_identities",
    "polynomials",
    "quasi_shuffle",
    "rationals",
    "suites",
    "zeta_identities",
)

#: The public API.  A change to it is a deliberate edit of these lists.
PUBLIC_NAMES = [
    "BernoulliIdentity", "CheckResult", "GalleryIdentity", "MultiPoly", "NCPoly", "NEG_INFINITY",
    "ParseError", "SCHEMA_VERSION", "SUITE_NAMES", "SuiteReport", "Triangle", "UniPoly",
    "WeightedSumIdentity", "Word", "bernoulli", "bernoulli_identity", "bernoulli_lhs",
    "bernoulli_suite", "big_F", "block_reduce", "block_shapes", "c_coeffs",
    "check_gallery_identity", "d_coeffs", "eval_identity_rhs", "eval_zeta_lhs", "f_prod",
    "f_table", "from_json", "g_table", "gallery", "is_admissible", "max_parse_degree",
    "mzsv_identity", "mzv_identity", "mzv_lhs_exact", "mzv_numeric", "mzv_suite", "parse_poly",
    "partition_word_sum", "poly_latex", "poly_text", "run_suites", "sbar", "sections", "star",
    "symmetric_word_sum", "tables_suite", "to_json", "to_latex", "to_text", "truncation_depth",
    "verify_bernoulli", "verify_identity", "verify_mzv", "verify_symmetric_sum", "verify_zeta",
    "words_suite", "zeta_even", "zeta_identity_monomial", "zeta_identity_poly", "zeta_suite",
]
SERIES_NAMES = ["Series", "composition_sum", "symmetric_sum", "zeta_over_pi"]
CLI_NAMES = ["MAX_DUMP_DEPTH", "MAX_MZV_DEPTH", "MAX_TABLE_DEPTH", "main"]


def test_root_exports_the_union_of_module_lists():
    names = evenzeta.__all__
    assert names == sorted(set(names))
    modules = [importlib.import_module(f"evenzeta.{name}") for name in _REEXPORTED]
    assert set(names) == {name for module in modules for name in module.__all__}
    for module in modules:
        for name in module.__all__:
            assert getattr(evenzeta, name) is getattr(module, name), name
    for private in ("series", "cli"):
        module = importlib.import_module(f"evenzeta.{private}")
        assert not set(module.__all__) & set(names), private


def test_public_names_are_pinned():
    assert evenzeta.__all__ == PUBLIC_NAMES
    assert importlib.import_module("evenzeta.series").__all__ == SERIES_NAMES
    assert importlib.import_module("evenzeta.cli").__all__ == CLI_NAMES


@pytest.mark.parametrize(
    "value",
    [
        evenzeta.UniPoly([Fraction(1, 3), 0, -2]),
        evenzeta.parse_poly("x1^2*x2 - 1/3", 2),
        evenzeta.NCPoly({(2, 4): Fraction(1, 2), (6,): 3}),
        evenzeta.mzsv_identity(evenzeta.parse_poly("x1^2 + x2^2", 2), 2),
        evenzeta.bernoulli_identity((2, 0, 1)),
    ],
    ids=["UniPoly", "MultiPoly", "NCPoly", "WeightedSumIdentity", "BernoulliIdentity"],
)
def test_values_survive_copy_deepcopy_and_pickle(value):
    for restored in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(restored) is type(value)
        assert restored == value
