"""The package root re-exports exactly the names its modules declare, the
public names are pinned, every public function is either reached by a CLI
run or a pinned entry point, and its value types survive copy, deepcopy and
pickle."""

import contextlib
import copy
import importlib
import inspect
import io
import os
import pathlib
import pickle
import subprocess
import sys
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
    "bernoulli_suite", "block_shapes", "c_coeffs",
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

#: The public functions no CLI run reaches: the documented entry points of
#: library callers.  A function that no longer serves the CLI and is not one
#: of these is stranded, and goes.
ENTRY_POINTS = [
    "bernoulli_lhs", "composition_sum", "eval_zeta_lhs", "from_json", "mzv_lhs_exact",
    "mzv_numeric", "symmetric_sum", "verify_bernoulli", "verify_identity", "verify_mzv",
    "verify_symmetric_sum", "verify_zeta",
]

#: Cheap runs of every subcommand, in every format.
CLI_RUNS = [
    *(
        ["identity", "--kind", kind, "--n", "2", *weight, "--format", fmt]
        for kind, weight in (
            ("bernoulli", ["--m", "2,1"]),
            ("zeta", ["--m", "2,1"]),
            ("zeta", ["--poly", "x1*x2 + 1"]),
            ("mzv", ["--poly", "x1^2 + x2^2"]),
            ("mzsv", ["--poly", "x1^2 + x2^2"]),
        )
        for fmt in ("text", "json", "latex")
    ),
    ["verify", "--suite", "all"],
    ["verify", "--suite", "all", "--format", "json"],
    *(["examples", "--section", str(section)] for section in evenzeta.sections()),
    *(["tables", "--depth", "3", "--format", fmt] for fmt in ("text", "json", "latex")),
]


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


def public_functions():
    """Every function named in ``evenzeta.__all__`` or ``series.__all__``,
    unwrapped from its cache, by name."""
    series = importlib.import_module("evenzeta.series")
    named = (
        (name, inspect.unwrap(getattr(module, name)))
        for module in (evenzeta, series)
        for name in module.__all__
    )
    return {name: fn for name, fn in named if inspect.isfunction(fn)}


def unreached_public_functions():
    """The names of ``public_functions`` whose code no run of ``CLI_RUNS``
    enters, traced with ``sys.setprofile``."""
    from evenzeta.cli import main

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in CLI_RUNS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
    finally:
        sys.setprofile(None)
    return sorted(name for name, fn in public_functions().items() if fn.__code__ not in entered)


def test_every_public_function_is_reached_or_an_entry_point():
    # Traced in a fresh interpreter: a cache filled by another test would
    # hide the calls behind it.
    paths = [pathlib.Path(__file__).parent, pathlib.Path(evenzeta.__file__).parents[1]]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
    script = "import test_package; print(*test_package.unreached_public_functions())"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    stranded = sorted(set(done.stdout.split()) - set(ENTRY_POINTS))
    assert not stranded, f"public functions that no CLI run reaches: {stranded}"
    assert set(ENTRY_POINTS) <= set(public_functions())


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
