"""The package root re-exports exactly the names its modules declare."""

import importlib

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
