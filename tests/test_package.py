"""The package root re-exports exactly the names its modules declare, and its
value types survive copy, deepcopy and pickle."""

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
