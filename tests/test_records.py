"""The frozen records share one slotted base: they refuse assignment,
compare and hash by value within one type only, keep the dataclass-style
``repr``, rebuild through ``__init__`` for copy, deepcopy and pickle, and
``replace`` returns a copy of the same type.  Importing the CLI loads no
``dataclasses`` or ``inspect`` and expands no gallery entry."""

import copy
import inspect
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import evenzeta
from evenzeta import (
    BernoulliIdentity,
    CheckResult,
    GalleryIdentity,
    Triangle,
    WeightedSumIdentity,
    bernoulli_identity,
    documents,
    f_table,
    gallery,
    mzsv_identity,
    parse_poly,
    zeta_identity_monomial,
)
from evenzeta._records import Record

RECORDS = {
    "CheckResult": CheckResult(ok=False, label="k=3", lhs="1/36", rhs="7/180"),
    "BernoulliIdentity": bernoulli_identity((2, 0, 1)),
    "WeightedSumIdentity-mvec": zeta_identity_monomial((2, 1)),
    "WeightedSumIdentity-poly": mzsv_identity(parse_poly("x1^2 + x2^2", 2), 2),
    "Triangle": f_table(3),
    "_Kind": documents._KINDS["zeta"],
    "GalleryIdentity": gallery(4)[1],
}

records = pytest.mark.parametrize("value", list(RECORDS.values()), ids=list(RECORDS))


def fields(value):
    return tuple(getattr(value, name) for name in type(value).__slots__)


def test_every_record_class_is_covered():
    classes = {BernoulliIdentity, CheckResult, GalleryIdentity, Triangle, WeightedSumIdentity, documents._Kind}
    assert {type(value) for value in RECORDS.values()} == classes
    assert all(issubclass(cls, Record) for cls in classes)


@records
def test_init_takes_the_slots_in_order(value):
    # ``_assign``, ``__reduce__`` and ``replace`` all rely on this order.
    parameters = list(inspect.signature(type(value)).parameters)
    assert tuple(parameters) == type(value).__slots__


@records
def test_assignment_and_deletion_raise(value):
    name = type(value).__slots__[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(value, name, before)
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown = 1
    assert getattr(value, name) is before
    assert not hasattr(value, "__dict__")


@records
def test_equal_values_are_equal_and_hash_equal(value):
    twin = type(value)(*fields(value))
    assert twin is not value
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)


@records
def test_never_equal_to_a_tuple_or_another_type(value):
    assert value != fields(value)
    assert fields(value) != value
    twin_type = type("Twin", (Record,), {"__slots__": type(value).__slots__, "__init__": Record._assign})
    other = twin_type(*fields(value))
    assert fields(other) == fields(value)
    assert other != value and value != other


@records
def test_copies_round_trip(value):
    copies = [copy.copy(value), copy.deepcopy(value)]
    if type(value) is not documents._Kind:  # its columns are lambdas, which pickle refuses
        copies.append(pickle.loads(pickle.dumps(value)))
    for restored in copies:
        assert type(restored) is type(value)
        assert restored == value


@records
def test_replace_returns_a_copy_of_the_same_type(value):
    same = value.replace()
    assert type(same) is type(value) and same == value and same is not value
    name, marker = type(value).__slots__[-1], object()
    changed = value.replace(**{name: marker})
    assert type(changed) is type(value)
    assert getattr(changed, name) is marker
    assert fields(changed)[:-1] == fields(value)[:-1]
    assert value != changed
    with pytest.raises(TypeError):
        value.replace(unknown=1)


def test_repr_is_the_dataclass_layout():
    assert repr(CheckResult(ok=True, label="a", lhs="1", rhs="2")) == (
        "CheckResult(ok=True, label='a', lhs='1', rhs='2')"
    )
    identity = zeta_identity_monomial((0,))
    assert repr(identity) == (
        f"WeightedSumIdentity(kind='zeta', n=1, T=0, terms={identity.terms!r}, mvec=(0,), poly=None)"
    )


def test_bernoulli_kind_is_a_class_attribute():
    identity = bernoulli_identity((1, 1))
    assert "kind" not in BernoulliIdentity.__slots__
    assert BernoulliIdentity.kind == identity.kind == "bernoulli"
    assert fields(identity) == (identity.mvec, identity.T, identity.rhs)


def test_import_loads_no_dataclasses_and_builds_no_gallery():
    # In a fresh interpreter: the test session has imported both modules.
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(evenzeta.__file__).parents[1])}
    script = (
        "import sys, evenzeta.cli, evenzeta.examples as e; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)), e._gallery.cache_info().misses)"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "0"]
