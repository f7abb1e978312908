"""The contract that every immutable value shares (`autgrammar._Value`):
equal, and hashed alike, by its `_values()` within its own class, pickled
and copied by calling the class on them, and closed to assignment and
deletion."""

import copy
import pickle

import pytest

from autgrammar import _Value
from autgrammar.grammar import Grammar
from autgrammar.graph import Graph
from autgrammar.perm import Permutation, Word
from conftest import petersen_graph

VALUES = {
    "graph": Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "petersen": petersen_graph(),
    "grammar": Grammar(2, "B1", ("B1", "A"), (("B1", (1, "A")), ("B1", ("A", 2)), ("A", (2,)), ("A", (1,)))),
    "empty-grammar": Grammar(1, "S", ("S",), (), True),
    "permutation": Permutation((2, 1, 3)),
    "word": Word((3, 1, 3)),
    "empty-word": Word(()),
}


class _Other(_Value):
    """A value of another class with any given `_values()`."""

    __slots__ = ("values",)

    def __init__(self, *values):
        self._set(values=values)

    def _values(self):
        return self.values


@pytest.fixture(params=list(VALUES), ids=list(VALUES))
def value(request):
    return VALUES[request.param]


def test_twin_from_values_is_equal(value):
    twin = type(value)(*value._values())
    assert twin == value and value == twin and not twin != value
    assert twin is not value and hash(twin) == hash(value) == hash(value._values())
    assert repr(twin) == repr(value)


def test_other_class_with_equal_values_differs(value):
    other = _Other(*value._values())
    assert other._values() == value._values() and other == _Other(*value._values())
    assert other != value and value != other and not value == other
    assert value != value._values() and value != None  # noqa: E711


def test_permutation_differs_from_its_word():
    a, w = Permutation((1, 2)), Word((1, 2))
    assert a._values() == w._values() and a != w and w != a


def test_pickle_and_copies_are_equal(value):
    for back in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(back) is type(value) and back == value and hash(back) == hash(value)
        assert back._values() == value._values() and repr(back) == repr(value)


def _fields(cls) -> set:
    """Every slot and property of cls, and one name it does not have."""
    names = [name for klass in cls.__mro__ for name in getattr(klass, "__slots__", ())]
    names += [name for name in vars(cls) if isinstance(vars(cls)[name], property)]
    return {*names, "other"}


def test_every_assignment_raises(value):
    cls = type(value)
    before = repr(value)
    for name in _fields(cls):
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(value, name, None)
    assert repr(value) == before


def test_every_deletion_raises(value):
    cls = type(value)
    before = repr(value), hash(value)
    for name in _fields(cls):
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            delattr(value, name)
    assert (repr(value), hash(value)) == before


def test_records_hash_as_the_one_tuple_of_their_field():
    for p in ((1,), (2, 1, 3), (3, 1, 2, 4)):
        assert hash(Permutation(p)) == hash((p,)) == hash(Word(p))
