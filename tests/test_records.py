"""The package's immutable value types behave as the frozen dataclasses they
replace: equality, hash, repr, keyword construction and refusal to change."""

import copy
import dataclasses
import pickle

import pytest

from squarefibers.audits import AuditRecord
from squarefibers.brute_oracle import GroupSpec
from squarefibers.ffpoly import Poly, field_from_order, field_make
from squarefibers.gl_classes import ClassData
from squarefibers.limits import InputError, ScaleLimitError
from squarefibers.partitions import Partition
from squarefibers.power_poly import ButlerEntry, ButlerProfile, SkewTwoPower, TwoPower
from squarefibers.square_fibers import SquareRootClassList

F3 = field_make(3, 1)
LINE = Poly(F3, (1, 1))
SQUARE = Partition(((1, 2),))
SINGLE = ClassData(F3, ((LINE, SQUARE),))

FIELDS = [
    (Poly, (F3, (2, 0, 1))),
    (ClassData, (F3, ((LINE, SQUARE),))),
    (Partition, (((1, 2), (3, 1)),)),
    (ButlerEntry, (2, 1, 8)),
    (ButlerProfile, ((ButlerEntry(2, 1, 8),), 4, 1)),
    (TwoPower, (LINE, Poly(F3, (2, 1)))),
    (SkewTwoPower, (Poly(F3, (1, 0, 1)),)),
    (SquareRootClassList, (SINGLE, (SINGLE,))),
    (AuditRecord, ("x+1", (("count", "4"),), ("closed form differs",))),
    (GroupSpec, ("sp", 2, 5)),
]


@pytest.mark.parametrize("cls,values", FIELDS, ids=[cls.__name__ for cls, _ in FIELDS])
def test_value_type_matches_its_frozen_dataclass(cls, values):
    names = cls.__slots__
    twin_cls = dataclasses.make_dataclass(cls.__name__, names, frozen=True)
    x, twin = cls(*values), twin_cls(*values)
    assert x == cls(*values) and not x != cls(*values)
    assert x == cls(**dict(zip(names, values)))
    assert x != values and x != twin
    assert hash(x) == hash(values) == hash(twin)
    assert repr(x) == repr(twin)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, values[0])
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert tuple(getattr(x, name) for name in names) == values
    assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x


def test_hot_value_types_compare_every_field():
    # Poly, ClassData and Partition write their own __eq__ and __hash__
    F5 = field_make(5, 1)
    assert Poly(F3, (1, 1)) != Poly(F5, (1, 1)) and Poly(F3, (1, 1)) != Poly(F3, (2, 1))
    assert SINGLE != ClassData(F5, SINGLE.entries)
    assert SINGLE != ClassData(F3, ((LINE, Partition(((2, 1),))),))
    assert SQUARE != Partition(((1, 1),))
    assert len({Poly(F3, (1, 1)), Poly(F5, (1, 1)), Poly(F3, [1, 1, 0])}) == 2


@pytest.mark.parametrize(
    "kind,n,q,error",
    [
        ("gl2", 2, 3, InputError),
        ("gl", 0, 3, InputError),
        ("sp", 3, 3, InputError),
        ("o+", 3, 3, InputError),
        ("o-", 1, 3, InputError),
        ("o0", 2, 3, InputError),
        ("gl", 2, 9 * 5, InputError),
        ("gl", 2, 2, InputError),
        ("u", 2, 2**21 + 1, ScaleLimitError),
    ],
)
def test_group_spec_refuses_what_it_refused_before(kind, n, q, error):
    with pytest.raises(error):
        GroupSpec(kind, n, q)


def test_poly_trims_trailing_zeros_from_any_sequence():
    F9 = field_from_order(9)
    assert Poly(F9, [4, 1, 0, 0]).coeffs == (4, 1)
    assert Poly(F9, (4, 1, 0)) == Poly(F9, [4, 1]) == Poly(F9, iter((4, 1)))
    assert Poly(F9, [0, 0]).coeffs == () and Poly(F9, ()).is_zero()
    assert Poly(F9, (0, 0, 7)).coeffs == (0, 0, 7)
