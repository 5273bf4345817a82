"""Round trips for the text and JSON codecs."""

import pytest

from squarefibers.brute_oracle import (
    GroupSpec,
    build_table,
    class_data_of_element,
    conjugacy_classes,
)
from squarefibers.ffpoly import field_make
from squarefibers.formats import (
    class_data_from_json,
    class_data_to_json,
    field_from_text,
    partition_from_text,
    partition_to_text,
    poly_from_text,
    poly_to_text,
)
from squarefibers.gl_classes import enumerate_classes, inverse_class
from squarefibers.limits import MAX_PARTITION_WEIGHT, InputError, ScaleLimitError
from squarefibers.partitions import Partition
from squarefibers.square_fibers import square_class, square_root_classes


def test_field_from_text_forms():
    assert field_from_text("9") is field_make(3, 2)
    assert field_from_text("3^2") is field_make(3, 2)
    assert field_from_text("7") is field_make(7, 1)
    with pytest.raises(InputError):
        field_from_text("6")
    with pytest.raises(InputError):
        field_from_text("banana")


@pytest.mark.parametrize("text", ["3^13", "3^30000000", "1048583", str(2**89 - 1)])
def test_field_from_text_refuses_orders_over_the_limit(text):
    with pytest.raises(ScaleLimitError):
        field_from_text(text)


def test_poly_text_roundtrip(F3):
    f = poly_from_text(F3, "2,2,1")
    assert f.coeffs == (2, 2, 1)
    assert poly_to_text(f) == "2,2,1"
    with pytest.raises(InputError):
        poly_from_text(F3, "4,1")
    with pytest.raises(InputError):
        poly_from_text(F3, "a,b")


def test_partition_text_roundtrip():
    lam = partition_from_text("1^2+3^4")
    assert lam == Partition(((1, 2), (3, 4)))
    assert partition_to_text(lam) == "1^2+3^4"
    assert partition_from_text("2") == Partition(((2, 1),))
    assert partition_from_text("3+1^2") == Partition(((1, 2), (3, 1)))
    with pytest.raises(InputError):
        partition_from_text("")
    with pytest.raises(InputError):
        partition_from_text("1^0")


def test_partition_weight_limit_applies_at_parse_time():
    assert partition_from_text(f"1^{MAX_PARTITION_WEIGHT}").weight == MAX_PARTITION_WEIGHT
    assert partition_from_text("2^31+1^2").weight == MAX_PARTITION_WEIGHT
    for text in (f"1^{MAX_PARTITION_WEIGHT + 1}", "2^32+1^1", "1^100000"):
        with pytest.raises(ScaleLimitError):
            partition_from_text(text)


@pytest.mark.parametrize("obj", [
    {"q": "3", "entries": [{"partition": "1^1"}]},
    {"q": "3", "entries": [{"poly": 11, "partition": "1^1"}]},
    {"q": "3", "entries": ["1,1"]},
    {"q": "3", "entries": "abc"},
    {"q": "3", "n": "x", "entries": [{"poly": "1,1", "partition": "1^1"}]},
    {"q": "3", "n": True, "entries": [{"poly": "1,1", "partition": "1^1"}]},
])
def test_class_data_json_shape_is_validated(obj):
    with pytest.raises(InputError):
        class_data_from_json(obj)


def test_class_data_json_shape(F3):
    data = next(iter(enumerate_classes(2, 3)))
    obj = class_data_to_json(data)
    assert set(obj) == {"q", "n", "entries"}
    assert obj["q"] == "3"
    assert class_data_from_json(obj) == data


def test_class_data_json_validation():
    with pytest.raises(InputError):
        class_data_from_json({"q": "3", "entries": [{"poly": "2,0,1", "partition": "1^1"}]})
    with pytest.raises(InputError):
        class_data_from_json(
            {"q": "3", "n": 5, "entries": [{"poly": "1,1", "partition": "1^2"}]}
        )
    with pytest.raises(InputError):
        class_data_from_json({"q": "3"})


def _class_json(*entries):
    return {"q": "3", "entries": [{"poly": f, "partition": lam} for f, lam in entries]}


def test_class_data_validation():
    for obj in (
        _class_json(),  # no entry
        _class_json(("1,1", "1"), ("1,1", "1")),  # a polynomial twice
        _class_json(("1,1", "1"), ("1,1,0", "1")),  # the same one once trimmed
        _class_json(("1,2", "1")),  # not monic
        _class_json(("1", "1")),  # degree 0
        _class_json(("0,1", "1")),  # divisible by x
    ):
        with pytest.raises(InputError):
            class_data_from_json(obj)


def test_partition_validation():
    for text in ("1^1+1^2", "1^0", "0^1", "-1^1", "1^-1"):
        with pytest.raises(InputError):
            partition_from_text(text)
        with pytest.raises(InputError):
            class_data_from_json(_class_json(("1,1", text)))


def _assert_parses_back(cls):
    assert class_data_from_json(class_data_to_json(cls)) == cls


def test_class_data_roundtrip_over_enumerated_classes():
    # the class walk and the products of each class build their data
    # unchecked; the parser's checks must accept every value they make
    cells = [(n, q) for n in (1, 2, 3) for q in (3, 5, 9)] + [(4, 3)]
    for n, q in cells:
        for cls in enumerate_classes(n, q):
            _assert_parses_back(cls)
            _assert_parses_back(square_class(cls))
            _assert_parses_back(inverse_class(cls))
            for root in square_root_classes(cls).roots:
                _assert_parses_back(root)


@pytest.mark.parametrize("q", [3, 5])
def test_class_data_of_element_roundtrip(q):
    table = build_table(GroupSpec("gl", 2, q))
    for cls in conjugacy_classes(table):
        _assert_parses_back(class_data_of_element(table.field, table.matrix(cls[0])))
