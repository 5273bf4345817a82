"""Round trips for the text and JSON codecs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from squarefibers.gl_classes import enumerate_classes
from squarefibers.limits import MAX_PARTITION_WEIGHT, InputError, ScaleLimitError
from squarefibers.partitions import Partition


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


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_class_data_roundtrip_over_enumerated_classes(data):
    q = data.draw(st.sampled_from([3, 5]))
    n = data.draw(st.integers(1, 3))
    cls = data.draw(st.sampled_from(list(enumerate_classes(n, q))))
    assert class_data_from_json(class_data_to_json(cls)) == cls
