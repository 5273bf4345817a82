"""Class enumeration, centralizer orders, representatives and inversion,
checked against the exhaustive oracle on small groups."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarefibers.brute_oracle import (
    GroupSpec,
    build_table,
    class_data_of_element,
    conjugacy_classes,
    representative_index,
    representative_matrix,
)
from squarefibers.cli import run
from squarefibers.ffpoly import Field, Poly, field_from_order, field_make, monic_irreducibles
from squarefibers.gl_classes import (
    ClassData,
    block_centralizer_order,
    centralizer_order,
    class_count,
    class_size,
    element_order_of_class,
    enumerate_classes,
    gl_order,
    inverse_class,
    make_class_data,
)
from squarefibers.limits import MAX_CLASS_COUNT, MAX_PARTITION_WEIGHT, ScaleLimitError
from squarefibers.matrices import identity_matrix, mat_mul
from squarefibers.partitions import Partition, partition_count, partitions_of


def _data(field, *entries):
    return make_class_data(
        field, [(Poly(field, c), Partition(tuple(lam))) for c, lam in entries]
    )


def test_gl_order_examples():
    assert gl_order(1, 3) == 2
    assert gl_order(2, 3) == 48
    assert gl_order(3, 3) == 11232
    assert gl_order(0, 5) == 1


def test_enumerate_classes_counts():
    assert len(list(enumerate_classes(1, 3))) == 2
    assert len(list(enumerate_classes(2, 3))) == 8
    assert len(list(enumerate_classes(2, 5))) == 24
    # q^2 - 1 for GL_2, q^3 - q for GL_3
    assert class_count(2, 7) == 48
    assert class_count(3, 3) == 24


def test_enumerate_classes_matches_class_count():
    for n, q in [(1, 3), (2, 3), (3, 3), (2, 5), (4, 3)]:
        assert len(list(enumerate_classes(n, q))) == class_count(n, q)


def test_enumerate_classes_depth_is_bounded_by_n():
    # GL_2(49) has 1224 class polynomials; a recursion frame per
    # polynomial overflowed the interpreter stack here
    assert sum(1 for _ in enumerate_classes(2, 49)) == class_count(2, 49)


def _recursive_walk(n, q):
    """The class walk as one generator per level, handing each class up
    through every level with ``yield from``: the reference order."""
    field = field_from_order(q)
    polys, ends = [], [0]
    for d in range(1, n + 1):
        polys.extend(f for f in monic_irreducibles(field, d) if f.constant_term() != 0)
        ends.append(len(polys))
    acc = []

    def rec(remaining, start):
        if remaining == 0:
            yield ClassData(field, tuple(acc))
            return
        for i in range(ends[remaining] - 1, start - 1, -1):
            f = polys[i]
            for w in range(1, remaining // f.degree + 1):
                for lam in partitions_of(w):
                    acc.append((f, lam))
                    yield from rec(remaining - f.degree * w, i + 1)
                    acc.pop()

    yield from rec(n, 0)


@pytest.mark.parametrize("n,q", [(1, 3), (3, 3), (4, 7), (5, 5), (2, 25), (3, 9)])
def test_flat_walk_yields_the_recursive_walk_in_order(n, q):
    flat = list(enumerate_classes(n, q))
    assert flat == list(_recursive_walk(n, q))
    assert len(flat) == class_count(n, q)


def test_block_centralizer_memo_stays_within_its_bound(capsys):
    assert run(["real-classes", "--n", "6", "--q", "3"]) == 0
    capsys.readouterr()
    info = block_centralizer_order.cache_info()
    assert info.maxsize is not None
    assert 0 < info.currsize <= info.maxsize


def test_class_count_bound_refuses_every_n_past_the_weight_bound():
    # GL_n(q) has at least p(n) classes, one unipotent class per partition,
    # and p(n) > p(MAX_PARTITION_WEIGHT) > MAX_CLASS_COUNT for larger n:
    # that n is refused before class_count is formed
    assert partition_count(MAX_PARTITION_WEIGHT) == 1_741_630 > MAX_CLASS_COUNT
    assert class_count(MAX_PARTITION_WEIGHT, 3) > MAX_CLASS_COUNT
    for n in (MAX_PARTITION_WEIGHT + 1, 10**12):
        with pytest.raises(ScaleLimitError):
            next(enumerate_classes(n, 3))


def test_gl1_classes_are_the_nonzero_scalars(F3):
    datas = list(enumerate_classes(1, 3))
    keys = sorted(str(d.entries[0][0]) for d in datas)
    assert keys == ["1,1", "2,1"]
    assert all(d.entries[0][1] == Partition(((1, 1),)) for d in datas)


@pytest.mark.parametrize("n,q", [(1, 3), (2, 3), (3, 3), (1, 5), (2, 5), (2, 7)])
def test_class_mass_equals_group_order(n, q):
    sizes = (class_size(d, centralizer_order(d)) for d in enumerate_classes(n, q))
    assert sum(sizes) == gl_order(n, q)


def test_centralizer_order_examples(F3):
    assert centralizer_order(_data(F3, ((2, 1), [(2, 1)]))) == 6
    assert centralizer_order(_data(F3, ((2, 1), [(1, 1)]), ((1, 1), [(1, 1)]))) == 4
    assert centralizer_order(_data(F3, ((1, 0, 1), [(1, 1)]))) == 8


def test_class_size_examples(F3):
    assert class_size(_data(F3, ((2, 1), [(2, 1)])), 6) == 8
    assert class_size(_data(F3, ((1, 0, 1), [(1, 1)])), 8) == 6
    assert class_size(_data(F3, ((2, 1), [(1, 2)])), 48) == 1
    with pytest.raises(RuntimeError, match="does not divide the group order"):
        class_size(_data(F3, ((2, 1), [(1, 2)])), 5)


def test_centralizer_divides_group_order():
    for n, q in [(2, 3), (3, 3), (2, 5)]:
        for d in enumerate_classes(n, q):
            assert gl_order(n, q) % centralizer_order(d) == 0


def test_representative_matrix_examples(F3):
    assert representative_matrix(_data(F3, ((1, 1), [(1, 2)]))) == ((2, 0), (0, 2))
    assert representative_matrix(_data(F3, ((2, 1), [(2, 1)]))) == ((1, 1), (0, 1))
    assert representative_matrix(_data(F3, ((1, 0, 1), [(1, 1)]))) == ((0, 2), (1, 0))


def test_inverse_class_examples(F3):
    d = _data(F3, ((2, 1, 1), [(1, 1)]))
    assert inverse_class(d) == _data(F3, ((2, 2, 1), [(1, 1)]))
    fixed = _data(F3, ((1, 1), [(3, 1)]))
    assert inverse_class(fixed) == fixed


def test_inverse_class_is_involution_preserving_size():
    for d in enumerate_classes(3, 3):
        inv = inverse_class(d)
        assert inverse_class(inv) == d
        size = class_size(d, centralizer_order(d))
        assert class_size(inv, centralizer_order(inv)) == size


def test_inverse_class_against_oracle():
    table = build_table(GroupSpec("gl", 2, 3))
    classes = conjugacy_classes(table)
    class_of = {}
    for cid, cls in enumerate(classes):
        for idx in cls:
            class_of[idx] = cid
    from squarefibers.matrices import mat_inv

    for data in enumerate_classes(2, 3):
        rep_idx = representative_index(table, data)
        inv_mat = mat_inv(table.field, table.matrix(rep_idx))
        inv_idx = table.position(inv_mat)
        expected_idx = representative_index(table, inverse_class(data))
        assert class_of[inv_idx] == class_of[expected_idx]


def test_element_order_examples(F3):
    assert element_order_of_class(_data(F3, ((1, 1), [(1, 2)]))) == 2
    assert element_order_of_class(_data(F3, ((1, 0, 1), [(1, 1)]))) == 4
    assert element_order_of_class(_data(F3, ((2, 1), [(2, 1)]))) == 3


def _matrix_order(field: Field, a) -> int:
    """Reference: the least k with a^k = 1, by repeated multiplication."""
    ident = identity_matrix(len(a))
    cur, k = a, 1
    while cur != ident:
        cur, k = mat_mul(field, cur, a), k + 1
    return k


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3)])
def test_element_order_matches_matrix_order(n, q):
    field = field_make(q, 1)
    for data in enumerate_classes(n, q):
        rep = representative_matrix(data)
        assert element_order_of_class(data) == _matrix_order(field, rep)


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5)])
def test_class_sizes_match_oracle_orbits(n, q):
    table = build_table(GroupSpec("gl", n, q))
    classes = conjugacy_classes(table)
    sizes = {}
    for cls in classes:
        data = class_data_of_element(table.field, table.matrix(cls[0]))
        sizes[data] = len(cls)
    for data in enumerate_classes(n, q):
        assert class_size(data, centralizer_order(data)) == sizes[data]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_class_roundtrip_through_matrices(data):
    q = data.draw(st.sampled_from([3, 5]))
    n = data.draw(st.integers(1, 3))
    classes = list(enumerate_classes(n, q))
    d = data.draw(st.sampled_from(classes))
    field = field_make(q, 1)
    assert class_data_of_element(field, representative_matrix(d)) == d
