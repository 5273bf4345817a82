"""Exhaustive matrix-group computations: order formulas, fibers, classes,
reality, |s(2)| and data extraction from explicit matrices."""

import pytest

from squarefibers.brute_oracle import (
    GroupSpec,
    build_table,
    class_data_of_element,
    conjugacy_classes,
    enumerate_group,
    expected_group_order,
    inverse_positions,
    load_table,
    orthogonal_witt_type,
    real_classes_oracle,
    s2_oracle,
    save_table,
    square_fiber_counts,
)
from squarefibers.ffpoly import Poly, field_make
from squarefibers.gl_classes import (
    enumerate_classes,
    representative_matrix,
)
from squarefibers.limits import InputError, ScaleLimitError
from squarefibers.matrices import (
    char_poly,
    conj_transpose,
    mat_mul,
    transpose,
)
from squarefibers.partitions import Partition

MS_TEST_SPECS = [
    GroupSpec("gl", 1, 3),
    GroupSpec("gl", 2, 3),
    GroupSpec("gl", 2, 5),
    GroupSpec("gl", 1, 7),
    GroupSpec("u", 1, 3),
    GroupSpec("u", 2, 3),
    GroupSpec("sp", 2, 3),
    GroupSpec("sp", 2, 5),
    GroupSpec("o+", 2, 3),
    GroupSpec("o-", 2, 3),
    GroupSpec("o0", 3, 3),
    GroupSpec("o+", 2, 5),
    GroupSpec("o-", 2, 5),
]


def test_group_spec_validation():
    with pytest.raises(InputError):
        GroupSpec("sp", 3, 3)
    with pytest.raises(InputError):
        GroupSpec("o0", 2, 3)
    with pytest.raises(InputError):
        GroupSpec("x", 2, 3)
    with pytest.raises(InputError):
        GroupSpec("gl", 2, 4)


def test_order_formulas():
    assert expected_group_order(GroupSpec("gl", 2, 3)) == 48
    assert expected_group_order(GroupSpec("u", 2, 3)) == 96
    assert expected_group_order(GroupSpec("sp", 2, 3)) == 24
    assert expected_group_order(GroupSpec("sp", 2, 5)) == 120
    assert expected_group_order(GroupSpec("o0", 3, 3)) == 48


def test_enumeration_sizes_match_formulas():
    for spec in MS_TEST_SPECS:
        assert len(build_table(spec)) == expected_group_order(spec)


def test_scale_bound_refused():
    with pytest.raises(ScaleLimitError):
        enumerate_group(GroupSpec("gl", 4, 9))


def test_gl_table_is_exactly_the_invertible_matrices():
    table = build_table(GroupSpec("gl", 2, 3))
    F = table.field
    dets = set()
    for a in table.elements:
        det = F.sub(F.mul(a[0][0], a[1][1]), F.mul(a[0][1], a[1][0]))
        assert det != 0
        dets.add(det)
    assert dets == {1, 2}


def test_unitary_table_fixes_the_hermitian_form():
    table = build_table(GroupSpec("u", 2, 3))
    F = table.field
    for a in list(table.elements)[::7]:
        assert mat_mul(F, conj_transpose(F, a), a) == ((1, 0), (0, 1))


def test_symplectic_table_fixes_the_alternating_form():
    spec = GroupSpec("sp", 2, 3)
    table = build_table(spec)
    F = table.field
    form = spec.form()
    for a in table.elements:
        assert mat_mul(F, mat_mul(F, transpose(a), form), a) == form


def test_orthogonal_forms_and_types():
    # over F_3 the identity form in dimension 2 is the anisotropic (minus)
    # type because -1 is not a square; the labels select forms, and the
    # realized Witt type decides which order formula applies
    F3 = field_make(3, 1)
    plus_spec = GroupSpec("o+", 2, 3)
    minus_spec = GroupSpec("o-", 2, 3)
    assert orthogonal_witt_type(F3, plus_spec.form()) == -1
    assert orthogonal_witt_type(F3, minus_spec.form()) == 1
    assert len(build_table(plus_spec)) == 8  # 2(q+1)
    assert len(build_table(minus_spec)) == 4  # 2(q-1)


def test_fiber_counts_gl23():
    table = build_table(GroupSpec("gl", 2, 3))
    fibers = square_fiber_counts(table)
    ident = table.position(((1, 0), (0, 1)))
    minus = table.position(((2, 0), (0, 2)))
    assert fibers[ident] == 14
    assert fibers[minus] == 6
    assert sum(fibers) == 48


def test_fiber_at_minus_identity_in_sp23():
    spec = GroupSpec("sp", 2, 3)
    table = build_table(spec)
    F = table.field
    witness = ((0, 1), (2, 0))  # [[0,1],[-1,0]]
    assert table.encode(witness) in table.index
    assert mat_mul(F, witness, witness) == ((2, 0), (0, 2))
    fibers = square_fiber_counts(table)
    assert fibers[table.position(((2, 0), (0, 2)))] >= 1


def test_fibers_in_u1():
    table = build_table(GroupSpec("u", 1, 3))
    fibers = square_fiber_counts(table)
    assert sorted(fibers) == [0, 0, 2, 2]


def test_fibers_constant_on_classes():
    for spec in [GroupSpec("gl", 2, 3), GroupSpec("sp", 2, 3), GroupSpec("u", 2, 3)]:
        table = build_table(spec)
        fibers = square_fiber_counts(table)
        for cls in conjugacy_classes(table):
            sizes = {fibers[idx] for idx in cls}
            assert len(sizes) == 1


def test_class_counts():
    assert len(conjugacy_classes(build_table(GroupSpec("gl", 2, 3)))) == 8
    assert len(conjugacy_classes(build_table(GroupSpec("sp", 2, 3)))) == 7
    gl33 = build_table(GroupSpec("gl", 3, 3))
    assert len(conjugacy_classes(gl33)) == len(list(enumerate_classes(3, 3)))


def _real_classes(table):
    return real_classes_oracle(conjugacy_classes(table), inverse_positions(table))


def _s2(table):
    return s2_oracle(square_fiber_counts(table), inverse_positions(table))


def test_real_classes_oracle_examples():
    assert _real_classes(build_table(GroupSpec("gl", 2, 3))) == 6
    assert _real_classes(build_table(GroupSpec("gl", 1, 7))) == 2
    assert _real_classes(build_table(GroupSpec("u", 1, 3))) == 2


def test_s2_oracle_examples():
    assert _s2(build_table(GroupSpec("gl", 2, 3))) == 288
    assert _s2(build_table(GroupSpec("gl", 1, 3))) == 4


@pytest.mark.parametrize("spec", MS_TEST_SPECS, ids=str)
def test_murray_sambale_identity(spec):
    table = build_table(spec)
    assert _s2(table) == len(table) * _real_classes(table)


def test_class_data_of_element_examples(F3):
    assert class_data_of_element(F3, ((2, 0), (0, 2))).entries == (
        (Poly(F3, (1, 1)), Partition(((1, 2),))),
    )
    assert class_data_of_element(F3, ((1, 1), (0, 1))).entries == (
        (Poly(F3, (2, 1)), Partition(((2, 1),))),
    )
    assert class_data_of_element(F3, ((0, 2), (1, 0))).entries == (
        (Poly(F3, (1, 0, 1)), Partition(((1, 1),))),
    )


def test_class_data_of_element_rejects_singular(F3):
    with pytest.raises(InputError):
        class_data_of_element(F3, ((1, 0), (0, 0)))


@pytest.mark.parametrize("n,q", [(1, 3), (2, 3), (3, 3)])
def test_data_roundtrip_on_all_classes(n, q):
    field = field_make(q, 1)
    for data in enumerate_classes(n, q):
        assert class_data_of_element(field, representative_matrix(data)) == data


def test_char_poly_against_direct_formula_on_gl23():
    table = build_table(GroupSpec("gl", 2, 3))
    F = table.field
    for a in table.elements:
        cp = char_poly(F, a)
        tr = F.add(a[0][0], a[1][1])
        det = F.sub(F.mul(a[0][0], a[1][1]), F.mul(a[0][1], a[1][0]))
        assert cp == Poly(F, (det, F.neg(tr), 1))


def test_inverse_positions():
    table = build_table(GroupSpec("gl", 2, 3))
    F = table.field
    inv = inverse_positions(table)
    for i, a in enumerate(table.elements):
        assert mat_mul(F, a, table.elements[inv[i]]) == ((1, 0), (0, 1))


def test_table_cache_roundtrip(tmp_path):
    spec = GroupSpec("sp", 2, 3)
    table = enumerate_group(spec)
    path = tmp_path / "sp23.sqf"
    save_table(table, str(path))
    raw = path.read_bytes()
    assert raw[:4] == b"SQF1"
    loaded = load_table(spec, str(path))
    assert loaded.elements == table.elements
    with pytest.raises(InputError):
        load_table(GroupSpec("sp", 2, 5), str(path))


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec("u", 1, 3),
        GroupSpec("u", 2, 3),
        GroupSpec("sp", 2, 3),
        GroupSpec("sp", 2, 5),
        GroupSpec("o+", 2, 3),
        GroupSpec("o+", 4, 3),
        GroupSpec("o-", 2, 5),
        GroupSpec("o-", 4, 3),
        GroupSpec("o0", 3, 3),
        GroupSpec("o0", 3, 5),
    ],
    ids=str,
)
def test_isometries_are_enumerated_in_column_order(spec):
    # the element order fixes the cache bytes and the classes report
    elements = build_table(spec).elements
    assert len(set(elements)) == len(elements) == expected_group_order(spec)
    assert list(elements) == sorted(elements, key=lambda a: tuple(zip(*a)))


def test_truncated_cache_is_refused(tmp_path):
    spec = GroupSpec("gl", 2, 3)
    path = tmp_path / "gl23.sqf"
    save_table(build_table(spec), str(path))
    raw = path.read_bytes()
    for cut in (10, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(InputError):
            load_table(spec, str(path))
    path.write_bytes(raw + b"\0")
    with pytest.raises(InputError):
        load_table(spec, str(path))
