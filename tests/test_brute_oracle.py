"""Exhaustive matrix-group computations: order formulas, fibers, classes,
reality, |s(2)| and data extraction from explicit matrices."""

import tracemalloc
from array import array

import pytest

from squarefibers.brute_oracle import (
    ElementTable,
    GroupSpec,
    _build_walks,
    _cache_width,
    _enumerate_isometries,
    _pack_codes,
    _unpack_codes,
    _walks,
    build_table,
    class_data_of_element,
    conjugacy_classes,
    enumerate_group,
    expected_group_order,
    inverse_positions,
    load_table,
    orthogonal_witt_type,
    real_classes_oracle,
    representative_matrix,
    s2_oracle,
    save_table,
    square_fiber_counts,
)
from squarefibers.ffpoly import Poly, field_make
from squarefibers.gl_classes import enumerate_classes
from squarefibers.limits import InputError, ScaleLimitError
from squarefibers.matrices import (
    char_poly,
    conj_transpose,
    identity_matrix,
    mat_inv,
    mat_mul,
    transpose,
)
from squarefibers.partitions import Partition


def _matrices(table):
    return [table.matrix(i) for i in range(len(table))]


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


def test_build_table_keeps_one_table():
    first = build_table(GroupSpec("gl", 1, 5))
    assert build_table(GroupSpec("gl", 1, 5)) is first
    build_table(GroupSpec("gl", 1, 7))
    assert build_table.cache_info().currsize <= 1


def test_scale_bound_refused():
    with pytest.raises(ScaleLimitError):
        enumerate_group(GroupSpec("gl", 4, 9))


def test_gl_table_is_exactly_the_invertible_matrices():
    table = build_table(GroupSpec("gl", 2, 3))
    F = table.field
    dets = set()
    for a in _matrices(table):
        det = F.sub(F.mul(a[0][0], a[1][1]), F.mul(a[0][1], a[1][0]))
        assert det != 0
        dets.add(det)
    assert dets == {1, 2}


def test_unitary_table_fixes_the_hermitian_form():
    table = build_table(GroupSpec("u", 2, 3))
    F = table.field
    for a in _matrices(table)[::7]:
        assert mat_mul(F, conj_transpose(F, a), a) == ((1, 0), (0, 1))


def test_symplectic_table_fixes_the_alternating_form():
    spec = GroupSpec("sp", 2, 3)
    table = build_table(spec)
    F = table.field
    form = spec.form()
    for a in _matrices(table):
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
    for a in _matrices(table):
        cp = char_poly(F, a)
        tr = F.add(a[0][0], a[1][1])
        det = F.sub(F.mul(a[0][0], a[1][1]), F.mul(a[0][1], a[1][0]))
        assert cp == Poly(F, (det, F.neg(tr), 1))


def test_inverse_positions():
    table = build_table(GroupSpec("gl", 2, 3))
    F = table.field
    inv = inverse_positions(table)
    for i, a in enumerate(_matrices(table)):
        assert mat_mul(F, a, table.matrix(inv[i])) == ((1, 0), (0, 1))


def test_table_cache_roundtrip(tmp_path):
    spec = GroupSpec("sp", 2, 3)
    table = enumerate_group(spec)
    path = tmp_path / "sp23.sqf"
    save_table(table, str(path))
    raw = path.read_bytes()
    assert raw[:4] == b"SQF1"
    loaded = load_table(spec, str(path))
    assert loaded.codes == table.codes
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
    elements = _matrices(build_table(spec))
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


# -- the oracle against a per-element reference ------------------------------


def _reference_maps(table):
    """Fibers, inverses and conjugacy classes of a table element by element:
    squares by mat_mul, inverses by mat_inv, and classes as orbits of
    conjugation x -> g^-1 x g by matrix products, over generators taken
    from the end of the table, each outside the subgroup generated so far
    (grown by matrix products too, which also gives every x g)."""
    F = table.field
    mats = _matrices(table)
    pos = {a: i for i, a in enumerate(mats)}
    fibers = [0] * len(mats)
    for a in mats:
        fibers[pos[mat_mul(F, a, a)]] += 1
    inverse = [pos[mat_inv(F, a)] for a in mats]

    gens = []
    right = []  # right[b][i] = position of element i times gens[b]
    subgroup = [pos[identity_matrix(table.spec.n)]]
    seen = set(subgroup)
    for a in reversed(mats):
        if len(seen) == len(mats):
            break
        if pos[a] in seen:
            continue
        gens.append(a)
        right.append([None] * len(mats))
        # the old members need only the new generator, new ones all of them
        todo = [(x, len(gens) - 1) for x in subgroup]
        while todo:
            x, b = todo.pop()
            y = pos[mat_mul(F, mats[x], gens[b])]
            right[b][x] = y
            if y not in seen:
                seen.add(y)
                subgroup.append(y)
                todo.extend((y, c) for c in range(len(gens)))
    assert len(seen) == len(mats)
    pairs = [(mat_inv(F, g), r) for g, r in zip(gens, right)]

    assigned = [False] * len(mats)
    classes = []
    for start in range(len(mats)):
        if assigned[start]:
            continue
        assigned[start] = True
        orbit = [start]
        for x in orbit:
            for ginv, r in pairs:
                y = pos[mat_mul(F, ginv, mats[r[x]])]
                if not assigned[y]:
                    assigned[y] = True
                    orbit.append(y)
        classes.append(tuple(sorted(orbit)))
    return fibers, inverse, tuple(classes)


REFERENCE_SPECS = [
    GroupSpec("gl", 1, 3),
    GroupSpec("gl", 2, 3),
    GroupSpec("gl", 3, 3),
    GroupSpec("gl", 2, 5),
    GroupSpec("u", 2, 3),
    GroupSpec("u", 3, 3),
    GroupSpec("sp", 2, 3),
    GroupSpec("sp", 4, 3),
    GroupSpec("sp", 2, 5),
    GroupSpec("o+", 2, 3),
    GroupSpec("o-", 2, 3),
    GroupSpec("o+", 4, 3),
    GroupSpec("o-", 4, 3),
    GroupSpec("o0", 3, 3),
    # cyclic and dihedral: one class per element, or nearly
    GroupSpec("gl", 1, 1009),
    GroupSpec("u", 1, 101),
    GroupSpec("o+", 2, 101),
    GroupSpec("o-", 2, 101),
]


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=str)
def test_oracle_matches_the_per_element_reference(spec):
    # a fresh table, so the walks are built here and not shared with other tests
    table = enumerate_group(spec)
    fibers, inverse, classes = _reference_maps(table)
    assert square_fiber_counts(table) == fibers
    assert inverse_positions(table) == inverse
    assert conjugacy_classes(table) == classes


# -- generators and the isometry search ---------------------------------------


@pytest.mark.parametrize(
    "spec", [GroupSpec("gl", 3, 3), GroupSpec("u", 3, 3), GroupSpec("sp", 4, 3)], ids=str
)
def test_walks_need_at_most_two_generators(spec):
    # candidates spread through the table; from its end these took 4, 5 and 3
    assert len(_walks(build_table(spec)).conj) <= 2


# generators needed by cyclic and dihedral groups, where conjugation is
# (nearly) trivial and every generator adds a pass over the group: no more
# than when they were taken from the end of the table
CYCLIC_GENERATOR_COUNTS = [
    (GroupSpec("gl", 1, 1009), 3),
    (GroupSpec("gl", 1, 30011), 2),
    (GroupSpec("gl", 1, 65537), 3),
    (GroupSpec("u", 1, 101), 3),
    (GroupSpec("o+", 2, 101), 3),
    (GroupSpec("o-", 2, 101), 4),
]


@pytest.mark.parametrize("spec,most", CYCLIC_GENERATOR_COUNTS, ids=str)
def test_cyclic_and_dihedral_groups_need_no_more_generators(spec, most):
    assert len(_walks(enumerate_group(spec)).conj) <= most


def test_isometry_search_on_two_columns_keeps_no_pairing_rows():
    # for n = 2 every first column is picked once, so nothing is memoized;
    # rows of pairings with all q^n vectors would take hundreds of MB for
    # q = 1009.  The bound is the peak of the search that listed every
    # vector (7.9 MB), which this one stays far below.
    spec = GroupSpec("o-", 2, 211)
    tracemalloc.start()
    try:
        codes = _enumerate_isometries(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(codes) == expected_group_order(spec)
    assert peak < 8_000_000


def test_walk_build_places_one_weight_of_digits_at_a_time():
    # with every row and column digit of every element in lists at once
    # the build peaked at 3.5 MB on U_3(3) (13,824 elements); one weight
    # at a time, 1.2 MB
    table = enumerate_group(GroupSpec("u", 3, 3))
    tracemalloc.start()
    try:
        walks = _build_walks(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(walks.order) == list(range(len(table)))
    assert peak < 1_750_000


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8])
def test_cache_codes_pack_and_unpack_at_every_width(width):
    top = 2 ** (8 * width) - 1
    codes = array("Q", [0, 1, 255, top // 3, top])
    raw = _pack_codes(codes, width)
    assert raw == b"".join(c.to_bytes(width, "little") for c in codes)
    assert _unpack_codes(raw, width) == codes
    if width < 8:  # one past the width would lose its top byte to the copy
        with pytest.raises(OverflowError):
            _pack_codes(array("Q", [0, top + 1, 1]), width)


# -- the cache proves its elements are the group -------------------------------


def _corrupt_cache(tmp_path, spec, position, code):
    """A cache of spec with the element at position replaced by code."""
    path = tmp_path / "table.sqf"
    save_table(build_table(spec), str(path))
    width = _cache_width(spec)
    raw = bytearray(path.read_bytes())
    start = 4 + 17 + position * width  # magic, header, then the codes
    raw[start : start + width] = code.to_bytes(width, "little")
    path.write_bytes(bytes(raw))
    return str(path)


@pytest.mark.parametrize("position", [0, 1, 47])
def test_cache_with_a_singular_element_is_refused(tmp_path, position):
    spec = GroupSpec("gl", 2, 3)
    with pytest.raises(InputError, match="not the group"):
        load_table(spec, _corrupt_cache(tmp_path, spec, position, 0))


@pytest.mark.parametrize("position", [0, 40, 95])
def test_cache_with_a_non_isometry_is_refused(tmp_path, position):
    spec = GroupSpec("u", 2, 3)
    a = ((1, 1), (0, 1))  # invertible; its second column has norm 2
    table = build_table(spec)
    assert table.encode(a) not in table.index
    with pytest.raises(InputError, match="not the group"):
        load_table(spec, _corrupt_cache(tmp_path, spec, position, table.encode(a)))


def test_cache_without_the_identity_is_refused(tmp_path):
    spec = GroupSpec("gl", 2, 3)
    table = build_table(spec)
    position = table.position(((1, 0), (0, 1)))
    with pytest.raises(InputError, match="identity"):
        load_table(spec, _corrupt_cache(tmp_path, spec, position, 0))


def test_cache_with_a_code_past_the_matrices_is_refused(tmp_path):
    spec = GroupSpec("gl", 2, 3)  # codes below 3^4 = 81, one byte each
    with pytest.raises(InputError, match="not a matrix"):
        load_table(spec, _corrupt_cache(tmp_path, spec, 5, 200))


def test_cache_with_a_repeated_element_is_refused(tmp_path):
    spec = GroupSpec("gl", 2, 3)
    with pytest.raises(InputError, match="corrupt"):
        load_table(spec, _corrupt_cache(tmp_path, spec, 5, build_table(spec).codes[6]))


def test_cache_write_is_atomic(tmp_path):
    spec = GroupSpec("gl", 2, 3)
    path = tmp_path / "gl23.sqf"
    save_table(build_table(spec), str(path))
    before = path.read_bytes()
    # a code too wide for its slot fails halfway through the write
    broken = ElementTable(spec, spec.matrix_field(), array("Q", [1, 2**20]))
    with pytest.raises(OverflowError):
        save_table(broken, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["gl23.sqf"]
    assert load_table(spec, str(path)).codes == build_table(spec).codes
