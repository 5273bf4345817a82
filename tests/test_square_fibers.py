"""Square-map structure: forward squaring, root enumeration, exact fiber
counts against the oracle, and the closed-form audit findings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarefibers.brute_oracle import (
    GroupSpec,
    build_table,
    representative_index,
    square_fiber_counts,
)
from squarefibers.ffpoly import Poly, field_from_order
from squarefibers.gl_classes import (
    centralizer_order,
    class_size,
    enumerate_classes,
    gl_order,
    inverse_class,
    make_class_data,
)
from squarefibers.limits import InputError
from squarefibers.audits import existence_audit, square_count_audit
from squarefibers.partitions import Partition
from squarefibers.square_fibers import (
    ClosedFormUndefined,
    count_square_roots,
    has_square_root_gl,
    has_square_root_symplectic,
    has_square_root_unitary,
    closed_form_count,
    square_class,
    square_root_classes,
)


def _data(field, *entries):
    return make_class_data(
        field, [(Poly(field, c), Partition(tuple(lam))) for c, lam in entries]
    )


# -- forward map ---------------------------------------------------------------


def test_square_class_examples(F3):
    assert square_class(_data(F3, ((1, 0, 1), [(1, 1)]))) == _data(
        F3, ((1, 1), [(1, 2)])
    )
    unip = _data(F3, ((2, 1), [(2, 1)]))
    assert square_class(unip) == unip
    assert square_class(_data(F3, ((2, 1, 1), [(1, 1)]))) == _data(
        F3, ((1, 0, 1), [(1, 1)])
    )


def test_square_class_merges_colliding_entries(F3):
    diag = _data(F3, ((1, 1), [(1, 1)]), ((2, 1), [(1, 1)]))  # diag(1, -1)
    assert square_class(diag) == _data(F3, ((2, 1), [(1, 2)]))


# -- existence -------------------------------------------------------------------


def test_has_square_root_gl_examples(F3):
    assert not has_square_root_gl(_data(F3, ((1, 1), [(1, 3)])))  # -I_3
    assert has_square_root_gl(_data(F3, ((1, 1), [(1, 2)])))  # -I_2
    assert has_square_root_gl(_data(F3, ((2, 1), [(5, 1)])))  # unipotent J_5


# -- root classes ------------------------------------------------------------------


def test_square_root_classes_of_identity(F3):
    ident = _data(F3, ((2, 1), [(1, 2)]))
    roots = square_root_classes(ident).roots
    assert len(roots) == 3
    expected = {
        _data(F3, ((2, 1), [(1, 2)])),
        _data(F3, ((1, 1), [(1, 2)])),
        _data(F3, ((1, 1), [(1, 1)]), ((2, 1), [(1, 1)])),
    }
    assert set(roots) == expected


def test_square_root_classes_of_minus_identity(F3):
    minus = _data(F3, ((1, 1), [(1, 2)]))
    roots = square_root_classes(minus).roots
    assert [r for r in roots] == [_data(F3, ((1, 0, 1), [(1, 1)]))]


def test_square_root_classes_empty_when_no_root(F3):
    assert square_root_classes(_data(F3, ((1, 1), [(1, 3)]))).roots == ()


def test_every_root_squares_back():
    for n, q in [(1, 3), (2, 3), (3, 3), (1, 5), (2, 5)]:
        for data in enumerate_classes(n, q):
            for root in square_root_classes(data).roots:
                assert square_class(root) == data


# -- counting ----------------------------------------------------------------------


def test_count_square_roots_fixtures(F3):
    assert count_square_roots(_data(F3, ((2, 1), [(1, 2)]))) == 14
    assert count_square_roots(_data(F3, ((1, 1), [(1, 2)]))) == 6
    assert count_square_roots(_data(F3, ((1, 1), [(1, 3)]))) == 0


@pytest.mark.parametrize(
    "n,q",
    [(2, 3), (3, 3), (4, 3), (5, 3), (2, 5), (3, 5), (4, 5), (2, 9), (3, 9), (2, 25), (3, 7)],
)
def test_block_product_equals_the_root_class_count(n, q):
    for data in enumerate_classes(n, q):
        assert count_square_roots(data) == square_root_classes(data).count, str(data)


@pytest.mark.parametrize("n,q", [(1, 3), (2, 3), (3, 3), (2, 5)])
def test_mass_conservation(n, q):
    total = sum(
        class_size(d, centralizer_order(d)) * count_square_roots(d) for d in enumerate_classes(n, q)
    )
    assert total == gl_order(n, q)


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (3, 3)])
def test_counts_match_oracle_fibers(n, q):
    table = build_table(GroupSpec("gl", n, q))
    fibers = square_fiber_counts(table)
    for data in enumerate_classes(n, q):
        assert fibers[representative_index(table, data)] == count_square_roots(data)


def test_existence_count_and_roots_are_consistent():
    for n, q in [(2, 3), (3, 3), (2, 5)]:
        for data in enumerate_classes(n, q):
            count = count_square_roots(data)
            roots = square_root_classes(data).roots
            assert has_square_root_gl(data) == (count > 0) == bool(roots)


def test_inversion_equivariance():
    for n, q in [(2, 3), (3, 3), (2, 5)]:
        for data in enumerate_classes(n, q):
            assert count_square_roots(inverse_class(data)) == count_square_roots(data)


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3), (2, 5)])
def test_square_class_matches_matrix_squaring(n, q):
    from squarefibers.brute_oracle import class_data_of_element
    from squarefibers.gl_classes import representative_matrix
    from squarefibers.matrices import mat_mul

    field = field_from_order(q)
    for data in enumerate_classes(n, q):
        rep = representative_matrix(data)
        squared = mat_mul(field, rep, rep)
        assert class_data_of_element(field, squared) == square_class(data)


def test_root_classes_match_exhaustive_root_sets_on_gl23():
    from collections import defaultdict

    from squarefibers.brute_oracle import class_data_of_element
    from squarefibers.matrices import mat_mul

    table = build_table(GroupSpec("gl", 2, 3))
    field = table.field
    observed = defaultdict(set)
    for g in map(table.matrix, range(len(table))):
        squared = class_data_of_element(field, mat_mul(field, g, g))
        observed[squared].add(class_data_of_element(field, g))
    for data in enumerate_classes(2, 3):
        assert set(square_root_classes(data).roots) == observed.get(data, set())


# -- the printed closed form ---------------------------------------------------------


def test_closed_form_on_minus_identity_disagrees(F3):
    minus = _data(F3, ((1, 1), [(1, 2)]))
    assert closed_form_count(minus) == 1  # printed skew factor 2^1 - 1
    assert count_square_roots(minus) == 6


def test_closed_form_on_identity_disagrees(F3):
    ident = _data(F3, ((2, 1), [(1, 2)]))
    assert closed_form_count(ident) == 6  # printed ratio branch
    assert count_square_roots(ident) == 14


def test_closed_form_undefined_on_odd_multiplicity_two_power(F3):
    with pytest.raises(ClosedFormUndefined):
        closed_form_count(_data(F3, ((2, 1), [(1, 1)])))  # GL_1 identity


def test_closed_form_worked_by_hand(F3):
    # Over F_3, x - 1 and x^2 + 1 are two-power ((-1)^d f(0) = 1, a square)
    # and x + 1 is skew ((-1)^1 * 1 = 2, a non-square).
    # Skew x + 1 with lam = 1^2 2^2: 2^(2 distinct parts) - 1 = 3.
    assert closed_form_count(_data(F3, ((1, 1), [(1, 2), (2, 2)]))) == 3
    # x - 1 with lam = 1^2 2^2: gamma = 3*1*2*2/4 (u=1 < v=2) + 3*(2-1)*2^2/4
    # (u=2) = 3 + 3 = 6, and each m = 2 gives |GL_2(3)|/|GL_1(9)| = 48/8 = 6,
    # so 3^6 * 36 = 26244.  x^2 + 1 (d = 2) with lam = 2^2: gamma = 3, and
    # |GL_2(9)|/|GL_1(81)| = 5760/80 = 72, so 3^3 * 72 = 1944, the power
    # being of q, not of q^d, as printed.  The product is 26244 * 1944.
    two_power = _data(F3, ((2, 1), [(1, 2), (2, 2)]), ((1, 0, 1), [(2, 2)]))
    assert closed_form_count(two_power) == 26244 * 1944 == 51018336
    # x - 1 with lam = 2^1: gamma = 3*(2-1)*1^2/4 = 3/4
    with pytest.raises(ClosedFormUndefined) as caught:
        closed_form_count(_data(F3, ((2, 1), [(2, 1)])))
    assert caught.value.reason == "fractional exponent gamma = 3/4"


# -- unitary / symplectic predicates ---------------------------------------------------


def test_unitary_examples(F9):
    ident = _data(F9, ((F9.neg(1), 1), [(1, 1)]))
    assert has_square_root_unitary(ident)
    w = F9.multiplicative_generator()
    gen_class = _data(F9, ((F9.neg(w), 1), [(1, 1)]))  # w has order 8, not in U_1
    # U_1 data must be closed under conjugate-reciprocal
    with pytest.raises(InputError):
        has_square_root_unitary(gen_class)
    order4 = _data(F9, ((F9.neg(F9.pow(w, 2)), 1), [(1, 1)]))
    assert not has_square_root_unitary(order4)
    order2 = _data(F9, ((1, 1), [(1, 1)]))  # -1 = w^4 = (w^2)^2
    assert has_square_root_unitary(order2)


def test_unitary_requires_square_order_field(F3):
    with pytest.raises(InputError):
        has_square_root_unitary(_data(F3, ((1, 1), [(1, 1)])))


def test_symplectic_examples(F3):
    assert has_square_root_symplectic(_data(F3, ((2, 1), [(2, 1)])))  # unipotent
    assert not has_square_root_symplectic(_data(F3, ((1, 1), [(1, 2)])))  # -I clause
    assert not has_square_root_symplectic(_data(F3, ((1, 0, 1), [(1, 1)])))


@pytest.mark.parametrize("entries", [
    [((2, 1), [(1, 1)])],  # "Sp_1(3)"
    [((1, 1), [(1, 1)]), ((2, 1), [(1, 1)])],  # diag(-1, 1)
    [((2, 1), [(1, 1), (3, 1)])],  # Jordan blocks 1 and 3 at 1: n = 4, not in Sp_4
], ids=["sp1", "diag(-1,1)", "blocks-1-3"])
def test_symplectic_refuses_data_that_no_symplectic_matrix_has(F3, entries):
    # Wall: at the eigenvalues 1 and -1 each odd part has even multiplicity
    with pytest.raises(InputError, match="odd part of odd multiplicity"):
        has_square_root_symplectic(_data(F3, *entries))


# -- audits ------------------------------------------------------------------------------


def test_gl_audit_flags_exactly_the_closed_form_failures():
    _, records = square_count_audit(2, 3, include_oracle=True)
    records = tuple(records)
    assert len(records) == 8
    by_subject = {r.subject: r for r in records}
    ident = by_subject["(2,1)->1^2"]
    minus = by_subject["(1,1)->1^2"]
    assert any("closed form" in m for m in ident.mismatches)
    assert any("closed form" in m for m in minus.mismatches)
    # the centralizer-index count must agree with the oracle everywhere
    for r in records:
        values = dict(r.values)
        assert values["oracle_fiber"] == values["centralizer_index_sum"]
        assert not any("oracle" in m for m in r.mismatches)


def test_symplectic_audit_flags_minus_identity():
    _, records = existence_audit("sp", 2, 3)
    flagged = [r for r in records if r.mismatches]
    assert len(flagged) == 1
    assert flagged[0].subject == "(1,1)->1^2"
    assert "oracle fiber is 6" in flagged[0].mismatches[0]


def test_unitary_audit_runs_and_is_internally_consistent():
    _, records = existence_audit("u", 1, 3)
    assert not any(r.mismatches for r in records)
    # U_2(3): the printed criterion misses the conjugate-pair splits of
    # the order-4 scalars; the audit records exactly those two classes.
    _, records = existence_audit("u", 2, 3)
    records = tuple(records)
    assert sum(1 for r in records if r.mismatches) == 2
    for r in records:
        values = dict(r.values)
        agree = (values["criterion"] == "true") == (int(values["oracle_fiber"]) > 0)
        assert agree == (not r.mismatches)


# -- randomized consistency ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_class_square_then_root_consistency(data):
    q = data.draw(st.sampled_from([3, 5]))
    n = data.draw(st.integers(1, 3))
    cls = data.draw(st.sampled_from(list(enumerate_classes(n, q))))
    squared = square_class(cls)
    assert squared.n == cls.n
    assert cls in set(square_root_classes(squared).roots)
