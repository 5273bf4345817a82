"""Field and polynomial arithmetic: worked examples, exhaustive audits
against trial division, and randomized properties."""

import itertools

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from squarefibers.ffpoly import (
    Poly,
    conj_reciprocal,
    factorize,
    field_from_order,
    field_make,
    is_irreducible,
    minimal_polynomial_of_power,
    monic_irreducibles,
    mult_order,
    poly_one,
    reciprocal,
    root_order,
    substitute_power,
)
from squarefibers.limits import InputError, ScaleLimitError


# -- fields ------------------------------------------------------------------


def test_field_make_prime_field():
    F = field_make(3, 1)
    assert (F.p, F.k, F.q) == (3, 1, 3)
    assert F.modulus_coeffs is None


def test_field_make_f9_modulus_is_lex_smallest():
    F = field_make(3, 2)
    assert F.modulus_coeffs == (1, 0, 1)  # x^2 + 1


def test_field_make_rejects_even_characteristic():
    with pytest.raises(InputError):
        field_make(2, 1)


def test_field_make_rejects_composite_and_bound():
    with pytest.raises(InputError):
        field_make(9, 1)
    with pytest.raises(ScaleLimitError):
        field_make(3, 14)


def test_field_from_order():
    assert field_from_order(9) is field_make(3, 2)
    assert field_from_order(7) is field_make(7, 1)
    with pytest.raises(InputError):
        field_from_order(12)


@pytest.mark.parametrize("q", [3, 5, 9, 25, 49])
def test_field_arithmetic_axioms_spotwise(q):
    F = field_from_order(q)
    elems = list(range(q))
    for a in elems:
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in elems[: min(q, 12)]:
        for b in elems[: min(q, 12)]:
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(a, b) == F.add(b, a)


def test_frobenius_is_order_two_on_f9(F9):
    for a in range(9):
        assert F9.conj(F9.conj(a)) == a
    # fixed field is F_3 = encodings 0..2
    fixed = [a for a in range(9) if F9.conj(a) == a]
    assert fixed == [0, 1, 2]


def test_conj_requires_square_order(F3):
    with pytest.raises(InputError):
        F3.conj(1)


# -- irreducibility and factorization ----------------------------------------


def test_is_irreducible_examples(F3):
    assert is_irreducible(Poly(F3, (1, 0, 1)))  # x^2+1
    assert not is_irreducible(Poly(F3, (2, 0, 1)))  # x^2-1
    assert not is_irreducible(Poly(F3, (1, 0, 0, 0, 1)))  # x^4+1


def test_factorize_examples(F3):
    facs = factorize(Poly(F3, (2, 0, 1)))
    assert [(str(g), m) for g, m in facs] == [("1,1", 1), ("2,1", 1)]
    facs = factorize(Poly(F3, (1, 0, 0, 0, 1)))
    assert [(str(g), m) for g, m in facs] == [("2,1,1", 1), ("2,2,1", 1)]
    facs = factorize(Poly(F3, (0, 0, 1)))
    assert [(str(g), m) for g, m in facs] == [("0,1", 2)]


def test_factorize_rejects_non_monic(F3):
    with pytest.raises(InputError):
        factorize(Poly(F3, (1, 2)))


def _trial_division_reference(field, max_degree):
    """Smallest-divisor trial division over all monic polynomials of degree
    <= max_degree; memoized bottom-up.  Independent of the library's
    factorization path (only polynomial division is shared)."""
    irreducibles = []
    for d in range(1, max_degree // 2 + 1):
        for tail in itertools.product(range(field.q), repeat=d):
            g = Poly(field, tail + (1,))
            smallest = _smallest_divisor(g, irreducibles)
            if smallest is None:
                irreducibles.append(g)
    memo = {}

    def factor(f):
        if f.coeffs in memo:
            return memo[f.coeffs]
        g = _smallest_divisor(f, irreducibles)
        if g is None:
            result = {f: 1}
        else:
            result = dict(factor(f // g))
            result[g] = result.get(g, 0) + 1
        memo[f.coeffs] = result
        return result

    return factor


def _smallest_divisor(f, irreducibles):
    for g in irreducibles:
        if 2 * g.degree > f.degree:
            break
        if (f % g).is_zero():
            return g
    return None


@pytest.mark.parametrize("q,max_deg", [(3, 6), (5, 6)])
def test_factorize_equals_trial_division_exhaustive(q, max_deg):
    field = field_from_order(q)
    reference = _trial_division_reference(field, max_deg)
    for d in range(1, max_deg + 1):
        for tail in itertools.product(range(q), repeat=d):
            f = Poly(field, tail + (1,))
            got = factorize(f)
            want = sorted(
                reference(f).items(), key=lambda kv: (kv[0].degree, kv[0].coeffs)
            )
            assert got == want, f"factorization differs at {f}"
            assert is_irreducible(f) == (reference(f) == {f: 1}), f
            check = poly_one(field)
            for g, m in got:
                for _ in range(m):
                    check = check * g
            assert check == f


@pytest.mark.parametrize("q", [3, 5, 9])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_monic_irreducible_counts_match_necklace_formula(q, d):
    field = field_from_order(q)
    polys = monic_irreducibles(field, d)
    necklace = sum(
        int(sympy.mobius(e)) * q ** (d // e) for e in sympy.divisors(d)
    ) // d
    assert len(polys) == necklace
    assert list(polys) == sorted(polys, key=lambda f: f.coeffs)
    assert all(is_irreducible(f) for f in polys)


def test_monic_irreducible_fixed_counts():
    assert len(monic_irreducibles(field_from_order(3), 2)) == 3
    assert len(monic_irreducibles(field_from_order(5), 2)) == 10
    assert len(monic_irreducibles(field_from_order(3), 4)) == 18


def test_monic_irreducibles_f3_degrees_1_and_2(F3):
    assert [str(f) for f in monic_irreducibles(F3, 1)] == ["0,1", "1,1", "2,1"]
    assert [str(f) for f in monic_irreducibles(F3, 2)] == ["1,0,1", "2,1,1", "2,2,1"]


# -- reciprocal / conjugate operations ----------------------------------------


def test_reciprocal_examples(F3):
    assert reciprocal(Poly(F3, (2, 1))) == Poly(F3, (2, 1))  # x-1 fixed
    assert reciprocal(Poly(F3, (2, 1, 1))) == Poly(F3, (2, 2, 1))
    assert reciprocal(Poly(F3, (1, 0, 1))) == Poly(F3, (1, 0, 1))


def test_reciprocal_rejects_zero_constant(F3):
    with pytest.raises(InputError):
        reciprocal(Poly(F3, (0, 1)))


def test_conj_reciprocal_on_linear_over_f9(F9):
    w = F9.multiplicative_generator()
    f = Poly(F9, (F9.neg(w), 1))  # x - w
    expected = Poly(F9, (F9.neg(F9.pow(w, 5)), 1))  # x - w^5
    assert conj_reciprocal(f) == expected
    assert conj_reciprocal(Poly(F9, (F9.neg(1), 1))) == Poly(F9, (F9.neg(1), 1))


def test_conj_reciprocal_requires_square_order(F3):
    with pytest.raises(InputError):
        conj_reciprocal(Poly(F3, (1, 1)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_conj_reciprocal_is_an_involution(data):
    F9 = field_make(3, 2)
    coeffs = data.draw(
        st.tuples(
            st.integers(1, 8), st.integers(0, 8), st.integers(0, 8)
        )
    )
    f = Poly(F9, coeffs + (1,))
    assert conj_reciprocal(conj_reciprocal(f)) == f


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_reciprocal_involution_and_degree_order_invariance(data):
    q = data.draw(st.sampled_from([3, 5, 9]))
    field = field_from_order(q)
    d = data.draw(st.integers(1, 3))
    f = data.draw(st.sampled_from(monic_irreducibles(field, d)))
    if f.constant_term() == 0:
        return
    g = reciprocal(f)
    assert reciprocal(g) == f
    assert g.degree == f.degree
    assert root_order(g) == root_order(f)


# -- substitution and orders ---------------------------------------------------


def test_substitute_power_examples(F3):
    assert substitute_power(Poly(F3, (2, 1)), 2) == Poly(F3, (2, 0, 1))
    assert substitute_power(Poly(F3, (1, 1)), 2) == Poly(F3, (1, 0, 1))
    assert substitute_power(Poly(F3, (1, 0, 1)), 2) == Poly(F3, (1, 0, 0, 0, 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitute_power_agrees_with_evaluation(data):
    q = data.draw(st.sampled_from([3, 5, 9]))
    field = field_from_order(q)
    coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=5))
    f = Poly(field, tuple(coeffs) + (1,))
    m = data.draw(st.integers(1, 4))
    g = substitute_power(f, m)
    a = data.draw(st.integers(0, q - 1))
    assert g.evaluate(a) == f.evaluate(field.pow(a, m))


def test_root_order_examples(F3):
    assert root_order(Poly(F3, (2, 1))) == 1
    assert root_order(Poly(F3, (1, 1))) == 2
    assert root_order(Poly(F3, (1, 0, 1))) == 4


def test_root_order_rejects_x_and_reducible(F3):
    with pytest.raises(InputError):
        root_order(Poly(F3, (0, 1)))
    with pytest.raises(InputError):
        root_order(Poly(F3, (2, 0, 1)))


@pytest.mark.parametrize("q", [3, 5, 9])
def test_root_order_divides_and_determines_degree(q):
    field = field_from_order(q)
    for d in (1, 2, 3):
        for f in monic_irreducibles(field, d):
            if f.constant_term() == 0:
                continue
            t = root_order(f)
            assert (q**d - 1) % t == 0
            assert mult_order(t, q) == d


def test_mult_order_examples():
    assert mult_order(4, 3) == 2
    assert mult_order(8, 3) == 2
    assert mult_order(1, 7) == 1
    with pytest.raises(InputError):
        mult_order(6, 3)


def test_minimal_polynomial_of_power(F3):
    # roots of x^2+x+2 have order 8; their squares have order 4
    f = Poly(F3, (2, 1, 1))
    assert minimal_polynomial_of_power(f, 2) == Poly(F3, (1, 0, 1))
    # squaring a root of x^2+1 lands in the prime field
    assert minimal_polynomial_of_power(Poly(F3, (1, 0, 1)), 2) == Poly(F3, (1, 1))
    assert minimal_polynomial_of_power(Poly(F3, (2, 1)), 2) == Poly(F3, (2, 1))
