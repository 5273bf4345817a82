"""Field and polynomial arithmetic: worked examples, exhaustive audits
against trial division, and randomized properties."""

import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from squarefibers import ffpoly, power_poly
from squarefibers.ffpoly import (
    Poly,
    conj_reciprocal,
    factorize,
    field_from_order,
    field_make,
    is_irreducible,
    minimal_polynomial_of_power,
    monic_irreducibles,
    poly_one,
    reciprocal,
    root_order,
    substitute_power,
)
from squarefibers.gl_classes import class_count
from squarefibers.limits import (
    MAX_CLASS_COUNT,
    MAX_FIELD_ORDER,
    InputError,
    ScaleLimitError,
)
from squarefibers.numtheory import factorint, n_order

from conftest import RefField


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


@pytest.mark.parametrize(
    "p,k", [(3, 2), (5, 3), (3, 7), (7, 4), (101, 2), (13, 3), (5, 4)]
)
def test_chunked_product_equals_the_schoolbook_product(p, k):
    F = field_make(p, k)
    R = RefField(F)
    for c in (1, p, F.q - 1, F.q // 2 + 1):
        times = F._times(c)
        assert all(times(a) == R.mul(a, c) for a in range(F.q))


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (3, 7), (101, 2)])
def test_table_derived_operations_match_the_reference_on_every_element(p, k):
    """neg and conj read the exp/log tables, and the generator is the
    tables' own; each is checked against digit-wise arithmetic."""
    F = field_make(p, k)
    R = RefField(F)
    assert [F.neg(a) for a in range(F.q)] == [R.neg(a) for a in range(F.q)]
    if k % 2:
        with pytest.raises(InputError):
            F.conj(1)
    else:
        root = p ** (k // 2)
        conj = [F.conj(a) for a in range(F.q)]
        assert conj == [R.pow(a, root) for a in range(F.q)]
        assert [conj[c] for c in conj] == list(range(F.q))
        fixed = {a for a in range(F.q) if conj[a] == a}
        assert len(fixed) == root
        assert all(R.add(a, b) in fixed and R.mul(a, b) in fixed for a in fixed for b in fixed)
    least = next(g for g in range(1, F.q) if R.order(g) == F.q - 1)
    assert F.multiplicative_generator() == least


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
            assert is_irreducible(f) == (reference(f) == {f: 1}), f
            got = factorize(f)
            want = sorted(
                reference(f).items(), key=lambda kv: (kv[0].degree, kv[0].coeffs)
            )
            assert got == want, f"factorization differs at {f}"
            check = poly_one(field)
            for g, m in got:
                for _ in range(m):
                    check = check * g
            assert check == f


@pytest.mark.parametrize("q", [9, 25, 27, 49])
def test_factorize_multiplicities_divisible_by_p_over_extension_fields(q):
    # A multiplicity divisible by p makes f in part a p-th power, whose
    # coefficients over F_{p^k}, k > 1, Frobenius does not fix; the exhaustive
    # audit above covers only prime fields, where Frobenius is the identity.
    field = field_from_order(q)
    p = field.p
    pool = monic_irreducibles(field, 1) + monic_irreducibles(field, 2)
    multiplicities = (1, p - 1, p, p + 1, 2 * p, p * p)
    rng = random.Random(q)
    cases = 0
    while cases < 35:
        factors = sorted(
            zip(rng.sample(pool, rng.choice((2, 3))), rng.choices(multiplicities, k=3)),
            key=lambda kv: (kv[0].degree, kv[0].coeffs),
        )
        if sum(g.degree * m for g, m in factors) > 64:
            continue
        f = poly_one(field)
        for g, m in factors:
            for _ in range(m):
                f = f * g
        assert factorize(f) == factors, f
        cases += 1


def _ben_or_scan(field, d):
    """Every monic polynomial of degree d, in coefficient order, that Ben-Or's
    test finds irreducible (x included for d = 1): the reference list."""
    out = []
    for tail in itertools.product(range(field.q), repeat=d):
        if d > 1 and tail[0] == 0:
            continue
        cand = Poly(field, tail + (1,))
        if is_irreducible(cand):
            out.append(cand)
    return tuple(out)


# Every listed field, with each degree d up to q^d <= LISTED_ORDER.
LISTED_FIELDS = (3, 5, 7, 9, 25, 27, 49, 125)
LISTED_ORDER = 20000


def _listed_degrees(q):
    d = 1
    while q**d <= LISTED_ORDER:
        yield d
        d += 1


@pytest.mark.parametrize("q", LISTED_FIELDS)
def test_monic_irreducibles_equal_the_ben_or_scan(q):
    field = field_from_order(q)
    listed = {d: monic_irreducibles(field, d) for d in _listed_degrees(q)}
    for d, polys in listed.items():
        assert polys == _ben_or_scan(field, d), (q, d)


@pytest.mark.parametrize("q", LISTED_FIELDS)
def test_listed_root_orders_equal_the_pow_mod_route(q, monkeypatch):
    field = field_from_order(q)
    listed = [f for d in _listed_degrees(q) for f in monic_irreducibles(field, d)]
    recorded = dict(ffpoly._ROOT_ORDERS)
    monkeypatch.setattr(ffpoly, "_ROOT_ORDERS", {})
    for f in listed:
        if f.constant_term():
            assert root_order.__wrapped__(f) == recorded[f], f


@pytest.mark.parametrize("q", LISTED_FIELDS)
def test_root_order_kind_equals_the_factorization_kind(q):
    # the roots are squares in F_{q^d} exactly when f(x^2) splits
    field = field_from_order(q)
    for d in _listed_degrees(q):
        half = (q**d - 1) // 2
        for f in monic_irreducibles(field, d):
            if f.constant_term():
                by_order = half % root_order(f) == 0
                by_factors = isinstance(power_poly.classify2(f), power_poly.TwoPower)
                assert by_order == by_factors, f


def test_every_allowed_gl_size_has_its_polynomial_lists():
    # GL_n(q) lists the irreducibles of every degree d <= n, which needs
    # q^n <= MAX_FIELD_ORDER.  Class counts grow with n (a fixed point added to
    # a class gives a class one size up), so the first n past the field bound
    # must be past the class bound.
    root = math.isqrt(MAX_FIELD_ORDER)
    for q in range(3, root + 1, 2):
        if len(factorint(q)) != 1:
            continue
        n = 2
        while q**n <= MAX_FIELD_ORDER:
            n += 1
        assert class_count(n, q) > MAX_CLASS_COUNT, (n, q)
    # past the square root that n is 2, and GL_2(q) has q^2 - 1 classes
    q = next(q for q in range(root + 1, 2 * root, 2) if len(factorint(q)) == 1)
    assert class_count(2, q) == q * q - 1 > MAX_CLASS_COUNT


def test_monic_irreducibles_past_the_field_bound_raise_at_once(F3):
    start = time.perf_counter()
    with pytest.raises(ScaleLimitError):
        monic_irreducibles(F3, 13)  # 3^13 > MAX_FIELD_ORDER
    with pytest.raises(ScaleLimitError):
        monic_irreducibles(F3, 10**6)
    assert time.perf_counter() - start < 1.0


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


def _evaluate(f: Poly, a: int) -> int:
    """f(a) by Horner's rule."""
    F = f.field
    acc = 0
    for c in reversed(f.coeffs):
        acc = F.add(F.mul(acc, a), c)
    return acc


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
    assert _evaluate(g, a) == _evaluate(f, field.pow(a, m))


def test_root_order_examples(F3):
    assert root_order(Poly(F3, (2, 1))) == 1
    assert root_order(Poly(F3, (1, 1))) == 2
    assert root_order(Poly(F3, (1, 0, 1))) == 4


@pytest.mark.parametrize("q", [3, 5, 9])
def test_root_order_divides_and_determines_degree(q):
    field = field_from_order(q)
    for d in (1, 2, 3):
        for f in monic_irreducibles(field, d):
            if f.constant_term() == 0:
                continue
            t = root_order(f)
            assert (q**d - 1) % t == 0
            assert n_order(q, t) == d


def test_minimal_polynomial_of_power(F3):
    # roots of x^2+x+2 have order 8; their squares have order 4
    f = Poly(F3, (2, 1, 1))
    assert minimal_polynomial_of_power(f) == Poly(F3, (1, 0, 1))
    # squaring a root of x^2+1 lands in the prime field
    assert minimal_polynomial_of_power(Poly(F3, (1, 0, 1))) == Poly(F3, (1, 1))
    assert minimal_polynomial_of_power(Poly(F3, (2, 1))) == Poly(F3, (2, 1))


def _frobenius_orbit_minimal_polynomial(f: Poly, m: int) -> Poly:
    """Reference: prod (y - beta^(m q^j)) over the Frobenius orbit of beta^m,
    expanded with coefficients in F_q[x]/(f)."""
    F = f.field
    alpha = ffpoly.pow_mod(ffpoly.poly_x(F), m, f)
    conjugates = [alpha]
    cur = ffpoly.pow_mod(alpha, F.q, f)
    while cur != alpha:
        conjugates.append(cur)
        cur = ffpoly.pow_mod(cur, F.q, f)
    zero = Poly(F, ())
    coeffs = [poly_one(F)]
    for c in conjugates:
        nxt = [zero] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + a
            nxt[i] = nxt[i] - (a * c) % f
        coeffs = nxt
    assert all(a.degree <= 0 for a in coeffs), "coefficient outside the base field"
    return Poly(F, tuple(a.constant_term() for a in coeffs))


@pytest.mark.parametrize("q,max_deg", [(3, 6), (5, 5), (7, 4), (9, 3), (25, 3)])
def test_root_squaring_equals_the_frobenius_orbit_expansion(q, max_deg):
    field = field_from_order(q)
    kept = halved = 0
    for d in range(1, max_deg + 1):
        for f in monic_irreducibles(field, d):
            if f.coeffs == (0, 1):
                continue
            got = minimal_polynomial_of_power.__wrapped__(f)
            assert got == _frobenius_orbit_minimal_polynomial(f, 2), f
            if got.degree == d:
                kept += 1
            else:
                halved += 1
    assert kept and halved


# -- reducible input -------------------------------------------------------------


def test_reducible_input_still_raises_and_is_never_recorded(F5):
    f = Poly(F5, (4, 0, 1))  # x^2 - 1
    with pytest.raises(InputError):
        ffpoly.require_irreducible_not_x(f)
    assert not is_irreducible(f)


def test_equal_degree_refuses_a_piece_that_cannot_split():
    # x + 1 has no degree-2 factors: every random split fails, and the
    # bounded tries end in an error, not a loop (in a subprocess, so that
    # a hang fails the test)
    probe = (
        "from squarefibers.ffpoly import Poly, _equal_degree, field_make\n"
        "F = field_make(3, 1)\n"
        "_equal_degree(Poly(F, (1, 1)), 2)\n"
    )
    src = str(Path(ffpoly.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=10,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        "RuntimeError: polynomial 1,1 over F_3 did not split into degree-2 "
        "factors in 64 tries"
    )
