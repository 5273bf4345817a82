"""Orbit labels against the polynomials they stand for.

A label of degree d over F_q is a Frobenius orbit {e, eq, eq^2, ...} in
Z/(q^d - 1); it stands for the minimal polynomial of g^e, g a generator
of F_{q^d}^*.  ``orbit_labels`` keeps only a count of labels per root
order; here the counts are checked against the monic irreducibles
themselves, each given a root order computed in the test, and the facts
the count routes read off a label (degree, reciprocal, root order,
two-power verdict, the square's minimal polynomial) are checked on the
orbits, with each orbit's polynomial built from the field tables.
"""

from functools import cache
from math import gcd

import pytest

from squarefibers.ffpoly import (
    Poly,
    _subfield_codes,
    field_from_order,
    field_make,
    minimal_polynomial_of_power,
    monic_irreducibles,
    poly_x,
    pow_mod,
    reciprocal,
)
from squarefibers.numtheory import divisors
from squarefibers.power_poly import is_two_power
from squarefibers.real_classes import orbit_labels

CELLS = (
    [(3, d) for d in range(1, 7)]
    + [(5, d) for d in range(1, 5)]
    + [(7, d) for d in range(1, 4)]
    + [(9, d) for d in range(1, 4)]
    + [(25, d) for d in range(1, 3)]
    + [(27, d) for d in range(1, 3)]
)


def _frobenius(e: int, q: int, m: int) -> set[int]:
    orbit = {e % m}
    cur = e * q % m
    while cur not in orbit:
        orbit.add(cur)
        cur = cur * q % m
    return orbit


def _orbit_representatives(q: int, d: int) -> list[int]:
    """The least element of each Frobenius orbit of size d in Z/(q^d - 1)."""
    m = q**d - 1
    return [e for e in range(m) if min(orbit := _frobenius(e, q, m)) == e and len(orbit) == d]


def _polynomial_of(q: int, d: int, e: int) -> Poly:
    """The minimal polynomial over F_q of g^e, g the generator of
    F_{q^d}^* that its field tables use: the product of x - g^l over the
    Frobenius orbit of e, whatever its size, mapped into F_q's encoding."""
    field = field_from_order(q)
    big = field_make(field.p, field.k * d)
    m = big.q - 1
    g = big.multiplicative_generator()
    coeffs = [1]
    for l in sorted(_frobenius(e, q, m)):
        minus_root = big.neg(big.pow(g, l))
        coeffs = [
            big.add(low, big.mul(c, minus_root))
            for low, c in zip([0] + coeffs, coeffs + [0])
        ]
    codes = {a: a for a in range(q)} if big is field else _subfield_codes(field, big)
    return Poly(field, tuple(codes[c] for c in coeffs))


def _order_of_x(f: Poly, m: int) -> int:
    """The least divisor t of m with x^t = 1 mod f: the order of f's roots."""
    x = poly_x(f.field)
    return next(t for t in divisors(m) if pow_mod(x, t, f).is_one())


@cache
def _irreducibles_by_root_order(q: int, d: int) -> dict[int, list[Poly]]:
    """The monic irreducibles of degree d other than x, by root order."""
    by_order: dict[int, list[Poly]] = {}
    for f in monic_irreducibles(field_from_order(q), d):
        if f.coeffs != (0, 1):
            by_order.setdefault(_order_of_x(f, q**d - 1), []).append(f)
    return by_order


@pytest.mark.parametrize("q,d", CELLS)
def test_orbit_labels_match_the_polynomials(q, d):
    groups = orbit_labels(q, d)
    half = (q**d - 1) // 2
    by_order = _irreducibles_by_root_order(q, d)
    assert [t for t, _, _, _ in groups] == sorted(by_order)
    end = 0
    for t, lo, hi, paired in groups:
        polys = by_order[t]
        assert lo == end and hi - lo == len(polys)
        end = hi
        assert paired == all(reciprocal(f) != f for f in polys)
        for f in polys:
            assert is_two_power(f) == (half % t == 0)


def test_negation_pairs_are_uniform_within_a_root_order():
    # the direct count reads one flag per group to tell pairs from
    # self-paired labels
    for q, d in CELLS:
        for polys in _irreducibles_by_root_order(q, d).values():
            assert len({reciprocal(f) == f for f in polys}) == 1


@pytest.mark.parametrize("q,d", CELLS)
def test_orbits_stand_for_the_polynomials(q, d):
    m = q**d - 1
    field = field_from_order(q)
    reps = _orbit_representatives(q, d)
    polys = [_polynomial_of(q, d, e) for e in reps]
    # one orbit per monic irreducible of degree d other than x
    assert sorted(f.coeffs for f in polys) == sorted(
        f.coeffs for f in monic_irreducibles(field, d) if f.coeffs != (0, 1)
    )
    for e, f in zip(reps, polys):
        assert f.degree == d
        # the reciprocal is the orbit of -e, the root order m / gcd(e, m),
        # and the roots are squares exactly when e is even
        assert reciprocal(f) == _polynomial_of(q, d, -e)
        assert _order_of_x(f, m) == m // gcd(e, m)
        assert is_two_power(f) == (e % 2 == 0)
        assert minimal_polynomial_of_power(f) == _polynomial_of(q, d, 2 * e)
