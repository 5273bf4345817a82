"""Orbit labels against the polynomials they stand for.

A label of degree d over F_q is a Frobenius orbit {e, eq, eq^2, ...} in
Z/(q^d - 1); it stands for the minimal polynomial of g^e, g a generator
of F_{q^d}^*.  Here that polynomial is built from the field tables, and
each fact that the count routes read off the label is checked against
the polynomial code: degree, reciprocal, root order, two-power verdict
and the square's minimal polynomial.
"""

from math import gcd

import pytest

from squarefibers.ffpoly import (
    Poly,
    _subfield_codes,
    field_from_order,
    field_make,
    minimal_polynomial_of_power,
    monic_irreducibles,
    reciprocal,
    root_order,
)
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


@pytest.mark.parametrize("q,d", CELLS)
def test_orbit_labels_match_the_polynomials(q, d):
    labels = orbit_labels(q, d)
    m = q**d - 1
    field = field_from_order(q)
    polys = [_polynomial_of(q, d, e) for e in labels.exponents]
    # one label per monic irreducible of degree d other than x
    assert sorted(f.coeffs for f in polys) == sorted(
        f.coeffs for f in monic_irreducibles(field, d) if f.coeffs != (0, 1)
    )
    ts = [t for t, _, _ in labels.groups]
    assert ts == sorted(set(ts))
    assert labels.groups[0][1] == 0 and labels.groups[-1][2] == len(polys)
    for t, lo, hi in labels.groups:
        for i in range(lo, hi):
            e, f, j = labels.exponents[i], polys[i], labels.negation[i]
            orbit = _frobenius(e, q, m)
            assert len(orbit) == f.degree == d
            assert e == min(orbit)
            # the reciprocal is the orbit of -e, its own label or the adjacent one
            assert labels.exponents[j] == min(_frobenius(-e, q, m))
            assert reciprocal(f) == polys[j]
            assert labels.negation[j] == i and lo <= j < hi and abs(i - j) <= 1
            assert root_order(f) == t == m // gcd(e, m)
            assert is_two_power(f) == (e % 2 == 0) == ((m // 2) % t == 0)
            assert minimal_polynomial_of_power(f) == _polynomial_of(q, d, 2 * e)


def test_negation_pairs_are_uniform_within_a_root_order():
    # the direct count reads one label per group to tell pairs from
    # self-paired labels
    for q, d in CELLS:
        labels = orbit_labels(q, d)
        for _, lo, hi in labels.groups:
            paired = labels.negation[lo] != lo
            for i in range(lo, hi):
                assert (labels.negation[i] != i) == paired
                if paired:
                    assert labels.negation[i] == i + 1 - 2 * ((i - lo) % 2)
