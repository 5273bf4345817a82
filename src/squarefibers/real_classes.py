"""Real conjugacy classes of GL_n(q), counted three independent ways.

The direct route tests each class for inversion-invariance; the
Murray-Sambale route divides |{(g,h): g^2 h^2 = 1}| by the group order;
a q-series route recovers the counts of M-th roots of identity that the
published class-counting statement consumes.  A verbatim evaluator of
that statement is kept for audits under both readings of its order
counts; it is not trusted.  The audit that tabulates every route is
:func:`squarefibers.audits.audit_real_counts`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from types import MappingProxyType

from .gl_classes import (
    centralizer_order,
    class_size,
    element_order_of_class,
    enumerate_classes,
    gl_order,
    inverse_class,
    series_mul,
    series_pow,
)
from .limits import InputError
from .numtheory import divisors, n_order, totient
from .square_fibers import count_square_roots

THEOREM_CONVENTIONS = ("exact-order", "order-dividing")
# The M of the counts of g^M = 1 that the published statement consumes
# (c_2 and c_4); the audit checks each against the q-series.
UNITY_ROOT_ORDERS = (2, 4)


@lru_cache(maxsize=None)
def _order_histogram(n: int, q: int) -> MappingProxyType:
    """Element order -> number of elements of GL_n(q) of that order, in
    one pass over the classes."""
    hist: dict[int, int] = {}
    for data in enumerate_classes(n, q):
        order = element_order_of_class(data)
        hist[order] = hist.get(order, 0) + class_size(data, centralizer_order(data))
    return MappingProxyType(hist)


def count_order_dividing(n: int, q: int, M: int) -> int:
    """Number of elements of GL_n(q) whose order divides M."""
    if M < 1:
        raise InputError("M must be positive")
    return sum(c for order, c in _order_histogram(n, q).items() if M % order == 0)


def count_order_exactly(n: int, q: int, M: int) -> int:
    """Number of elements of GL_n(q) of order exactly M."""
    if M < 1:
        raise InputError("M must be positive")
    return _order_histogram(n, q).get(M, 0)


def count_unity_roots_gf(n: int, q: int, M: int) -> int:
    """Number of M-th roots of identity in GL_n(q) via the probability
    generating function, for gcd(M, q) = 1.

    The coefficient of z^n in prod_{d | M} (sum_m z^(m e(d)) /
    |GL_m(q^e(d))|)^(phi(d)/e(d)) is a_n / |GL_n(q)|, where e(d) is the
    multiplicative order of q mod d; the inner factor is exactly the
    q-Pochhammer form q^(e m^2) (1/q^e)_m rewritten as a GL order.
    Exact rational series arithmetic throughout, truncated at degree n.
    """
    if n < 1:
        raise InputError("dimension must be positive")
    if gcd(M, q) != 1:
        raise InputError("the generating-function route needs gcd(M, q) = 1")
    series = [1] + [0] * n
    for d in divisors(M):
        e = n_order(q, d)
        phi = totient(d)
        if phi % e:
            raise RuntimeError("order must divide the totient")
        inner = [0] * (n + 1)
        inner[0] = 1
        for m in range(1, n // e + 1):
            inner[m * e] = Fraction(1, gl_order(m, q**e))
        series = series_mul(series, series_pow(inner, phi // e, n), n)
    value = gl_order(n, q) * series[n]
    if value.denominator != 1:
        raise RuntimeError(f"the series gives a non-integral count {value}")
    return int(value)


def unity_root_counts(n: int, q: int) -> tuple[tuple[int, int, int], ...]:
    """(M, count by class enumeration, count by q-series) for each M in
    UNITY_ROOT_ORDERS."""
    return tuple(
        (M, count_order_dividing(n, q, M), count_unity_roots_gf(n, q, M))
        for M in UNITY_ROOT_ORDERS
    )


def real_class_count_direct(n: int, q: int) -> int:
    """Number of classes equal to their inverse class."""
    return sum(1 for data in enumerate_classes(n, q) if inverse_class(data) == data)


@lru_cache(maxsize=None)
def s2_cardinality(n: int, q: int) -> int:
    """|{(g, h) in GL_n(q)^2 : g^2 h^2 = 1}| as a class-wise sum.

    Summing fiber(beta) * fiber(beta^(-1)) over beta and using that
    inverse classes have equal fibers gives sum over classes of
    |C| * R(C)^2, in one pass over the classes.  The mass identity
    sum |C| R(C) = |G|, a prerequisite, is checked in the same pass.
    """
    mass = 0
    s2 = 0
    for data in enumerate_classes(n, q):
        size = class_size(data, centralizer_order(data))
        r = count_square_roots(data)
        mass += size * r
        s2 += size * r * r
    if mass != gl_order(n, q):
        raise RuntimeError("square-map mass is not conserved")
    return s2


def real_class_count_ms(n: int, q: int) -> int:
    """|s(2)| / |G|; the division is a theorem and is checked exact."""
    count, rem = divmod(s2_cardinality(n, q), gl_order(n, q))
    if rem:
        raise RuntimeError("s(2) cardinality is not divisible by the group order")
    return count


def real_class_count_theorem(n: int, q: int, convention: str) -> Fraction:
    """Verbatim evaluator of the published real-class statement.

    Returns 1 + (c_4 + c_2 (c_2 - 1) + sum over square classes != 1 of
    |C| R (R - 1)) / |G| as an exact rational.  The convention selects
    how c_2 is counted: "exact-order" uses elements of order exactly 2,
    "order-dividing" uses solutions of g^2 = 1; c_4 is the exact order-4
    count in both.  Audit-only: the value may be non-integral.

    The sum over square classes is |s(2)| - |G| - c (c - 1), with c the
    number of solutions of g^2 = 1: over every class, |C| R (R - 1) sums
    to |s(2)| - |G| by the mass identity, and the identity class, of size
    1, has R = c.
    """
    if convention not in THEOREM_CONVENTIONS:
        raise InputError(f"unknown convention {convention!r}")
    order = gl_order(n, q)
    c4 = count_order_exactly(n, q, 4)
    c = count_order_dividing(n, q, 2)
    c2 = c if convention == "order-dividing" else count_order_exactly(n, q, 2)
    sigma = s2_cardinality(n, q) - order - c * (c - 1)
    return 1 + Fraction(c4 + c2 * (c2 - 1) + sigma, order)
