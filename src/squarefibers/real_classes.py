"""Real conjugacy classes of GL_n(q), counted three independent ways.

The direct route counts the classes that inversion fixes; the
Murray-Sambale route divides |{(g,h): g^2 h^2 = 1}| by the group order;
a q-series route recovers the counts of M-th roots of identity that the
published class-counting statement consumes.  A verbatim evaluator of
that statement is kept for audits under both readings of its order
counts; it is not trusted.  The audit that tabulates every route is
:func:`squarefibers.audits.audit_real_counts`.

The class walks of the first two routes, and the order histogram the
q-series is checked against, read orbit labels, not polynomials.  A
monic irreducible f != x of degree d over F_q is a Frobenius orbit
{e, eq, eq^2, ...} of size d in Z/(q^d - 1), the exponents of its roots
against a generator of F_{q^d}^*, and every fact the walks read is
integer arithmetic on that orbit: the root order is
(q^d - 1)/gcd(e, q^d - 1), the reciprocal is the orbit of -e, and the
roots are squares (f two-power) exactly when e is even (Green, 1955;
Macdonald, Symmetric Functions and Hall Polynomials, ch. IV).  A class
is a set of (label, partition) entries, so no walk lists a polynomial
or builds an extension-field table.  ``tests/test_orbit_labels.py`` ties
the labels to the polynomials they stand for.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType

from .gl_classes import (
    block_centralizer_order,
    check_class_walk,
    gl_order,
    real_class_product,
    series_mul,
    series_pow,
)
from .limits import MAX_FIELD_ORDER, InputError, ScaleLimitError, exceeds
from .numtheory import divisors, factorint, n_order, totient
from .partitions import partition_count, partitions_of
from .records import Record
from .square_fibers import _block_value

THEOREM_CONVENTIONS = ("exact-order", "order-dividing")
# The M of the counts of g^M = 1 that the published statement consumes
# (c_2 and c_4); the audit checks each against the q-series.
UNITY_ROOT_ORDERS = (2, 4)


class OrbitLabels(Record):
    """The Frobenius orbits of size d in Z/(q^d - 1), one label each.

    ``exponents[i]`` is the least element e of label i, and
    ``negation[i]`` the index of the label of -e.  ``groups`` holds
    (t, lo, hi), t ascending: labels lo to hi - 1 are those of root order
    t, and that order fixes their parity, for e is even exactly when t
    divides (q^d - 1)/2.  Negation keeps t, and within a group either
    every label is its own negation (when -1 is a power of q mod t) or
    the labels come in adjacent pairs, i and i + 1, that negate to each
    other.
    """

    __slots__ = ("exponents", "negation", "groups")

    def __init__(self, exponents: array, negation: array, groups: tuple):
        self._set(exponents, negation, groups)


@lru_cache(maxsize=None)
def orbit_labels(q: int, d: int) -> OrbitLabels:
    """The labels of degree d over F_q, by root order.

    The exponents of root order t are (q^d - 1)/t times the units u mod t,
    and the orbits among them are the cosets u<q> of the units, of size d
    exactly when q has order d mod t.  The least u of each coset is met
    first in a scan of the units, and its negation coset, -u<q>, is taken
    at once.  Needs q^d <= MAX_FIELD_ORDER, as the polynomial lists do.
    """
    if exceeds(q, d, MAX_FIELD_ORDER):
        raise ScaleLimitError(f"field order {q}^{d} exceeds {MAX_FIELD_ORDER}")
    m = q**d - 1
    exponents = array("l")
    negation = array("l")
    groups = []
    for t in divisors(m):
        if n_order(q, t) != d:
            continue
        step = m // t
        coset = [q**j % t for j in range(d)]
        self_paired = t - 1 in coset
        seen = bytearray(t)  # nonzero: not a unit, or in a coset already taken
        for r in factorint(t):
            seen[::r] = b"\1" * len(range(0, t, r))
        lo = len(exponents)
        u = seen.find(0)
        while u >= 0:
            for c in coset:
                seen[u * c % t] = 1
            i = len(exponents)
            exponents.append(step * u)
            if self_paired:
                negation.append(i)
            else:
                minus = [t - u * c % t for c in coset]
                for v in minus:
                    seen[v] = 1
                exponents.append(step * min(minus))
                negation.append(i + 1)
                negation.append(i)
            u = seen.find(0, u + 1)
        groups.append((t, lo, len(exponents)))
    return OrbitLabels(exponents, negation, tuple(groups))


def _labels(n: int, q: int) -> list:
    """The labels of every degree 1..n (index d; index 0 holds None), once
    GL_n(q) passes the limits of a class walk."""
    check_class_walk(n, q)
    return [None] + [orbit_labels(q, d) for d in range(1, n + 1)]


@lru_cache(maxsize=None)
def _order_histogram(n: int, q: int) -> MappingProxyType:
    """Element order -> number of elements of GL_n(q) of that order, in
    one walk over the classes.

    A class's entries are (label, partition) pairs, walked in descending
    degree and then ascending label.  Its elements have order
    lcm(root orders) times the least power of p covering the largest
    part, and there are |GL_n(q)| / prod of the entries' block
    centralizer orders of them.  The labels of a group share every fact
    but their index, so the last entry of a class is counted once per
    group, and a level whose weight left is below its degree walks the
    rest once for all the labels of a group.  The counts must sum to
    |GL_n(q)|.
    """
    labels = _labels(n, q)
    p = min(factorint(q))
    ppow = [1] * (n + 1)  # least power of p >= k
    for k in range(2, n + 1):
        ppow[k] = ppow[k - 1] * p if ppow[k - 1] < k else ppow[k - 1]
    # plan[d]: the groups (t, lo, hi) and, by weight w, the (centralizer
    # factor, largest part) of each partition of w
    plan = [None] + [
        (
            labels[d].groups,
            [()] + [
                tuple(
                    (block_centralizer_order(q**d, lam), lam.max_part())
                    for lam in partitions_of(w)
                )
                for w in range(1, n // d + 1)
            ],
        )
        for d in range(1, n + 1)
    ]
    hist: dict[int, int] = {}

    def walk(rest, top, start, size, semisimple, largest, mult):
        for d in range(min(top, rest), 0, -1):
            groups, by_weight = plan[d]
            begin = start if d == top else 0
            for t, lo, hi in groups:
                if hi <= begin:
                    continue
                first = lo if lo > begin else begin
                order = lcm(semisimple, t)
                if rest % d == 0:
                    count = mult * (hi - first)
                    for z, big in by_weight[rest // d]:
                        key = order * ppow[big if big > largest else largest]
                        hist[key] = hist.get(key, 0) + count * (size // z)
                for w in range(1, (rest - 1) // d + 1):
                    left = rest - d * w
                    for z, big in by_weight[w]:
                        part = size // z
                        big = big if big > largest else largest
                        if left < d:  # no more labels of degree d: the rest is the same for all
                            walk(left, left, 0, part, order, big, mult * (hi - first))
                        else:
                            for i in range(first, hi):
                                walk(left, d, i + 1, part, order, big, mult)

    group_order = gl_order(n, q)
    walk(n, n, 0, group_order, 1, 0, 1)
    if sum(hist.values()) != group_order:
        raise RuntimeError("the order histogram does not count every element once")
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
    """Number of classes equal to their inverse class, checked against
    :func:`real_class_product`.

    Inversion negates every label and keeps its partition, so a class is
    real when negation maps its entries onto themselves: each entry's
    label is its own negation, or the label's partner carries the same
    partition.  The walk builds exactly those classes from units, one
    self-paired label or one adjacent pair of labels with one partition,
    in descending degree and then ascending label.  The classes a unit of
    weight w completes number p(w), one per partition, and a level whose
    weight left is below its degree walks the rest once for a group.
    """
    labels = _labels(n, q)
    pcount = [partition_count(w) for w in range(n + 1)]

    def walk(rest, top, start):
        count = 0
        for d in range(min(top, rest), 0, -1):
            negation = labels[d].negation
            begin = start if d == top else 0
            for _, lo, hi in labels[d].groups:
                if hi <= begin:
                    continue
                first = lo if lo > begin else begin
                span = 1 if negation[first] == first else 2  # labels per unit
                unit = span * d
                units = (hi - first) // span
                if rest % unit == 0:
                    count += units * pcount[rest // unit]
                for w in range(1, (rest - 1) // unit + 1):
                    left = rest - unit * w
                    if left < d:
                        count += units * pcount[w] * walk(left, left, 0)
                    else:
                        for i in range(first, hi, span):
                            count += pcount[w] * walk(left, d, negation[i] + 1)
        return count

    count = walk(n, n, 0)
    product = real_class_product(n, q)
    if count != product:
        raise RuntimeError(f"{count} classes are real, the product formula gives {product}")
    return count


@lru_cache(maxsize=None)
def s2_cardinality(n: int, q: int) -> int:
    """|{(g, h) in GL_n(q)^2 : g^2 h^2 = 1}| as a class-wise sum.

    Summing fiber(beta) * fiber(beta^(-1)) over beta and using that
    inverse classes have equal fibers gives sum over classes of
    |C| * R(C)^2, in one walk over the classes.  The mass identity
    sum |C| R(C) = |G|, a prerequisite, is checked in the same walk.
    An entry (label, lam) of degree d has the centralizer factor
    block_centralizer_order(q^d, lam) and the fiber factor
    _block_value(q^d, lam, e even), looked up per (d, lam); a class whose
    fiber factor is 0 is passed by with all the classes that extend it.
    The walk is ordered and cut short as in :func:`_order_histogram`.
    """
    labels = _labels(n, q)
    order = gl_order(n, q)
    # plan[d]: the groups (lo, hi, 1 if two-power else 2) and, by weight w,
    # the (centralizer factor, fiber factor if two-power, if skew) of each
    # partition of w
    plan = [None]
    for d in range(1, n + 1):
        qd = q**d
        half = (qd - 1) // 2
        plan.append((
            tuple((lo, hi, 1 if half % t == 0 else 2) for t, lo, hi in labels[d].groups),
            [()] + [
                tuple(
                    (block_centralizer_order(qd, lam), _block_value(qd, lam, True),
                     _block_value(qd, lam, False))
                    for lam in partitions_of(w)
                )
                for w in range(1, n // d + 1)
            ],
        ))
    mass = s2 = 0

    def walk(rest, top, start, size, fiber, mult):
        nonlocal mass, s2
        for d in range(min(top, rest), 0, -1):
            groups, by_weight = plan[d]
            begin = start if d == top else 0
            for lo, hi, kind in groups:
                if hi <= begin:
                    continue
                first = lo if lo > begin else begin
                if rest % d == 0:
                    count = mult * (hi - first)
                    for block in by_weight[rest // d]:
                        value = block[kind]
                        if value:
                            r = fiber * value
                            x = count * (size // block[0]) * r
                            mass += x
                            s2 += x * r
                for w in range(1, (rest - 1) // d + 1):
                    left = rest - d * w
                    for block in by_weight[w]:
                        value = block[kind]
                        if not value:
                            continue
                        part = size // block[0]
                        r = fiber * value
                        if left < d:
                            walk(left, left, 0, part, r, mult * (hi - first))
                        else:
                            for i in range(first, hi):
                                walk(left, d, i + 1, part, r, mult)

    walk(n, n, 0, order, 1, 1)
    if mass != order:
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
