"""Conjugacy classes of GL_n(q) as combinatorial data.

A class is a finite assignment of nonempty partitions to monic
irreducible polynomials other than x, with sum of deg(f)*|lambda_f|
equal to n.  Centralizer orders, class sizes, representatives, class
inversion and element orders are all computed from that data alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import Iterator

from .ffpoly import (
    Field,
    Poly,
    field_from_order,
    monic_irreducibles,
    reciprocal,
    root_order,
)
from .limits import MAX_CLASS_COUNT, InputError, ScaleLimitError
from .partitions import Partition, gamma_exponent, partition_count, partitions_of

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ClassData:
    """Combinatorial data of a GL_n(q) conjugacy class.

    Entries are (polynomial, partition) pairs sorted by (degree,
    coefficient tuple) so equal classes compare equal.  Keys must be
    monic with nonzero constant term; irreducibility is the caller's
    responsibility on trusted paths and is checked by the parsers.
    """

    field: Field
    entries: tuple[tuple[Poly, Partition], ...]

    def __post_init__(self):
        if not self.entries:
            raise InputError("class data needs at least one entry")
        seen = None
        for f, lam in self.entries:
            if f.field != self.field:
                raise InputError("entry polynomial over the wrong field")
            if not f.is_monic() or f.degree < 1:
                raise InputError("class polynomials must be monic of degree >= 1")
            if f.constant_term() == 0:
                raise InputError("class polynomials must have nonzero constant term")
            if lam.is_empty():
                raise InputError("class partitions must be nonempty")
            key = (f.degree, f.coeffs)
            if seen is not None and key <= seen:
                raise InputError("entries must be strictly sorted by (degree, coeffs)")
            seen = key

    @property
    def n(self) -> int:
        return sum(f.degree * lam.weight for f, lam in self.entries)

    def as_dict(self) -> dict[Poly, Partition]:
        return dict(self.entries)

    def __str__(self) -> str:
        return "; ".join(f"({f})->{lam}" for f, lam in self.entries)


def make_class_data(field: Field, entries) -> ClassData:
    """Sort entries canonically and build the class."""
    ordered = sorted(entries, key=lambda kv: (kv[0].degree, kv[0].coeffs))
    return ClassData(field, tuple(ordered))


@lru_cache(maxsize=None)
def gl_order(n: int, q: int) -> int:
    """|GL_n(q)| = prod_{i=0}^{n-1} (q^n - q^i); the empty product is 1."""
    if n < 0:
        raise InputError("negative dimension")
    out = 1
    qn = q**n
    for i in range(n):
        out *= qn - q**i
    return out


@lru_cache(maxsize=None)
def irreducible_count(q: int, d: int) -> int:
    """Necklace count (1/d) sum_{e|d} mu(e) q^(d/e) of monic irreducibles."""
    import sympy

    total = sum(int(sympy.mobius(e)) * q ** (d // e) for e in sympy.divisors(d))
    assert total % d == 0
    return total // d


def class_count(n: int, q: int) -> int:
    """Number of conjugacy classes of GL_n(q), by generating function."""
    if n < 1:
        raise InputError("dimension must be positive")
    series = [1] + [0] * n
    for d in range(1, n + 1):
        count = irreducible_count(q, d) - (1 if d == 1 else 0)
        base = [0] * (n + 1)
        for m in range(0, n // d + 1):
            base[m * d] = partition_count(m)
        series = series_mul(series, series_pow(base, count, n), n)
    return series[n]


def series_mul(a: list, b: list, n: int) -> list:
    """Product of two power series truncated at degree n.  The
    coefficients may be int or Fraction."""
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(min(len(b), n + 1 - i)):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def series_pow(a: list, e: int, n: int) -> list:
    """a^e truncated at degree n, by repeated squaring."""
    out = [1] + [0] * n
    while e:
        if e & 1:
            out = series_mul(out, a, n)
        a = series_mul(a, a, n)
        e >>= 1
    return out


def _class_polys(field: Field, d: int) -> tuple[Poly, ...]:
    polys = monic_irreducibles(field, d)
    if d == 1:
        return tuple(f for f in polys if f.constant_term() != 0)
    return polys


def enumerate_classes(n: int, q: int) -> Iterator[ClassData]:
    """All conjugacy classes of GL_n(q), streamed in a fixed order.

    The class polynomials form one list sorted by (degree, coeffs).  Each
    level of the recursion gives a partition to one polynomial that lies
    after the previous level's in that list, so the depth is at most n
    however many irreducibles there are.  Scanning the list from its end
    down fixes the order in which classes are yielded.
    """
    if n < 1:
        raise InputError("dimension must be positive")
    field = field_from_order(q)
    if class_count(n, q) > MAX_CLASS_COUNT:
        raise ScaleLimitError(f"GL_{n}({q}) has more than {MAX_CLASS_COUNT} classes")
    polys: list[Poly] = []
    ends = [0]  # ends[r]: how many class polynomials have degree <= r
    for d in range(1, n + 1):
        polys.extend(_class_polys(field, d))
        ends.append(len(polys))
    acc: list[tuple[Poly, Partition]] = []

    def rec(remaining: int, start: int) -> Iterator[ClassData]:
        if remaining == 0:
            yield ClassData(field, tuple(acc))
            return
        for i in range(ends[remaining] - 1, start - 1, -1):
            f = polys[i]
            d = f.degree
            for w in range(1, remaining // d + 1):
                for lam in partitions_of(w):
                    acc.append((f, lam))
                    yield from rec(remaining - d * w, i + 1)
                    acc.pop()

    yield from rec(n, 0)


def centralizer_order(data: ClassData) -> int:
    """|Z_{GL_n(q)}(x)| = q^gamma * prod over entries and distinct parts of
    |GL_{mult}(q^deg)|, with gamma summed per entry."""
    q = data.field.q
    gamma = 0
    prod = 1
    for f, lam in data.entries:
        d = f.degree
        gamma += gamma_exponent(lam, d)
        qd = q**d
        for _, m in lam.pairs:
            prod *= gl_order(m, qd)
    return q**gamma * prod


def class_size(data: ClassData) -> int:
    size, rem = divmod(gl_order(data.n, data.field.q), centralizer_order(data))
    if rem:
        raise RuntimeError(f"centralizer order does not divide the group order: {data}")
    return size


def companion_matrix(f: Poly) -> Matrix:
    """Companion matrix with ones on the subdiagonal and -coefficients in
    the last column."""
    F = f.field
    d = f.degree
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = F.neg(f.coeffs[i])
    return tuple(tuple(r) for r in rows)


def jordan_block(f: Poly, k: int) -> Matrix:
    """Generalized Jordan block: k x k array of companion blocks of f with
    identity links on the superdiagonal."""
    d = f.degree
    comp = companion_matrix(f)
    size = d * k
    rows = [[0] * size for _ in range(size)]
    for b in range(k):
        for i in range(d):
            for j in range(d):
                rows[b * d + i][b * d + j] = comp[i][j]
        if b + 1 < k:
            for i in range(d):
                rows[b * d + i][(b + 1) * d + i] = 1
    return tuple(tuple(r) for r in rows)


def representative_matrix(data: ClassData) -> Matrix:
    """Block-diagonal representative of the class; n is capped at 12."""
    n = data.n
    if n > 12:
        raise ScaleLimitError("representatives are built only up to n = 12")
    blocks = []
    for f, lam in data.entries:
        for part, mult in lam.pairs:
            blocks.extend([jordan_block(f, part)] * mult)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for blk in blocks:
        m = len(blk)
        for i in range(m):
            for j in range(m):
                rows[offset + i][offset + j] = blk[i][j]
        offset += m
    return tuple(tuple(r) for r in rows)


def inverse_class(data: ClassData) -> ClassData:
    """Data of the inverse class: each polynomial is replaced by its
    reciprocal, partitions are untouched.  An involution."""
    return make_class_data(
        data.field, [(reciprocal(f), lam) for f, lam in data.entries]
    )


def element_order_of_class(data: ClassData) -> int:
    """Order of any element of the class: lcm of the root orders times the
    least power of p covering the largest Jordan block."""
    p = data.field.p
    semisimple = lcm(*(root_order(f) for f, _ in data.entries))
    max_part = max(lam.max_part() for _, lam in data.entries)
    ppow = 1
    while ppow < max_part:
        ppow *= p
    return semisimple * ppow


def is_identity_class(data: ClassData) -> bool:
    if len(data.entries) != 1:
        return False
    f, lam = data.entries[0]
    neg_one = data.field.neg(1)
    return f.coeffs == (neg_one, 1) and lam.pairs == ((1, data.n),)

