"""Conjugacy classes of GL_n(q) as combinatorial data.

A class is a finite assignment of nonempty partitions to monic
irreducible polynomials other than x, with sum of deg(f)*|lambda_f|
equal to n.  Centralizer orders, class sizes, representatives, class
inversion and element orders are all computed from that data alone.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from math import lcm

from .ffpoly import (
    Field,
    Poly,
    field_from_order,
    monic_irreducibles,
    reciprocal,
    root_order,
)
from .limits import MAX_CLASS_COUNT, MAX_PARTITION_WEIGHT, InputError, ScaleLimitError, clip
from .numtheory import divisors, mobius, odd_prime_power
from .partitions import Partition, gamma_exponent, partition_count, partitions_of
from .records import Record

Matrix = tuple[tuple[int, ...], ...]


class ClassData(Record):
    """Combinatorial data of a GL_n(q) conjugacy class.

    Entries are (polynomial, partition) pairs sorted by (degree,
    coefficient tuple) so equal classes compare equal.  Keys are distinct
    monic irreducibles other than x over ``field`` and partitions are
    nonempty.  The constructor checks none of this: values built inside
    the package hold it by construction, and class data from outside
    enters through ``formats.class_data_from_json``, which checks it.
    """

    __slots__ = ("field", "entries")

    def __init__(self, field: Field, entries: tuple[tuple[Poly, Partition], ...]):
        _set_class_field(self, field)
        _set_class_entries(self, entries)

    def __eq__(self, other):
        # fields are interned, so the identity test settles nearly every call
        if other.__class__ is self.__class__:
            return self.entries == other.entries and (
                self.field is other.field or self.field == other.field
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.entries))

    @property
    def n(self) -> int:
        total = 0
        for f, lam in self.entries:
            d = len(f.coeffs) - 1
            for a, m in lam.pairs:
                total += d * a * m
        return total

    def as_dict(self) -> dict[Poly, Partition]:
        return dict(self.entries)

    def __str__(self) -> str:
        return "; ".join(f"({f})->{lam}" for f, lam in self.entries)


# The slots' own setters, which skip the refusing __setattr__.
_set_class_field = ClassData.field.__set__
_set_class_entries = ClassData.entries.__set__


def make_class_data(field: Field, entries) -> ClassData:
    """Sort entries canonically and build the class, unchecked; outside
    input goes through ``formats.class_data_from_json``."""
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
    total = sum(mobius(e) * q ** (d // e) for e in divisors(d))
    if total % d:
        raise RuntimeError(f"the necklace sum of degree {d} over F_{q} is not divisible by {d}")
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


def real_class_product(n: int, q: int) -> int:
    """Number of real classes of GL_n(q), q odd, by the product formula:
    the coefficient of z^n in prod_{i >= 1} (1 + z^i)^2 / (1 - q z^(2i))
    (Gill and Singh, 2011).  Its own series code: no class walk and no class count."""
    series = [1] + [0] * n
    for i in range(1, n + 1):
        for _ in range(2):  # times 1 + z^i
            for k in range(n, i - 1, -1):
                series[k] += series[k - i]
        for k in range(2 * i, n + 1):  # over 1 - q z^(2i)
            series[k] += q * series[k - 2 * i]
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


def check_class_walk(n: int, q: int) -> None:
    """Refuse a walk over the classes of GL_n(q) that the limits forbid,
    before any of its work; every class walk makes these checks."""
    if n < 1:
        raise InputError("dimension must be positive")
    odd_prime_power(q)
    # GL_n(q) has at least p(n) classes (one unipotent class per partition),
    # and p(n) > p(MAX_PARTITION_WEIGHT) > MAX_CLASS_COUNT for any larger n:
    # such an n is refused before its class count is formed
    if n > MAX_PARTITION_WEIGHT or class_count(n, q) > MAX_CLASS_COUNT:
        raise ScaleLimitError(f"GL_{clip(n)}({q}) has more than {MAX_CLASS_COUNT} classes")


def enumerate_classes(n: int, q: int) -> Iterator[ClassData]:
    """All conjugacy classes of GL_n(q), streamed in a fixed order.

    The class polynomials form one list sorted by (degree, coeffs).  Each
    level of the walk gives a partition to one polynomial that lies after
    the previous level's in that list, so the depth is at most n however
    many irreducibles there are.  Scanning the list from its end down
    fixes the order in which classes are yielded.  The walk keeps one
    choice iterator per open level on an explicit stack, so a class is
    yielded from here rather than handed up through every level.
    """
    check_class_walk(n, q)
    field = field_from_order(q)
    polys: list[Poly] = []
    ends = [0]  # ends[r]: how many class polynomials have degree <= r
    for d in range(1, n + 1):
        polys.extend(_class_polys(field, d))
        ends.append(len(polys))

    def choices(remaining: int, start: int):
        """The entries one level can add, with the weight left after each
        and where the next level starts."""
        for i in range(ends[remaining] - 1, start - 1, -1):
            f = polys[i]
            d = len(f.coeffs) - 1
            for w in range(1, remaining // d + 1):
                rest = remaining - d * w
                for lam in partitions_of(w):
                    yield (f, lam), rest, i + 1

    acc: list[tuple[Poly, Partition]] = []  # one entry per level below the top
    stack = [choices(n, 0)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if acc:
                acc.pop()
            continue
        entry, rest, start = step
        if rest:
            acc.append(entry)
            stack.append(choices(rest, start))
        else:
            yield ClassData(field, (*acc, entry))


@lru_cache(maxsize=4096)
def block_centralizer_order(qd: int, lam: Partition) -> int:
    """The factor of one entry (f, lam) in a centralizer order, qd = q^deg f:
    qd^gamma(lam) times |GL_m(qd)| for each multiplicity m (1 when lam is
    empty).  Memoized: a walk meets the same few (qd, lam) on every class."""
    if lam.is_empty():
        return 1
    out = qd ** gamma_exponent(lam)
    for _, m in lam.pairs:
        out *= gl_order(m, qd)
    return out


def centralizer_order(data: ClassData) -> int:
    """|Z_{GL_n(q)}(x)|, the product of the entries' block factors."""
    q = data.field.q
    out = 1
    for f, lam in data.entries:
        out *= block_centralizer_order(q**f.degree, lam)
    return out


def class_size(data: ClassData, centralizer: int) -> int:
    """|GL_n(q)| / |Z(x)|, given centralizer = centralizer_order(data)."""
    size, rem = divmod(gl_order(data.n, data.field.q), centralizer)
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
