"""Ground truth by exhaustive enumeration of small classical matrix groups.

Groups are realized concretely: GL as all invertible matrices, U/Sp/O
as the isometries of a fixed standard form.  Every element is listed and
held as one integer code.  Multiplication by each of a few generators
(two or three for the groups of the test matrix, taken from candidates
spread through the table), on the right and on the left, is an index
permutation built from a table over row or column codes, and conjugation
by them sweeps out the conjugacy classes.  Squares and inverses are taken
by matrices once per class and carried to the rest of it by the same
conjugations: squaring fibers, conjugacy classes, reality and |s(2)| are
computed element by element with one matrix product or inverse per
class.  GL combinatorial data is recovered from explicit matrices, so
every closed form elsewhere in the package can be audited against raw
matrices.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import struct
import sys
from array import array
from collections import defaultdict
from functools import lru_cache

from .ffpoly import Field, field_from_order
from .gl_classes import ClassData, gl_order, make_class_data, representative_matrix
from .limits import (
    MAX_ENUMERATION_SPACE,
    MAX_GROUP_ORDER,
    InputError,
    ScaleLimitError,
    exceeds,
)
from .matrices import (
    Matrix,
    char_poly,
    conj_transpose,
    eval_poly_at_matrix,
    identity_matrix,
    mat_inv,
    mat_mul,
    mat_rank,
    transpose,
)
from .partitions import Partition
from .records import Record

KINDS = ("gl", "u", "sp", "o+", "o-", "o0")

CACHE_MAGIC = b"SQF1"
_CACHE_HEADER = struct.Struct("<BIIQ")  # kind code, n, q, element count
_KIND_CODES = {k: i for i, k in enumerate(KINDS)}
_MAX_CODE = 2**64  # codes are held in unsigned 64-bit arrays


class GroupSpec(Record):
    """Descriptor of an explicit matrix group.

    n is always the matrix size (so Sp_{2m} has n = 2m); q is the base
    field order, and unitary matrices live over F_{q^2}.
    """

    __slots__ = ("kind", "n", "q")

    def __init__(self, kind: str, n: int, q: int):
        if kind not in KINDS:
            raise InputError(f"unknown group kind {kind!r}")
        if n < 1:
            raise InputError("dimension must be positive")
        if kind == "sp" and n % 2:
            raise InputError("symplectic groups need even matrix size")
        if kind in ("o+", "o-") and n % 2:
            raise InputError(f"{kind} needs even matrix size")
        if kind == "o0" and n % 2 == 0:
            raise InputError("o0 needs odd matrix size")
        field_from_order(q)  # validates odd prime power
        self._set(kind, n, q)

    def matrix_field(self) -> Field:
        return field_from_order(self.q**2 if self.kind == "u" else self.q)

    def is_hermitian(self) -> bool:
        return self.kind == "u"

    def form(self) -> Matrix | None:
        """Invariant form matrix; None for GL.

        U keeps the identity Hermitian form, Sp the block form
        [[0, I], [-I, 0]]; orthogonal kinds use the identity for o+ and
        o0 and diag(1, ..., 1, nu) with nu the smallest non-square for
        o-.  For even sizes the label picks the form; the realized Witt
        type is computed separately and may differ from the sign in the
        label when -1 is a non-square.
        """
        F = self.matrix_field()
        n = self.n
        if self.kind == "gl":
            return None
        if self.kind in ("u", "o+", "o0"):
            return identity_matrix(n)
        if self.kind == "sp":
            m = n // 2
            rows = [[0] * n for _ in range(n)]
            for i in range(m):
                rows[i][m + i] = 1
                rows[m + i][i] = F.neg(1)
            return tuple(tuple(r) for r in rows)
        nu = _smallest_nonsquare(F)
        rows = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            rows[i][i] = 1
        rows[n - 1][n - 1] = nu
        return tuple(tuple(r) for r in rows)


def _smallest_nonsquare(field: Field) -> int:
    for a in range(2, field.q):
        if not field.is_square(a):
            return a
    raise RuntimeError("no non-square found")  # unreachable for odd q


def orthogonal_witt_type(field: Field, form: Matrix) -> int:
    """+1 or -1 for an even-size diagonal form: plus iff
    (-1)^(n/2) * disc is a square."""
    n = len(form)
    disc = 1
    for i in range(n):
        disc = field.mul(disc, form[i][i])
    if (n // 2) % 2:
        disc = field.mul(disc, field.neg(1))
    return 1 if field.is_square(disc) else -1


def expected_group_order(spec: GroupSpec) -> int:
    q = spec.q
    n = spec.n
    if spec.kind == "gl":
        return gl_order(n, q)
    if spec.kind == "u":
        out = q ** (n * (n - 1) // 2)
        for i in range(1, n + 1):
            out *= q**i - (-1) ** i
        return out
    if spec.kind == "sp":
        m = n // 2
        out = q ** (m * m)
        for i in range(1, m + 1):
            out *= q ** (2 * i) - 1
        return out
    if n % 2:
        m = (n - 1) // 2
        out = 2 * q ** (m * m)
        for i in range(1, m + 1):
            out *= q ** (2 * i) - 1
        return out
    field = spec.matrix_field()
    eps = orthogonal_witt_type(field, spec.form())
    m = n // 2
    out = 2 * q ** (m * (m - 1)) * (q**m - eps)
    for i in range(1, m - 1 + 1):
        out *= q ** (2 * i) - 1
    return out


class ElementTable:
    """All elements of the group as integer codes (see _encode_matrix), in
    a fixed enumeration order, with a code -> position index.

    ``matrix(i)`` decodes one element on demand.  The conjugation
    permutations and orbits (``_Walks``) that squares, inverses and the
    class list are read from are built on first use and kept on the
    table.
    """

    def __init__(self, spec: GroupSpec, field: Field, codes: array):
        self.spec = spec
        self.field = field
        self.codes = codes
        self.index = {c: i for i, c in enumerate(codes)}
        self._walks: _Walks | None = None

    def __len__(self) -> int:
        return len(self.codes)

    def encode(self, a: Matrix) -> int:
        return _encode_matrix(self.field.q, a)

    def position(self, a: Matrix) -> int:
        return self.index[self.encode(a)]

    def matrix(self, i: int) -> Matrix:
        return _decode_matrix(self.field.q, self.spec.n, self.codes[i])


def _encode_matrix(q: int, a: Matrix) -> int:
    """Row-major base-q code, first entry least significant; so also the
    base-q^n number whose digits are the row codes, row 0 lowest."""
    enc = 0
    for row in reversed(a):
        for x in reversed(row):
            enc = enc * q + x
    return enc


def _decode_matrix(q: int, n: int, enc: int) -> Matrix:
    entries = []
    for _ in range(n * n):
        enc, r = divmod(enc, q)
        entries.append(r)
    return tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n))


def _enumerate_gl(field: Field, n: int) -> array:
    """Codes of the invertible matrices, rows chosen in vector order."""
    q = field.q
    row_weight = q**n
    vectors = list(itertools.product(range(q), repeat=n))
    row_codes = [_encode_matrix(q, (v,)) for v in vectors]
    zero = vectors[0]
    out = array("Q")

    def scaled(v, c):
        return tuple(field.mul(c, x) for x in v)

    def added(u, v):
        return tuple(field.add(x, y) for x, y in zip(u, v))

    def extend(depth: int, prefix: int, span: set):
        weight = row_weight**depth
        if depth == n - 1:
            out.extend(
                prefix + c * weight for v, c in zip(vectors, row_codes) if v not in span
            )
            return
        for v, c in zip(vectors, row_codes):
            if v in span:
                continue
            child = set(span)
            for s in range(1, q):
                sv = scaled(v, s)
                child.update(added(w, sv) for w in span)
            extend(depth + 1, prefix + c * weight, child)

    extend(0, 0, {zero})
    return out


def _enumerate_isometries(spec: GroupSpec) -> array:
    """Codes of the isometries of spec.form(), columns chosen in vector
    order (the element order fixes the cache bytes and the class order)."""
    field = spec.matrix_field()
    n = spec.n
    q = field.q
    form = spec.form()
    sigma = field.conj if spec.is_hermitian() else (lambda x: x)

    def functional(u):
        # <u, w> = sum_t lam_t w_t with lam_t = sum_s sigma(u_s) F_st
        su = [sigma(x) for x in u]
        lam = []
        for t in range(n):
            acc = 0
            for s in range(n):
                if su[s] and form[s][t]:
                    acc = field.add(acc, field.mul(su[s], form[s][t]))
            lam.append(acc)
        return lam

    def dot(lam, w):
        acc = 0
        for x, y in zip(lam, w):
            if x and y:
                acc = field.add(acc, field.mul(x, y))
        return acc

    # only the vectors of a norm some column needs are kept, in vector
    # order; equal norms share one list, and a node filters each distinct
    # list once per target, so equal lists stay shared further down
    by_norm: dict[int, list[tuple[int, ...]]] = {form[k][k]: [] for k in range(n)}
    for v in itertools.product(range(q), repeat=n):
        if any(v):
            kept = by_norm.get(dot(functional(v), v))
            if kept is not None:
                kept.append(v)
    # below, a vector is its place in the union of those lists
    vectors = sorted(itertools.chain(*by_norm.values()))
    place = {v: i for i, v in enumerate(vectors)}
    lists = {c: [place[v] for v in vs] for c, vs in by_norm.items()}
    cands = [lists[form[k][k]] for k in range(n)]
    # a column v of the matrix contributes spread[v] * q^j to its code
    row_weight = q**n
    spread = [sum(x * row_weight**i for i, x in enumerate(v)) for v in vectors]
    out = array("Q")
    if n == 1:  # one column: no pairing, and no q x q table (q may be 2^20)
        out.extend(spread[w] for w in cands[0])
        return out

    # a pairing with a chosen column is evaluated on whole candidate lists
    # through flat q x q tables and per-coordinate columns of the vectors
    add_t = [field.add(a, b) for a in range(q) for b in range(q)]
    mul_t = [field.mul(a, b) for a in range(q) for b in range(q)]

    def columns(ws):
        return [[vectors[w][t] for w in ws] for t in range(n)]

    def pairings(u, cols):
        # <u, w> for every w whose coordinates cols holds
        vals = [0] * len(cols[0])
        for x, col in zip(functional(vectors[u]), cols):
            if x:
                row = mul_t[x * q : x * q + q]
                vals = [add_t[a * q + row[y]] for a, y in zip(vals, col)]
        return vals

    if n == 2:  # each first column is picked once: pair it with one list
        ws, target = cands[1], form[0][1]
        cols = columns(ws)
        for u in cands[0]:
            out.extend(
                spread[u] + spread[w] * q
                for w, c in zip(ws, pairings(u, cols)) if c == target
            )
        return out

    # n >= 3: a vector is picked under many prefixes, so its pairings with
    # every vector of the union are computed once, on its first pick, and
    # later lists are filtered by lookup (entries are below q <= 2^8, as
    # q^n <= MAX_ENUMERATION_SPACE)
    cols = columns(range(len(vectors)))
    rows: list[bytes | None] = [None] * len(vectors)

    # extend(j, prefix, cands): cands[i] lists, in vector order, the
    # vectors of the right norm for column j + i that pair correctly with
    # each of the j columns chosen so far; prefix codes those columns.
    def extend(j: int, prefix: int, cands: list[list[int]]):
        weight = q**j
        if j == n - 1:
            out.extend(prefix + spread[w] * weight for w in cands[0])
            return
        for u in cands[0]:
            row = rows[u]
            if row is None:
                row = rows[u] = bytes(pairings(u, cols))
            kept: dict[tuple[int, int], list[int]] = {}
            later = []
            for k, ws in enumerate(cands[1:], j + 1):
                key = (id(ws), form[j][k])
                if key not in kept:
                    kept[key] = [w for w in ws if row[w] == key[1]]
                later.append(kept[key])
            extend(j + 1, prefix + spread[u] * weight, later)

    extend(0, 0, cands)
    return out


def _check_limits(spec: GroupSpec) -> int:
    """The group order, after refusing with ScaleLimitError a column space
    past MAX_ENUMERATION_SPACE (checked first, so that a huge n never
    forms the order), a group past MAX_GROUP_ORDER or matrix codes that
    do not fit in the 64-bit code arrays."""
    q, n = spec.matrix_field().q, spec.n
    if exceeds(q, n, MAX_ENUMERATION_SPACE):
        raise ScaleLimitError("column space too large to enumerate")
    expected = expected_group_order(spec)
    if expected > MAX_GROUP_ORDER:
        raise ScaleLimitError(f"group order {expected} exceeds the budget {MAX_GROUP_ORDER}")
    if q ** (n * n) > _MAX_CODE:
        raise ScaleLimitError("matrix codes do not fit in 64 bits")
    return expected


def enumerate_group(spec: GroupSpec) -> ElementTable:
    """Build the full element table; rejects groups beyond the order budget."""
    expected = _check_limits(spec)
    field = spec.matrix_field()
    if spec.kind == "gl":
        codes = _enumerate_gl(field, spec.n)
    else:
        codes = _enumerate_isometries(spec)
    table = ElementTable(spec, field, codes)
    if len(codes) != expected or len(table.index) != expected:
        raise RuntimeError(
            f"{spec}: {len(table.index)} distinct of {len(codes)} codes, expected {expected}"
        )
    return table


@lru_cache(maxsize=1)
def build_table(spec: GroupSpec) -> ElementTable:
    """enumerate_group, with the last table kept: one verb needs one."""
    return enumerate_group(spec)


# -- generator walks ------------------------------------------------------------


class _Walks:
    """Conjugation by a few generators, as index permutations, and the
    conjugacy classes they sweep out.

    ``conj[a][i]`` is the position of g_a^-1 x g_a for x element i.
    ``order`` lists every position class by class, each class from its
    first element on, and ``starts`` holds where each class begins in
    it; ``parent[i]`` is the position that element i was reached from
    by ``conj[via[i]]``, or -1 for the first element of its class.
    ``inverse`` is filled on first use by ``_inverse``.
    """

    def __init__(
        self, conj: list[array], order: array, starts: array, parent: array, via: bytearray
    ):
        self.conj = conj
        self.order = order
        self.starts = starts
        self.parent = parent
        self.via = via
        self.inverse: array | None = None


def _digit_places(codes, weights: list[int], base: int) -> tuple[array, list[array]]:
    """For each weight w, the digit c // w % base of every code c, replaced
    by its place among the distinct digits of all weights (first seen,
    first placed), and those distinct digits in place order: tables then
    cover only the digits that occur (q^n may be far above |G|).  One
    weight's digits are formed at a time."""
    place = defaultdict(itertools.count().__next__)
    # an array fills faster from a list than from an iterator
    parts = [array("i", [place[c // w % base] for c in codes]) for w in weights]
    return array("i", place), parts


def _vector_table(field: Field, m: Matrix, weights: list[int], codes: array) -> list[int]:
    """t[i] = sum_j (v m)_j weights[j] for v the vector with code codes[i]
    (entry k is digit k, weight q^k): a row of x m from the row of x,
    or, with m the transpose of h, a column of h x from the column of
    x."""
    q, n = field.q, len(m)
    vectors = [[r // q**k % q for k in range(n)] for r in codes]
    return [sum(map(operator.mul, vm, weights)) for vm in mat_mul(field, vectors, m)]


def _check_member(spec: GroupSpec, field: Field, g: Matrix) -> None:
    """Raise InputError unless g lies in the group: invertible for GL,
    preserving the form for U/Sp/O."""
    form = spec.form()
    if form is None:
        try:
            mat_inv(field, g)
        except ZeroDivisionError:
            raise InputError("an element is singular") from None
        return
    adj = conj_transpose(field, g) if spec.is_hermitian() else transpose(g)
    if mat_mul(field, mat_mul(field, adj, form), g) != form:
        raise InputError("an element does not preserve the form")


def _generator_stride(total: int) -> int:
    """The step between generator candidates: about 0.382 |G| (1/phi^2),
    moved up to the next integer prime to |G|, so that the candidates
    stride, 2 stride, ... (mod |G|) visit every index once.  Neighbours in
    the table share all but their last column, and so mostly lie in the
    subgroup already reached; candidates spread through it do not."""
    stride = max(1, (382 * total + 500) // 1000)
    while math.gcd(stride, total) != 1:
        stride += 1
    return stride


def _build_walks(table: ElementTable) -> _Walks:
    """Generators taken greedily from candidates spread through the table
    (see _generator_stride), closed up from the identity by right
    multiplication; then conjugation by each of them, x -> g^-1 x g, and
    its orbits, each from its least index on.

    This also proves that the codes are the group: every generator is
    checked to lie in it, every product of an element by a generator
    must be an element, and the closure from the identity must reach
    every code; with |G| distinct codes that makes the set G.
    InputError otherwise.
    """
    spec, field, codes, index = table.spec, table.field, table.codes, table.index
    n, q, total = spec.n, field.q, len(codes)
    row_weight = q**n
    if max(codes) >= row_weight**n:
        raise InputError("a code is not a matrix")
    identity = index.get(_encode_matrix(q, identity_matrix(n)))
    if identity is None:
        raise InputError("the identity is missing")
    # x g is a sum over the rows of x, h x over its columns
    row_weights = [row_weight**i for i in range(n)]
    col_weights = [q**j for j in range(n)]
    row_codes, rows = _digit_places(codes, row_weights, row_weight)

    def perm(parts, weights, t) -> list[int]:
        acc = map(t.__getitem__, parts[0])
        for w, part in zip(weights[1:], parts[1:]):
            tw = [c * w for c in t]
            acc = map(operator.add, acc, map(tw.__getitem__, part))
        try:
            return list(map(index.__getitem__, acc))
        except KeyError:
            raise InputError("a product of two elements is not an element") from None

    gens: list[Matrix] = []
    right: list[list[int]] = []
    reached = bytearray(total)
    reached[identity] = 1
    members = [identity]
    stride = _generator_stride(total)
    for step in range(1, total + 1):
        if len(members) == total:
            break
        cand = step * stride % total
        if reached[cand]:
            continue
        g = table.matrix(cand)
        _check_member(spec, field, g)
        r = perm(rows, row_weights, _vector_table(field, g, col_weights, row_codes))
        gens.append(g)
        right.append(r)
        # the old members need only the new generator, new ones all of them
        frontier = []
        for x in members:
            y = r[x]
            if not reached[y]:
                reached[y] = 1
                frontier.append(y)
        while frontier:
            members += frontier
            nxt = []
            for p in right:
                for y in map(p.__getitem__, frontier):
                    if not reached[y]:
                        reached[y] = 1
                        nxt.append(y)
            frontier = nxt
    del members

    # a row code with its digit k moved to weight q^(kn): the row as a column
    spread = [sum(r // q**k % q * row_weight**k for k in range(n)) for r in row_codes]
    flipped = map(spread.__getitem__, rows[0])
    for w, row in zip(col_weights[1:], rows[1:]):
        flipped = map(operator.add, flipped, map(w.__mul__, map(spread.__getitem__, row)))
    flipped = array("Q", flipped)
    del rows, spread
    col_codes, cols = _digit_places(flipped, row_weights, row_weight)
    del flipped
    conj = []
    for a, g in enumerate(gens):  # each permutation is dropped once composed
        h = transpose(mat_inv(field, g))
        left = perm(cols, col_weights, _vector_table(field, h, row_weights, col_codes))
        conj.append(array("i", map(left.__getitem__, right[a])))
        right[a] = left = None
    del cols
    order = array("i")
    starts = array("i")
    parent = array("i", bytes(4 * total))
    via = bytearray(total)
    steps = list(enumerate(conj))
    # reached is all ones: cleared as classes form, each from its least
    # position on, and grown one generator at a time
    start = reached.find(1)
    while start >= 0:
        reached[start] = 0
        parent[start] = -1
        starts.append(len(order))
        orbit = [start]
        frontier = orbit
        while frontier:
            nxt = []
            for a, c in steps:
                for x, y in zip(frontier, map(c.__getitem__, frontier)):
                    if reached[y]:
                        reached[y] = 0
                        parent[y] = x
                        via[y] = a
                        nxt.append(y)
            orbit += nxt
            frontier = nxt
        order.extend(orbit)
        start = reached.find(1, start)
    return _Walks(conj, order, starts, parent, via)


def _walks(table: ElementTable) -> _Walks:
    if table._walks is None:
        table._walks = _build_walks(table)
    return table._walks


def _class_map(table: ElementTable, f) -> array:
    """out[i] = position of f(element i), for an f that commutes with
    conjugation (squaring, inversion): f is applied to the first element
    of each class, and g^-1 f(x) g = f(g^-1 x g) carries it along the
    orbit tree."""
    w = _walks(table)
    conj, parent, via = w.conj, w.parent, w.via
    out = array("i", bytes(4 * len(table)))
    for x in w.order:
        p = parent[x]
        out[x] = table.position(f(table.matrix(x))) if p < 0 else conj[via[x]][out[p]]
    return out


def _inverse(table: ElementTable) -> array:
    """inverse[i] = position of element i^-1."""
    w = _walks(table)
    if w.inverse is None:
        w.inverse = _class_map(table, lambda a: mat_inv(table.field, a))
    return w.inverse


def square_fiber_counts(table: ElementTable) -> list[int]:
    """fiber[i] = |{g : g^2 = element i}|; the counts sum to |G|."""
    counts = [0] * len(table)
    for y in _class_map(table, lambda a: mat_mul(table.field, a, a)):
        counts[y] += 1
    return counts


def inverse_positions(table: ElementTable) -> list[int]:
    return list(_inverse(table))


def conjugacy_classes(table: ElementTable) -> tuple[tuple[int, ...], ...]:
    """Orbits of the conjugation action, as sorted index tuples ordered by
    first element."""
    w = _walks(table)
    bounds = [*w.starts, len(table)]
    return tuple(tuple(sorted(w.order[a:b])) for a, b in zip(bounds, bounds[1:]))


def real_classes_oracle(
    classes: tuple[tuple[int, ...], ...], inverse: list[int]
) -> int:
    """Number of conjugacy classes containing the inverses of their members,
    from conjugacy_classes and inverse_positions of one table."""
    class_id = [0] * len(inverse)
    for cid, cls in enumerate(classes):
        for idx in cls:
            class_id[idx] = cid
    return sum(1 for cls in classes if class_id[inverse[cls[0]]] == class_id[cls[0]])


def s2_oracle(fibers: list[int], inverse: list[int]) -> int:
    """|{(g, h) : g^2 h^2 = 1}| = sum over beta of fiber(beta) * fiber(beta^(-1)),
    from square_fiber_counts and inverse_positions of one table."""
    return sum(f * fibers[inverse[i]] for i, f in enumerate(fibers) if f)


def class_data_of_element(field: Field, a: Matrix) -> ClassData:
    """Recover the GL combinatorial data of an invertible matrix.

    Factors the characteristic polynomial; for each irreducible factor f
    the Jordan multiplicities come out of the rank sequence of powers of
    f(A): m_j = (r_{j-1} - 2 r_j + r_{j+1}) / deg f.
    """
    from .ffpoly import factorize

    n = len(a)
    cp = char_poly(field, a)
    if cp.constant_term() == 0:
        raise InputError("matrix is singular")
    entries = []
    for f, mult in factorize(cp):
        d = f.degree
        fa = eval_poly_at_matrix(field, f, a)
        ranks = [n]
        power = identity_matrix(n)
        for _ in range(mult + 1):
            power = mat_mul(field, power, fa)
            ranks.append(mat_rank(field, power))
        pairs = []
        for j in range(1, mult + 1):
            m_j, rem = divmod(ranks[j - 1] - 2 * ranks[j] + ranks[j + 1], d)
            if rem:
                raise RuntimeError(f"the rank sequence of f(A), f = {f}, is not divisible by {d}")
            if m_j:
                pairs.append((j, m_j))
        entries.append((f, Partition(tuple(pairs))))
    data = make_class_data(field, entries)
    if data.n != n:
        raise RuntimeError(f"class data of weight {data.n} for a {n} x {n} matrix")
    return data


def representative_index(table: ElementTable, data: ClassData) -> int:
    """Index of the canonical class representative inside the table."""
    return table.position(representative_matrix(data))


def _cache_width(spec: GroupSpec) -> int:
    """Bytes per packed element encoding in a table cache."""
    q = spec.matrix_field().q
    return max(1, (int(q ** (spec.n**2) - 1).bit_length() + 7) // 8)


def _pack_codes(codes: array, width: int) -> bytes:
    """The codes as little-endian integers of width bytes each: bytes j
    of each 8-byte code, for j < width, copied by one strided slice each.
    OverflowError for a code that does not fit in width bytes."""
    if width < 8 and codes and max(codes) >> 8 * width:
        raise OverflowError(f"a code does not fit in {width} bytes")
    wide = array("Q", codes)
    if sys.byteorder == "big":
        wide.byteswap()
    raw = wide.tobytes()
    if width == 8:
        return raw
    out = bytearray(len(wide) * width)
    for j in range(width):
        out[j::width] = raw[j::8]
    return bytes(out)


def _unpack_codes(raw: bytes, width: int) -> array:
    """Inverse of _pack_codes, for len(raw) a multiple of width."""
    wide = bytearray(len(raw) // width * 8)
    for j in range(width):
        wide[j::8] = raw[j::width]
    codes = array("Q")
    codes.frombytes(wide)
    if sys.byteorder == "big":
        codes.byteswap()
    return codes


def save_table(table: ElementTable, path: str) -> None:
    """Versioned binary cache: magic, header (kind, n, q, count), then the
    packed little-endian element codes at fixed width.  Written to a
    temporary file beside path, then moved into place."""
    spec = table.spec
    width = _cache_width(spec)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(_CACHE_HEADER.pack(_KIND_CODES[spec.kind], spec.n, spec.q, len(table)))
            fh.write(_pack_codes(table.codes, width))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_table(spec: GroupSpec, path: str) -> ElementTable:
    """Read a cache written by save_table.  The header must match spec,
    the file must hold exactly the element count it declares, and the
    codes must be the group (checked through its generators, see
    _build_walks); InputError otherwise, and before any open when path is
    not a regular file (a FIFO would block the open).  A group that
    enumerate_group would refuse is refused first, with ScaleLimitError."""
    expected = _check_limits(spec)
    if not os.path.isfile(path):
        raise InputError(f"cache {path} is not a regular file")
    width = _cache_width(spec)
    with open(path, "rb") as fh:
        if fh.read(4) != CACHE_MAGIC:
            raise InputError(f"{path} is not a group-table cache")
        header = fh.read(_CACHE_HEADER.size)
        if len(header) != _CACHE_HEADER.size:
            raise InputError(f"cache {path} is truncated inside its header")
        kind_code, n, base_q, count = _CACHE_HEADER.unpack(header)
        if (kind_code, n, base_q) != (_KIND_CODES[spec.kind], spec.n, spec.q):
            raise InputError(f"cache {path} was built for a different group")
        if count != expected:
            raise InputError(f"cache {path} declares {count} elements, not {expected}")
        expected_size = len(CACHE_MAGIC) + _CACHE_HEADER.size + count * width
        if os.fstat(fh.fileno()).st_size != expected_size:
            raise InputError(
                f"cache {path} does not hold the {count} elements its header declares"
            )
        raw = fh.read()
    codes = _unpack_codes(raw, width)
    table = ElementTable(spec, spec.matrix_field(), codes)
    if len(table.index) != len(codes):
        raise InputError(f"cache {path} is corrupt")
    try:
        _walks(table)
    except InputError as exc:
        raise InputError(f"cache {path} is not the group: {exc}") from None
    return table
