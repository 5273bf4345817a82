"""Ground truth by exhaustive enumeration of small classical matrix groups.

Groups are realized concretely: GL as all invertible matrices, U/Sp/O
as the isometries of a fixed standard form.  Squaring fibers, conjugacy
classes, reality and |s(2)| are computed element by element, and GL
combinatorial data is recovered from explicit matrices, so every closed
form elsewhere in the package can be audited against raw matrices.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .ffpoly import Field, field_from_order
from .gl_classes import ClassData, gl_order, make_class_data, representative_matrix
from .limits import (
    HARD_GROUP_ORDER,
    MAX_ENUMERATION_SPACE,
    MAX_GROUP_ORDER,
    InputError,
    ScaleLimitError,
)
from .matrices import (
    Matrix,
    char_poly,
    eval_poly_at_matrix,
    identity_matrix,
    mat_inv,
    mat_mul,
    mat_rank,
)
from .partitions import Partition

KINDS = ("gl", "u", "sp", "o+", "o-", "o0")

CACHE_MAGIC = b"SQF1"
_KIND_CODES = {k: i for i, k in enumerate(KINDS)}


@dataclass(frozen=True)
class GroupSpec:
    """Descriptor of an explicit matrix group.

    n is always the matrix size (so Sp_{2m} has n = 2m); q is the base
    field order, and unitary matrices live over F_{q^2}.
    """

    kind: str
    n: int
    q: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown group kind {self.kind!r}")
        if self.n < 1:
            raise InputError("dimension must be positive")
        if self.kind == "sp" and self.n % 2:
            raise InputError("symplectic groups need even matrix size")
        if self.kind in ("o+", "o-") and self.n % 2:
            raise InputError(f"{self.kind} needs even matrix size")
        if self.kind == "o0" and self.n % 2 == 0:
            raise InputError("o0 needs odd matrix size")
        field_from_order(self.q)  # validates odd prime power

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


@dataclass(frozen=True)
class ElementTable:
    """All elements of the group, in a fixed enumeration order, with an
    encoding index for O(1) membership and lookup."""

    spec: GroupSpec
    field: Field
    elements: tuple[Matrix, ...]
    index: dict[int, int] = dc_field(compare=False, hash=False, repr=False, default=None)

    def __len__(self) -> int:
        return len(self.elements)

    def encode(self, a: Matrix) -> int:
        return _encode_matrix(self.field.q, a)

    def position(self, a: Matrix) -> int:
        return self.index[self.encode(a)]


def _encode_matrix(q: int, a: Matrix) -> int:
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


def _enumerate_gl(field: Field, n: int) -> list[Matrix]:
    q = field.q
    vectors = list(itertools.product(range(q), repeat=n))
    zero = vectors[0]
    out: list[Matrix] = []

    def scaled(v, c):
        return tuple(field.mul(c, x) for x in v)

    def added(u, v):
        return tuple(field.add(x, y) for x, y in zip(u, v))

    def extend(rows: list, span: set):
        depth = len(rows)
        if depth == n - 1:
            for v in vectors:
                if v not in span:
                    out.append(tuple(rows) + (v,))
            return
        for v in vectors:
            if v in span:
                continue
            child = set(span)
            for c in range(1, q):
                cv = scaled(v, c)
                child.update(added(s, cv) for s in span)
            rows.append(v)
            extend(rows, child)
            rows.pop()

    if n == 1:
        return [((a,),) for a in range(1, q)]
    extend([], {zero})
    return out


def _enumerate_isometries(spec: GroupSpec) -> list[Matrix]:
    field = spec.matrix_field()
    n = spec.n
    q = field.q
    form = spec.form()
    hermitian = spec.is_hermitian()
    vectors = [v for v in itertools.product(range(q), repeat=n) if any(v)]

    def form_vec(v):
        # w = F v, so that <u, v> = sum sigma(u_s) w_s
        out = []
        for i in range(n):
            acc = 0
            for j in range(n):
                c = form[i][j]
                if c and v[j]:
                    acc = field.add(acc, field.mul(c, v[j]))
            out.append(acc)
        return tuple(out)

    fvecs = [form_vec(v) for v in vectors]

    def pairing(u, fv):
        acc = 0
        if hermitian:
            for x, y in zip(u, fv):
                if x and y:
                    acc = field.add(acc, field.mul(field.conj(x), y))
        else:
            for x, y in zip(u, fv):
                if x and y:
                    acc = field.add(acc, field.mul(x, y))
        return acc

    norm_map: dict[int, list[int]] = {}
    for idx, v in enumerate(vectors):
        norm_map.setdefault(pairing(v, fvecs[idx]), []).append(idx)

    out: list[Matrix] = []
    cols: list[int] = []

    def extend(j: int):
        if j == n:
            chosen = [vectors[i] for i in cols]
            out.append(tuple(tuple(chosen[c][r] for c in range(n)) for r in range(n)))
            return
        for idx in norm_map.get(form[j][j], ()):
            fv = fvecs[idx]
            if all(pairing(vectors[cols[i]], fv) == form[i][j] for i in range(j)):
                cols.append(idx)
                extend(j + 1)
                cols.pop()

    extend(0)
    return out


def enumerate_group(
    spec: GroupSpec, max_order: int = MAX_GROUP_ORDER, override: bool = False
) -> ElementTable:
    """Build the full element table; rejects groups beyond the order budget
    (hard ceiling 10^7 even with override=True)."""
    expected = expected_group_order(spec)
    ceiling = HARD_GROUP_ORDER if override else max_order
    if expected > ceiling:
        raise ScaleLimitError(
            f"group order {expected} exceeds the budget {ceiling}"
        )
    field = spec.matrix_field()
    if field.q**spec.n > MAX_ENUMERATION_SPACE:
        raise ScaleLimitError("column space too large to enumerate")
    if spec.kind == "gl":
        elements = _enumerate_gl(field, spec.n)
    else:
        elements = _enumerate_isometries(spec)
    if len(elements) != expected:
        raise RuntimeError(
            f"enumerated {len(elements)} elements of {spec}, expected {expected}"
        )
    index = {_encode_matrix(field.q, a): i for i, a in enumerate(elements)}
    assert len(index) == len(elements)
    return ElementTable(spec, field, tuple(elements), index)


@lru_cache(maxsize=16)
def build_table(spec: GroupSpec) -> ElementTable:
    """Cached enumerate_group for the small test matrix of groups."""
    return enumerate_group(spec)


def square_fiber_counts(table: ElementTable) -> list[int]:
    """fiber[i] = |{g : g^2 = elements[i]}|; the counts sum to |G|."""
    field = table.field
    counts = [0] * len(table.elements)
    index = table.index
    q = field.q
    for a in table.elements:
        sq = mat_mul(field, a, a)
        counts[index[_encode_matrix(q, sq)]] += 1
    assert sum(counts) == len(table.elements)
    return counts


def inverse_positions(table: ElementTable) -> list[int]:
    field = table.field
    q = field.q
    return [
        table.index[_encode_matrix(q, mat_inv(field, a))] for a in table.elements
    ]


def _generating_set(table: ElementTable) -> list[Matrix]:
    """Small deterministic generating set, grown until closure is the
    whole table; each new generator at least doubles the closure."""
    field = table.field
    q = field.q
    total = len(table.elements)
    ident = identity_matrix(table.spec.n)
    gens: list[Matrix] = []
    closure = {_encode_matrix(q, ident)}
    for a in table.elements:
        if len(closure) == total:
            break
        if _encode_matrix(q, a) in closure:
            continue
        gens.append(a)
        frontier = list(closure)
        while frontier:
            nxt = []
            for enc in frontier:
                m = table.elements[table.index[enc]]
                for g in gens:
                    prod = _encode_matrix(q, mat_mul(field, m, g))
                    if prod not in closure:
                        closure.add(prod)
                        nxt.append(prod)
            frontier = nxt
    assert len(closure) == total
    return gens


def conjugacy_classes(table: ElementTable) -> tuple[tuple[int, ...], ...]:
    """Orbits of the conjugation action, as sorted index tuples ordered by
    first element."""
    field = table.field
    q = field.q
    gens = _generating_set(table)
    pairs = [(g, mat_inv(field, g)) for g in gens]
    assigned = [False] * len(table.elements)
    classes = []
    for start in range(len(table.elements)):
        if assigned[start]:
            continue
        orbit = {start}
        frontier = [start]
        assigned[start] = True
        while frontier:
            idx = frontier.pop()
            x = table.elements[idx]
            for g, ginv in pairs:
                y = mat_mul(field, mat_mul(field, g, x), ginv)
                pos = table.index[_encode_matrix(q, y)]
                if pos not in orbit:
                    orbit.add(pos)
                    assigned[pos] = True
                    frontier.append(pos)
        classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def real_classes_oracle(table: ElementTable) -> int:
    """Number of conjugacy classes containing the inverses of their members."""
    classes = conjugacy_classes(table)
    class_id = [0] * len(table.elements)
    for cid, cls in enumerate(classes):
        for idx in cls:
            class_id[idx] = cid
    inv = inverse_positions(table)
    return sum(1 for cls in classes if class_id[inv[cls[0]]] == class_id[cls[0]])


def s2_oracle(table: ElementTable) -> int:
    """|{(g, h) : g^2 h^2 = 1}| = sum over beta of fiber(beta) * fiber(beta^(-1))."""
    fibers = square_fiber_counts(table)
    inv = inverse_positions(table)
    return sum(f * fibers[inv[i]] for i, f in enumerate(fibers) if f)


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
            assert rem == 0
            if m_j:
                pairs.append((j, m_j))
        entries.append((f, Partition(tuple(pairs))))
    data = make_class_data(field, entries)
    assert data.n == n
    return data


def representative_index(table: ElementTable, data: ClassData) -> int:
    """Index of the canonical class representative inside the table."""
    rep = representative_matrix(data)
    return table.index[_encode_matrix(table.field.q, rep)]


def save_table(table: ElementTable, path: str) -> None:
    """Versioned binary cache: magic, header (kind, n, q, count), then the
    packed little-endian element encodings at fixed width."""
    q = table.field.q
    width = max(1, (int(q**(table.spec.n ** 2) - 1).bit_length() + 7) // 8)
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(
            struct.pack(
                "<BIIQ", _KIND_CODES[table.spec.kind], table.spec.n, table.spec.q, len(table.elements)
            )
        )
        for a in table.elements:
            fh.write(_encode_matrix(q, a).to_bytes(width, "little"))


def load_table(spec: GroupSpec, path: str) -> ElementTable:
    """Read a cache written by save_table; the header must match spec."""
    field = spec.matrix_field()
    q = field.q
    width = max(1, (int(q**(spec.n ** 2) - 1).bit_length() + 7) // 8)
    with open(path, "rb") as fh:
        if fh.read(4) != CACHE_MAGIC:
            raise InputError(f"{path} is not a group-table cache")
        kind_code, n, base_q, count = struct.unpack("<BIIQ", fh.read(17))
        if (kind_code, n, base_q) != (_KIND_CODES[spec.kind], spec.n, spec.q):
            raise InputError(f"cache {path} was built for a different group")
        elements = []
        for _ in range(count):
            enc = int.from_bytes(fh.read(width), "little")
            elements.append(_decode_matrix(q, n, enc))
    index = {_encode_matrix(q, a): i for i, a in enumerate(elements)}
    if len(index) != len(elements) or len(elements) != expected_group_order(spec):
        raise InputError(f"cache {path} is corrupt")
    return ElementTable(spec, field, tuple(elements), index)
