"""Square-map structure on conjugacy classes.

The forward map sends the class of g to the class of g^2; the backward
direction enumerates the classes of square roots and counts the exact
fiber size through centralizer indices.  A verbatim evaluator of the
published closed-form product is kept alongside purely so audits can
compare it against the centralizer-index count and the brute-force
oracle; the closed form is known to disagree and the audit output is
the deliverable, not a bug.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .ffpoly import Poly, conj_reciprocal, minimal_polynomial_of_power, reciprocal
from .gl_classes import (
    ClassData,
    centralizer_order,
    class_size,
    enumerate_classes,
    gl_order,
    make_class_data,
)
from .limits import InputError
from .partitions import Partition, halve_multiplicities
from .power_poly import (
    ReciprocalFamily,
    SkewTwoPower,
    TwoPower,
    classify2,
    classify2_star,
    classify2_tilde,
)


@dataclass(frozen=True)
class SquareRootClassList:
    """The classes whose square is the base class."""

    base: ClassData
    roots: tuple[ClassData, ...]

    @property
    def count(self) -> int:
        """Exact fiber size of the square map at any element of the base
        class: the sum of centralizer indices [Z(alpha) : Z(g)] over roots."""
        base = centralizer_order(self.base)
        total = 0
        for root in self.roots:
            idx, rem = divmod(base, centralizer_order(root))
            if rem:
                raise RuntimeError("root centralizer does not divide the base centralizer")
            total += idx
        return total


class ClosedFormUndefined(Exception):
    """The printed closed form does not evaluate on this class
    (fractional exponent or half-integral block size)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class AuditRecord:
    subject: str
    values: tuple[tuple[str, str], ...]
    mismatches: tuple[str, ...]


@dataclass(frozen=True)
class AuditReport:
    scope: str
    records: tuple[AuditRecord, ...]

    @property
    def flagged(self) -> int:
        return sum(1 for r in self.records if r.mismatches)

    @property
    def clean(self) -> int:
        return len(self.records) - self.flagged


def square_class(data: ClassData) -> ClassData:
    """Class of g^2 for g in the given class.

    Per entry (P, mu): with P' the minimal polynomial of beta^2 for beta
    a root of P, the entry contributes (P', mu) when deg P' = deg P and
    (P', mu doubled) when deg P' = deg P / 2; contributions landing on
    the same polynomial merge by adding multiplicities.  In odd
    characteristic squaring is a bijection on unipotent parts, which is
    the deg-preserved case with P = P' = x - 1.
    """
    merged: dict[Poly, dict[int, int]] = {}

    def contribute(poly: Poly, pairs):
        slot = merged.setdefault(poly, {})
        for part, mult in pairs:
            slot[part] = slot.get(part, 0) + mult

    for f, lam in data.entries:
        fp = minimal_polynomial_of_power(f, 2)
        if fp.degree == f.degree:
            cls = classify2(fp)
            assert isinstance(cls, TwoPower) and f in (cls.f1, cls.f2), (
                "degree-preserving square is not a two-power factor"
            )
            contribute(fp, lam.pairs)
        else:
            assert 2 * fp.degree == f.degree, "square dropped degree by more than half"
            cls = classify2(fp)
            assert isinstance(cls, SkewTwoPower) and cls.f_of_x2 == f, (
                "degree-halving square is not the skew preimage"
            )
            contribute(fp, ((part, 2 * mult) for part, mult in lam.pairs))
    entries = [
        (poly, Partition(tuple(sorted(parts.items())))) for poly, parts in merged.items()
    ]
    return make_class_data(data.field, entries)


def has_square_root_gl(data: ClassData) -> bool:
    """True iff every entry is a two-power polynomial, or a skew two-power
    polynomial whose partition has all multiplicities even."""
    for f, lam in data.entries:
        cls = classify2(f)
        if isinstance(cls, TwoPower):
            continue
        if not lam.all_multiplicities_even():
            return False
    return True


def square_root_classes(data: ClassData) -> SquareRootClassList:
    """All classes g with g^2 in the base class.

    Skew entries halve their multiplicities (or kill the fiber when odd);
    two-power entries distribute each multiplicity between the two
    factors of f(x^2), enumerated in lexicographic order of the
    f1-multiplicity vector.
    """
    per_entry: list[list[tuple[tuple[Poly, Partition], ...]]] = []
    for f, lam in data.entries:
        cls = classify2(f)
        if isinstance(cls, SkewTwoPower):
            if not lam.all_multiplicities_even():
                return SquareRootClassList(data, ())
            per_entry.append([((cls.f_of_x2, halve_multiplicities(lam)),)])
            continue
        choices = []
        parts = [p for p, _ in lam.pairs]
        mults = [m for _, m in lam.pairs]
        for vec in itertools.product(*(range(m + 1) for m in mults)):
            first = tuple((p, v) for p, v in zip(parts, vec) if v)
            second = tuple((p, m - v) for p, m, v in zip(parts, mults, vec) if m - v)
            contrib = []
            if first:
                contrib.append((cls.f1, Partition(first)))
            if second:
                contrib.append((cls.f2, Partition(second)))
            choices.append(tuple(contrib))
        per_entry.append(choices)
    roots = []
    for combo in itertools.product(*per_entry):
        entries = [pair for contrib in combo for pair in contrib]
        candidate = make_class_data(data.field, entries)
        assert square_class(candidate) == data, "square root candidate fails to square back"
        roots.append(candidate)
    assert len(set(roots)) == len(roots)
    return SquareRootClassList(data, tuple(roots))


def count_square_roots(data: ClassData) -> int:
    """Exact fiber size of the square map at any element of the class."""
    return square_root_classes(data).count


def closed_form_count(data: ClassData) -> int:
    """The published closed-form product, evaluated exactly as printed.

    Two-power entries get q^gamma(lam) * prod_j |GL_{m_j}(q^d)| /
    |GL_{m_j/2}(q^(2d))| with gamma(lam) = sum_{u<v} 3*u*m_u*m_v/4 +
    sum_{u>=2} 3*(u-1)*m_u^2/4; skew entries get 2^(distinct parts) - 1.
    No correctness is claimed: fractional exponents or half-integral
    block sizes raise ClosedFormUndefined instead of being rounded,
    and audits compare the value against the centralizer-index count.
    """
    if not has_square_root_gl(data):
        raise InputError("class has no square root")
    q = data.field.q
    total = Fraction(1)
    for f, lam in data.entries:
        cls = classify2(f)
        if isinstance(cls, SkewTwoPower):
            total *= 2 ** len(lam.pairs) - 1
            continue
        gamma = Fraction(0)
        pairs = lam.pairs
        for u_idx, (u, m_u) in enumerate(pairs):
            if u >= 2:
                gamma += Fraction(3 * (u - 1) * m_u * m_u, 4)
            for v, m_v in pairs[u_idx + 1 :]:
                gamma += Fraction(3 * u * m_u * m_v, 4)
        if gamma.denominator != 1:
            raise ClosedFormUndefined(f"fractional exponent gamma = {gamma}")
        d = f.degree
        ratio = Fraction(1)
        for _, m in pairs:
            if m % 2:
                raise ClosedFormUndefined(
                    f"half-integral block size m/2 = {Fraction(m, 2)}"
                )
            ratio *= Fraction(gl_order(m, q**d), gl_order(m // 2, q ** (2 * d)))
        total *= Fraction(q) ** int(gamma) * ratio
    if total.denominator != 1:
        raise ClosedFormUndefined(f"non-integral product {total}")
    return int(total)


def _check_closed(data: ClassData, pairing, label: str) -> None:
    entmap = data.as_dict()
    for f, lam in data.entries:
        partner = pairing(f)
        if partner != f and entmap.get(partner) != lam:
            raise InputError(
                f"data is not {label}-consistent: {f} lacks partner with equal partition"
            )


def has_square_root_unitary(data: ClassData) -> bool:
    """Square-root existence in the unitary group, from GL-level data over
    the square-order field.

    Self-conjugate entries must be tilde-power, or tilde-skew with all
    multiplicities even; non-self-conjugate entries (which come in
    conjugate pairs with equal partitions) follow the plain two-power
    dichotomy.
    """
    if data.field.k % 2:
        raise InputError("unitary data must live over a square-order field")
    _check_closed(data, conj_reciprocal, "conjugate")
    for f, lam in data.entries:
        if conj_reciprocal(f) == f:
            family = classify2_tilde(f)
            if family is ReciprocalFamily.POWER:
                continue
            if family is ReciprocalFamily.SKEW and lam.all_multiplicities_even():
                continue
            return False
        else:
            cls = classify2(f)
            if isinstance(cls, TwoPower):
                continue
            if lam.all_multiplicities_even():
                continue
            return False
    return True


def has_square_root_symplectic(data: ClassData) -> bool:
    """Square-root existence in the symplectic group, evaluated verbatim
    from the published criterion.

    Unipotent entries always pass; any x+1 entry forces False; other
    self-reciprocal entries must be star-power or star-skew with even
    multiplicities, and non-self-reciprocal ones follow the two-power
    dichotomy.  The oracle is authoritative; audits flag the -1
    eigenvalue clause, which disagrees with it.
    """
    F = data.field
    x_minus_one = Poly(F, (F.neg(1), 1))
    x_plus_one = Poly(F, (1, 1))
    rest = [(f, lam) for f, lam in data.entries if f not in (x_minus_one, x_plus_one)]
    entmap = dict(rest)
    for f, lam in rest:
        partner = reciprocal(f)
        if partner != f and entmap.get(partner) != lam:
            raise InputError("data is not symplectic-consistent")
    for f, lam in data.entries:
        if f == x_minus_one:
            continue
        if f == x_plus_one:
            return False
        if reciprocal(f) == f:
            family = classify2_star(f)
            if family is ReciprocalFamily.POWER:
                continue
            if family is ReciprocalFamily.SKEW and lam.all_multiplicities_even():
                continue
            return False
        cls = classify2(f)
        if isinstance(cls, TwoPower):
            continue
        if lam.all_multiplicities_even():
            continue
        return False
    return True


def audit_square_counts(n: int, q: int, include_oracle: bool = True) -> AuditReport:
    """Per-class comparison of the centralizer-index count, the printed
    closed form, the existence predicate, and (optionally) the exhaustive
    oracle fiber.  Disagreements are recorded, never raised."""
    records = []
    oracle_fibers = None
    table = None
    if include_oracle:
        from .brute_oracle import GroupSpec, build_table, square_fiber_counts

        table = build_table(GroupSpec("gl", n, q))
        oracle_fibers = square_fiber_counts(table)
    for data in enumerate_classes(n, q):
        count = count_square_roots(data)
        exists = has_square_root_gl(data)
        values = [
            ("class_size", str(class_size(data))),
            ("centralizer_index_sum", str(count)),
            ("has_square_root", str(exists).lower()),
        ]
        mismatches = []
        if exists:
            try:
                closed = closed_form_count(data)
                values.append(("closed_form", str(closed)))
                if closed != count:
                    mismatches.append(
                        f"closed form gives {closed}, centralizer-index sum gives {count}"
                    )
            except ClosedFormUndefined as exc:
                values.append(("closed_form", f"undefined: {exc.reason}"))
                mismatches.append(f"closed form undefined: {exc.reason}")
        else:
            values.append(("closed_form", "n/a (no square root)"))
        if exists != (count > 0):
            mismatches.append("existence predicate disagrees with the count")
        if include_oracle:
            from .brute_oracle import representative_index

            fiber = oracle_fibers[representative_index(table, data)]
            values.append(("oracle_fiber", str(fiber)))
            if fiber != count:
                mismatches.append(
                    f"oracle fiber {fiber} != centralizer-index sum {count}"
                )
        records.append(AuditRecord(str(data), tuple(values), tuple(mismatches)))
    return AuditReport(f"gl n={n} q={q} square-map audit", tuple(records))


def audit_existence(kind: str, predicate, n: int, q: int) -> AuditReport:
    """Existence predicate vs oracle on every class of the group of the
    given kind: "sp" for Sp_n(q), "u" for U_n(q^2), n the matrix size.
    On Sp the -I class is expected to be flagged."""
    from .brute_oracle import (
        GroupSpec,
        build_table,
        class_data_of_element,
        conjugacy_classes,
        square_fiber_counts,
    )

    spec = GroupSpec(kind, n, q)
    table = build_table(spec)
    fibers = square_fiber_counts(table)
    records = []
    for cls in conjugacy_classes(table):
        rep = table.elements[cls[0]]
        data = class_data_of_element(table.field, rep)
        predicted = predicate(data)
        actual = fibers[cls[0]] > 0
        mismatches = ()
        if predicted != actual:
            mismatches = (
                f"criterion says {str(predicted).lower()}, oracle fiber is {fibers[cls[0]]}",
            )
        records.append(
            AuditRecord(
                str(data),
                (
                    ("class_size", str(len(cls))),
                    ("criterion", str(predicted).lower()),
                    ("oracle_fiber", str(fibers[cls[0]])),
                ),
                mismatches,
            )
        )
    return AuditReport(f"{kind} n={n} q={q} square-root existence audit", tuple(records))
