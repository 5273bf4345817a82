"""Square-map structure on conjugacy classes.

The forward map sends the class of g to the class of g^2; the backward
direction enumerates the classes of square roots, whose centralizer
indices sum to the fiber size, and, on a separate route, counts the
fiber as a product of per-entry block values decided by root orders.  A
verbatim evaluator of the published closed-form product is kept
alongside purely so audits can compare it against the centralizer-index
count and the brute-force oracle; the closed form is known to disagree
and the audit output is the deliverable, not a bug.  The audits
themselves are in :mod:`squarefibers.audits`.  A failed cross-check
raises RuntimeError, under ``python -O`` too.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .ffpoly import (
    Poly,
    conj_reciprocal,
    minimal_polynomial_of_power,
    reciprocal,
    root_order,
)
from .gl_classes import (
    ClassData,
    block_centralizer_order,
    centralizer_order,
    gl_order,
    make_class_data,
)
from .limits import MAX_ROOT_CLASS_COUNT, InputError, ScaleLimitError
from .partitions import Partition, halve_multiplicities
from .power_poly import (
    ReciprocalFamily,
    SkewTwoPower,
    TwoPower,
    classify2,
    classify2_star,
    classify2_tilde,
    is_two_power,
)
from .records import Record


class SquareRootClassList(Record):
    """The classes whose square is the base class."""

    __slots__ = ("base", "roots")

    def __init__(self, base: ClassData, roots: tuple[ClassData, ...]):
        self._set(base, roots)

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


def square_class(data: ClassData) -> ClassData:
    """Class of g^2 for g in the given class.

    Per entry (P, mu): with P' the minimal polynomial of beta^2 for beta
    a root of P, the entry contributes (P', mu) when deg P' = deg P and
    (P', mu doubled) when deg P' = deg P / 2; contributions landing on
    the same polynomial merge by adding multiplicities.  In odd
    characteristic squaring is a bijection on unipotent parts, which is
    the deg-preserved case with P = P' = x - 1.

    P' comes from :func:`minimal_polynomial_of_power`: P's even-index
    coefficients when P has no odd-degree term, else root squaring (one
    product P(x) P(-x)); each entry's kind is then checked independently
    against ``classify2``'s factorization of P'(x^2).  A halved entry must
    be the skew case: P'(x^2) irreducible and equal to P.
    """
    merged: dict[Poly, dict[int, int]] = {}

    def contribute(poly: Poly, pairs):
        slot = merged.setdefault(poly, {})
        for part, mult in pairs:
            slot[part] = slot.get(part, 0) + mult

    for f, lam in data.entries:
        fp = minimal_polynomial_of_power(f)
        if fp.degree == f.degree:
            cls = classify2(fp)
            if not (isinstance(cls, TwoPower) and f in (cls.f1, cls.f2)):
                raise RuntimeError("degree-preserving square is not a two-power factor")
            contribute(fp, lam.pairs)
        else:
            if 2 * fp.degree != f.degree:
                raise RuntimeError("square dropped degree by more than half")
            cls = classify2(fp)
            if not (isinstance(cls, SkewTwoPower) and cls.f_of_x2 == f):
                raise RuntimeError("degree-halving square is not the skew preimage")
            contribute(fp, ((part, 2 * mult) for part, mult in lam.pairs))
    entries = [
        (poly, Partition(tuple(sorted(parts.items())))) for poly, parts in merged.items()
    ]
    return make_class_data(data.field, entries)


def _two_power_or_even(f: Poly, lam: Partition) -> bool:
    """The GL clause of one entry: f two-power, or every multiplicity even."""
    return is_two_power(f) or lam.all_multiplicities_even()


def _power_or_even_skew(family: ReciprocalFamily, lam: Partition) -> bool:
    """The clause of one self-paired entry: power, or skew with every
    multiplicity even."""
    return family is ReciprocalFamily.POWER or (
        family is ReciprocalFamily.SKEW and lam.all_multiplicities_even()
    )


def has_square_root_gl(data: ClassData) -> bool:
    """True iff every entry is a two-power polynomial, or a skew two-power
    polynomial whose partition has all multiplicities even."""
    return all(_two_power_or_even(f, lam) for f, lam in data.entries)


def square_root_classes(data: ClassData) -> SquareRootClassList:
    """All classes g with g^2 in the base class.

    Skew entries halve their multiplicities (or kill the fiber when odd);
    two-power entries distribute each multiplicity between the two
    factors of f(x^2), enumerated in lexicographic order of the
    f1-multiplicity vector.  Their number, the product of m + 1 over the
    multiplicities m of the two-power entries, is checked against
    ``MAX_ROOT_CLASS_COUNT`` before any is built.
    """
    shapes = []
    count = 1
    for f, lam in data.entries:
        cls = classify2(f)
        if isinstance(cls, SkewTwoPower):
            if not lam.all_multiplicities_even():
                return SquareRootClassList(data, ())
        else:
            count *= math.prod(m + 1 for _, m in lam.pairs)
        shapes.append((lam, cls))
    if count > MAX_ROOT_CLASS_COUNT:
        raise ScaleLimitError(f"{count} square root classes exceed {MAX_ROOT_CLASS_COUNT}")
    per_entry: list[list[tuple[tuple[Poly, Partition], ...]]] = []
    for lam, cls in shapes:
        if isinstance(cls, SkewTwoPower):
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
        if square_class(candidate) != data:
            raise RuntimeError("square root candidate fails to square back")
        roots.append(candidate)
    if len(set(roots)) != len(roots):
        raise RuntimeError("square root classes repeat")
    return SquareRootClassList(data, tuple(roots))


def count_square_roots(data: ClassData) -> int:
    """Exact fiber size of the square map at any element of the class.

    The product over the entries (f, lam) of :func:`_block_value` at
    (q^deg f, lam), with f two-power when its roots are squares in
    F_{q^deg f}, that is when their order divides (q^deg f - 1) / 2.  The
    root classes that :func:`square_root_classes` lists, and the norm test
    that :func:`has_square_root_gl` reads, are not used.
    """
    q = data.field.q
    total = 1
    for f, lam in data.entries:
        qd = q**f.degree
        total *= _block_value(qd, lam, (qd - 1) // 2 % root_order(f) == 0)
        if not total:
            break
    return total


@lru_cache(maxsize=None)
def _block_value(qd: int, lam: Partition, two_power: bool) -> int:
    """The factor of an entry (f, lam) in the fiber, qd = q^deg f.

    A two-power f has f(x^2) = f1 f2, and the roots put a part of each
    multiplicity on f1 and the rest on f2: the sum over the splits v of
    |Z_qd(lam)| / (|Z_qd(v)| |Z_qd(lam - v)|).  A skew f has f(x^2)
    irreducible of degree 2 deg f, and its one root entry carries lam with
    halved multiplicities: |Z_qd(lam)| / |Z_{qd^2}(lam halved)| when every
    multiplicity is even, else 0.
    """
    whole = block_centralizer_order(qd, lam)
    if not two_power:
        if not lam.all_multiplicities_even():
            return 0
        root = block_centralizer_order(qd * qd, halve_multiplicities(lam))
        value, rem = divmod(whole, root)
        if rem:
            raise RuntimeError("skew root centralizer does not divide the block centralizer")
        return value
    total = 0
    for vec in itertools.product(*(range(m + 1) for _, m in lam.pairs)):
        first = Partition(tuple((a, v) for (a, _), v in zip(lam.pairs, vec) if v))
        second = Partition(tuple((a, m - v) for (a, m), v in zip(lam.pairs, vec) if m - v))
        value, rem = divmod(
            whole, block_centralizer_order(qd, first) * block_centralizer_order(qd, second)
        )
        if rem:
            raise RuntimeError("root centralizer does not divide the block centralizer")
        total += value
    return total


def closed_form_count(data: ClassData) -> int:
    """The published closed-form product, evaluated exactly as printed.

    Two-power entries get q^gamma(lam) * prod_j |GL_{m_j}(q^d)| /
    |GL_{m_j/2}(q^(2d))| with gamma(lam) = sum_{u<v} 3*u*m_u*m_v/4 +
    sum_{u>=2} 3*(u-1)*m_u^2/4; skew entries get 2^(distinct parts) - 1.
    No correctness is claimed: fractional exponents or half-integral
    block sizes raise ClosedFormUndefined instead of being rounded,
    and audits compare the value against the centralizer-index count.
    data must be a class with a square root (has_square_root_gl); that is
    not checked here.
    """
    q = data.field.q
    total = Fraction(1)
    for f, lam in data.entries:
        if not is_two_power(f):
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
    dichotomy.  The field must have square order: conj_reciprocal raises
    InputError on any other.
    """
    _check_closed(data, conj_reciprocal, "conjugate")
    return all(
        _power_or_even_skew(classify2_tilde(f), lam)
        if conj_reciprocal(f) == f
        else _two_power_or_even(f, lam)
        for f, lam in data.entries
    )


def has_square_root_symplectic(data: ClassData) -> bool:
    """Square-root existence in the symplectic group, evaluated verbatim
    from the published criterion.

    Unipotent entries always pass; any x+1 entry forces False; other
    self-reciprocal entries must be star-power or star-skew with even
    multiplicities, and non-self-reciprocal ones follow the two-power
    dichotomy.  The oracle is authoritative; audits flag the -1
    eigenvalue clause, which disagrees with it.  Data that no symplectic
    matrix has raises InputError: it must be closed under reciprocals,
    and in an x-1 or x+1 entry each odd part must have even multiplicity
    (Wall), which also makes n even.
    """
    F = data.field
    x_minus_one = Poly(F, (F.neg(1), 1))
    x_plus_one = Poly(F, (1, 1))
    _check_closed(data, reciprocal, "symplectic")
    for f, lam in data.entries:
        if f in (x_minus_one, x_plus_one) and any(u % 2 and m % 2 for u, m in lam.pairs):
            raise InputError(f"data is not symplectic: {f} has an odd part of odd multiplicity")
    for f, lam in data.entries:
        if f == x_minus_one:
            continue
        if f == x_plus_one:
            return False
        if reciprocal(f) == f:
            if not _power_or_even_skew(classify2_star(f), lam):
                return False
        elif not _two_power_or_even(f, lam):
            return False
    return True
