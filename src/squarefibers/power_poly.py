"""Factorization profiles of f(x^m) and the two-power family classification.

For odd q and a monic irreducible f != x, f(x^2) is either irreducible
or splits into exactly two distinct irreducibles of the same degree as
f; the two outcomes drive the whole square-root theory.  The verdict
comes from the quadratic character of the norm of a root of f
(``is_two_power``), never from the order of a root; ``classify2`` takes
the two factors of a split f(x^2) from one modular power and two gcds,
and a gcd outcome that contradicts the norm verdict aborts loudly.
The profile of f(x^m) for general m coprime to q is available as an
independent, formula-driven route and is audited against direct
factorization.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from math import gcd as int_gcd, lcm

from . import ffpoly
from .ffpoly import (
    Poly,
    conj_reciprocal,
    evaluate,
    gcd,
    poly_one,
    pow_mod,
    reciprocal,
    root_order,
    substitute_power,
)
from .limits import (
    MAX_PROFILE_ENTRIES,
    InputError,
    ScaleLimitError,
    clip,
)
from .numtheory import divisors, factorint, n_order, totient
from .records import Record


class ButlerEntry(Record):
    __slots__ = ("degree", "count", "root_order")

    def __init__(self, degree: int, count: int, root_order: int):
        self._set(degree, count, root_order)


class ButlerProfile(Record):
    """Degrees, counts and root orders of the irreducible factors of f(x^m),
    computed from the order of the roots of f without factoring anything."""

    __slots__ = ("entries", "m1", "m2")

    def __init__(self, entries: tuple[ButlerEntry, ...], m1: int, m2: int):
        self._set(entries, m1, m2)

    def total_degree(self) -> int:
        return sum(e.degree * e.count for e in self.entries)


class TwoPower(Record):
    """f(x^2) = f1 * f2 with distinct monic irreducibles of degree deg f."""

    __slots__ = ("f1", "f2")

    def __init__(self, f1: Poly, f2: Poly):
        self._set(f1, f2)


class SkewTwoPower(Record):
    """f(x^2) itself irreducible."""

    __slots__ = ("f_of_x2",)

    def __init__(self, f_of_x2: Poly):
        self._set(f_of_x2)


class ReciprocalFamily(enum.Enum):
    """Trichotomy for self-paired irreducibles (reciprocal or conjugate kind)."""

    POWER = "power"
    SKEW = "skew"
    NEITHER = "neither"


def butler_profile(f: Poly, m: int) -> ButlerProfile:
    """Factor profile of f(x^m) for gcd(m, q) = 1.

    Writes m = m1 * m2 with gcd(m1, t) = 1 and every prime of m2
    dividing t, where t is the root order of f and d = deg f.  For each
    divisor e of m1 the factors with roots of order e*m2*t have degree
    M = lcm(d*k, ord_e(q)), with k the least divisor of m2 such that
    q^(d*k) = 1 mod m2*t: ord_t(q) = d, the units that are 1 mod t form
    a group of order m2 mod m2*t, and e is prime to m2*t, so the order
    e*m2*t itself is never factored.  They number d*m2*phi(e)/M.  The
    number of divisors of m1 is checked against MAX_PROFILE_ENTRIES
    before any order is taken; factorint refuses an m past its limit.
    f must be a monic irreducible other than x; it is not checked.
    """
    if m < 1:
        raise InputError("m must be positive")
    m_primes = factorint(m)
    q = f.field.q
    if int_gcd(m, q) != 1:
        raise InputError(f"gcd({m}, {q}) != 1")
    d = f.degree
    t = root_order(f)
    m1, m2, entry_count = 1, 1, 1
    for prime, exp in m_primes.items():
        if t % prime == 0:
            m2 *= prime**exp
        else:
            m1 *= prime**exp
            entry_count *= exp + 1
    if entry_count > MAX_PROFILE_ENTRIES:
        raise ScaleLimitError(
            f"the profile of f(x^{m}) has {entry_count} entries, past {MAX_PROFILE_ENTRIES}"
        )
    one = 1 % (m2 * t)  # 0 when m2 * t = 1, for f = x - 1
    k = next(k for k in divisors(m2) if pow(q, d * k, m2 * t) == one)
    entries = []
    for e in divisors(m1):
        degree = lcm(d * k, n_order(q, e))
        count, rem = divmod(d * m2 * totient(e), degree)
        if rem:
            raise RuntimeError(f"factor count of f(x^{m}) at e = {e} is not integral: {clip(f)}")
        entries.append(ButlerEntry(degree, count, e * m2 * t))
    profile = ButlerProfile(tuple(entries), m1, m2)
    if profile.total_degree() != m * d:
        raise RuntimeError(
            f"profile of f(x^{m}) has total degree {profile.total_degree()}, "
            f"not {m * d}: {clip(f)}"
        )
    return profile


def is_two_power(f: Poly) -> bool:
    """True iff f(x^2) splits, that is iff (-1)^d f(0) is a square in F_q.

    For a root b of f, d = deg f, b^((q^d - 1)/2) = N(b)^((q - 1)/2), where
    the norm N(b) = b^((q^d - 1)/(q - 1)) is the product of the d roots,
    (-1)^d f(0); so b is a square in F_{q^d}, which is when the roots +-sqrt(b)
    of f(x^2) lie in F_{q^d}, exactly when N(b) is a square in F_q.  f must
    be a monic irreducible other than x; it is not checked.
    """
    F = f.field
    c = f.coeffs[0]
    return F.is_square(F.neg(c) if f.degree % 2 else c)


# How many field elements classify2 tries as the shift a of x + a: a cap, so
# the search costs the same for every q.
_SHIFT_TRIES = 16


@lru_cache(maxsize=None)
def classify2(f: Poly):
    """SkewTwoPower if g = f(x^2) is irreducible, else the sorted TwoPower pair.

    The verdict is :func:`is_two_power`'s, and a skew f costs nothing
    more.  For a two-power f, let d = deg f, e = (q^d - 1)/2 and r = x + a
    with a in F_q and g(a) != 0 (a = 0 qualifies, as g(0) = f(0) != 0);
    take s = r^e mod g, plus = gcd(s - 1, g) and minus = gcd(s + 1, g).
    For a root b of g, b^2 is a root of f, so F_q(b) contains F_{q^d} and
    has degree d or 2d, and b + a != 0.  If b lies in F_{q^d}, so does
    b + a, and (b + a)^e = +-1: b is a root of plus or of minus.  If not,
    neither is b + a, and (b + a)^e != +-1.  The roots of g are b and -b
    with b running over one Frobenius orbit, so they all lie in F_{q^d} or
    none does, and the degrees of (plus, minus) decide:

    - (0, 0): every root of g has degree 2d, so g is irreducible, which
      contradicts the norm verdict;
    - (d, d): plus * minus = g, and each factor is irreducible, since its
      roots have degree d;
    - (0, 2d) or (2d, 0): g, squarefree as f is and f(0) != 0, is a
      product of two irreducibles of degree d that this r does not
      separate; Cantor-Zassenhaus splits it.

    The shift a is only a heuristic that makes the third case rare: the
    first of the first _SHIFT_TRIES field elements with g(a) = f(a^2) a
    non-square.  When g splits with b a root of one factor, g(a) is the
    product of the norms from F_{q^d} of a + b and a - b, so their
    quadratic characters differ and plus, minus get one factor each.  The
    factors never read that character, only the gcd degrees; (0, 0), or
    any other pair of degrees, contradicts the norm verdict or the
    odd-characteristic dichotomy and aborts loudly.  f must be a monic
    irreducible other than x; it is not checked.
    """
    F = f.field
    d = f.degree
    g = substitute_power(f, 2)
    if not is_two_power(f):
        return SkewTwoPower(g)
    shifts = range(min(F.q, _SHIFT_TRIES))
    a = next((a for a in shifts if not F.is_square(evaluate(f, F.mul(a, a)))), 0)
    s = pow_mod(Poly(F, (a, 1)), (F.q**d - 1) // 2, g)
    one = poly_one(F)
    plus, minus = gcd(s - one, g), gcd(s + one, g)
    degrees = plus.degree, minus.degree
    if degrees == (d, d):
        factors = [plus, minus]
    elif sorted(degrees) == [0, 2 * d]:
        factors = ffpoly._equal_degree(g, d)
    else:
        raise RuntimeError(
            f"f(x^2) for f={f} over F_{F.q} violates the two-factor dichotomy"
        )
    f1, f2 = sorted(factors, key=lambda h: h.coeffs)
    if f1 * f2 != g:
        raise RuntimeError("f(x^2) failed to recompose")
    return TwoPower(f1, f2)


def is_self_reciprocal(f: Poly) -> bool:
    return reciprocal(f) == f


def is_self_conjugate(f: Poly) -> bool:
    return conj_reciprocal(f) == f


def _paired_family(f: Poly, pairing) -> ReciprocalFamily:
    """Trichotomy for a monic irreducible f != x that the pairing fixes;
    neither is checked, so callers test pairing(f) == f first.

    SKEW when f(x^2) is irreducible; POWER when f(x^2) has a factor of
    degree deg f that the pairing fixes; NEITHER when it splits but
    neither factor is fixed.
    """
    cls = classify2(f)
    if isinstance(cls, SkewTwoPower):
        return ReciprocalFamily.SKEW
    if pairing(cls.f1) == cls.f1 or pairing(cls.f2) == cls.f2:
        return ReciprocalFamily.POWER
    return ReciprocalFamily.NEITHER


def classify2_star(f: Poly) -> ReciprocalFamily:
    """The trichotomy for self-reciprocal irreducibles."""
    return _paired_family(f, reciprocal)


def classify2_tilde(f: Poly) -> ReciprocalFamily:
    """The trichotomy with the conjugate-reciprocal pairing; the field
    must have square order."""
    return _paired_family(f, conj_reciprocal)
