"""Exact arithmetic for odd-order finite fields and their polynomial rings.

Elements of F_q with q = p^k are encoded as integers 0..q-1: the integer
a0 + a1*p + ... + a_{k-1}*p^(k-1) stands for the residue class
a0 + a1*y + ... + a_{k-1}*y^(k-1) modulo a fixed monic irreducible of
degree k over F_p (the lexicographically smallest one, so the encoding
is reproducible).  Polynomials store coefficients constant term first.

Only odd characteristic is supported; everything downstream relies on
2 being invertible.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import gcd as int_gcd

import sympy

from .limits import (
    MAX_ENUMERATION_SPACE,
    MAX_FIELD_ORDER,
    MAX_POLY_DEGREE,
    InputError,
    ScaleLimitError,
)


class Field:
    """The finite field F_q, q = p^k odd.

    Multiplication in extension fields goes through lazily built
    discrete-log tables (q is capped, so the tables are small).
    Instances are interned by :func:`field_make`; identity of (p, k)
    implies identity of the modulus and of the element encoding.
    """

    __slots__ = ("p", "k", "q", "modulus_coeffs", "_exp", "_log", "_conj", "_ppows")

    def __init__(self, p: int, k: int, modulus_coeffs: tuple[int, ...] | None):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus_coeffs = modulus_coeffs
        self._ppows = tuple(p**i for i in range(k + 1))
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._conj: list[int] | None = None

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.p == other.p and self.k == other.k

    def __hash__(self) -> int:
        return hash((self.p, self.k))

    def __repr__(self) -> str:
        return f"F{self.q}"

    # -- element encoding ------------------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        """Base-p digits of an element encoding, constant coefficient first."""
        p = self.p
        out = []
        for _ in range(self.k):
            a, r = divmod(a, p)
            out.append(r)
        return tuple(out)

    def from_digits(self, digits) -> int:
        enc = 0
        for i, d in enumerate(digits):
            enc += d * self._ppows[i]
        return enc

    def elements(self):
        return range(self.q)

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1:
            return (a + b) % p
        if self.k == 2:
            return (a + b) % p + p * ((a // p + b // p) % p)
        return self.from_digits(
            (x + y) % p for x, y in zip(self.digits(a), self.digits(b))
        )

    def neg(self, a: int) -> int:
        p = self.p
        if self.k == 1:
            return (-a) % p
        return self.from_digits((-d) % p for d in self.digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is None:
            self._build_tables()
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in " + repr(self))
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is None:
            self._build_tables()
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero in " + repr(self))
            return 0 if e else 1
        if self.k == 1:
            return pow(a, e % (self.p - 1) if e >= 0 else e, self.p)
        if self._exp is None:
            self._build_tables()
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def is_square(self, a: int) -> bool:
        return a == 0 or self.pow(a, (self.q - 1) // 2) == 1

    def conj(self, a: int) -> int:
        """The order-two automorphism x -> x^sqrt(q); requires square order."""
        if self.k % 2:
            raise InputError(f"{self!r} is not of square order")
        if self._conj is None:
            r = self.p ** (self.k // 2)
            self._conj = [self.pow(x, r) for x in range(self.q)]
        return self._conj[a]

    def multiplicative_generator(self) -> int:
        """Smallest encoding generating the multiplicative group."""
        primes = list(sympy.factorint(self.q - 1))
        for g in range(1, self.q):
            if all(self.pow(g, (self.q - 1) // r) != 1 for r in primes):
                return g
        raise RuntimeError("no generator found")  # unreachable

    # -- internals ---------------------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        # schoolbook product of residue polynomials, reduced mod the modulus
        p = self.p
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        prod = [c % p for c in prod]
        mod = self.modulus_coeffs
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.k):
                    prod[i - self.k + j] = (prod[i - self.k + j] - c * mod[j]) % p
        return self.from_digits(prod[: self.k])

    def _build_tables(self) -> None:
        q = self.q
        primes = list(sympy.factorint(q - 1))

        def raw_pow(a, e):
            r = 1
            while e:
                if e & 1:
                    r = self._raw_mul(r, a)
                a = self._raw_mul(a, a)
                e >>= 1
            return r

        gen = None
        for g in range(2, q):
            if all(raw_pow(g, (q - 1) // r) != 1 for r in primes):
                gen = g
                break
        assert gen is not None
        exp = [1] * (q - 1)
        log = [0] * q
        cur = 1
        for i in range(q - 1):
            exp[i] = cur
            log[cur] = i
            cur = self._raw_mul(cur, gen)
        self._exp, self._log = exp, log


@lru_cache(maxsize=None)
def field_make(p: int, k: int) -> Field:
    """Construct F_{p^k}, p an odd prime, with the canonical modulus.

    The modulus for k > 1 is the lexicographically smallest monic
    irreducible of degree k over F_p, comparing coefficient tuples
    constant term first.
    """
    if not isinstance(p, int) or not isinstance(k, int) or k < 1:
        raise InputError(f"bad field parameters ({p}, {k})")
    if p == 2:
        raise InputError("even characteristic is not supported")
    if not sympy.isprime(p):
        raise InputError(f"{p} is not prime")
    if p**k > MAX_FIELD_ORDER:
        raise ScaleLimitError(f"field order {p}^{k} exceeds {MAX_FIELD_ORDER}")
    if k == 1:
        return Field(p, 1, None)
    base = field_make(p, 1)
    for tail in itertools.product(range(p), repeat=k):
        if tail[0] == 0:
            continue  # divisible by y
        cand = Poly(base, tail + (1,))
        if is_irreducible(cand):
            return Field(p, k, tail + (1,))
    raise RuntimeError("no irreducible modulus found")  # unreachable


@lru_cache(maxsize=None)
def field_from_order(q: int) -> Field:
    """F_q from its order; q must be an odd prime power."""
    if not isinstance(q, int) or q < 3:
        raise InputError(f"bad field order {q}")
    fac = sympy.factorint(q)
    if len(fac) != 1:
        raise InputError(f"{q} is not a prime power")
    (p, k), = fac.items()
    return field_make(int(p), int(k))


@dataclass(frozen=True)
class Poly:
    """Polynomial over a finite field, coefficients constant term first.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading coefficient is nonzero.
    """

    field: Field
    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = self.coeffs
        if not isinstance(c, tuple):
            c = tuple(c)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __add__(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, tuple(out))

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(F, tuple(F.neg(c) for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(F, ())
        out = [0] * (len(a) + len(b) - 1)
        if F.k == 1:
            p = F.p
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            out = [c % p for c in out]
        else:
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        if y:
                            out[i + j] = F.add(out[i + j], F.mul(x, y))
        return Poly(F, tuple(out))

    def scale(self, c: int) -> "Poly":
        F = self.field
        if c == 0:
            return Poly(F, ())
        return Poly(F, tuple(F.mul(c, x) for x in self.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        if len(a) - 1 < db:
            return Poly(F, ()), self
        inv_lead = F.inv(b[-1])
        quot = [0] * (len(a) - db)
        if F.k == 1:
            p = F.p
            for i in range(len(a) - 1, db - 1, -1):
                c = a[i] % p
                if c:
                    c = (c * inv_lead) % p
                    quot[i - db] = c
                    for j in range(db + 1):
                        a[i - db + j] = (a[i - db + j] - c * b[j]) % p
        else:
            for i in range(len(a) - 1, db - 1, -1):
                c = a[i]
                if c:
                    c = F.mul(c, inv_lead)
                    quot[i - db] = c
                    for j in range(db + 1):
                        a[i - db + j] = F.sub(a[i - db + j], F.mul(c, b[j]))
        return Poly(F, tuple(quot)), Poly(F, tuple(a[:db]))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def derivative(self) -> "Poly":
        F = self.field
        return Poly(
            F,
            tuple(F.mul(i % F.p, c) for i, c in enumerate(self.coeffs) if i)
            if F.k > 1
            else tuple((i * c) % F.p for i, c in enumerate(self.coeffs) if i),
        )

    def evaluate(self, a: int) -> int:
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, a), c)
        return acc

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs) if self.coeffs else "0"


def poly_x(field: Field) -> Poly:
    return Poly(field, (0, 1))


def poly_one(field: Field) -> Poly:
    return Poly(field, (1,))


def make_poly(field: Field, coeffs) -> Poly:
    """Validating constructor for externally supplied coefficient lists."""
    coeffs = tuple(int(c) for c in coeffs)
    if any(c < 0 or c >= field.q for c in coeffs):
        raise InputError(f"coefficients must lie in 0..{field.q - 1}")
    if len(coeffs) - 1 > MAX_POLY_DEGREE:
        raise ScaleLimitError(f"degree exceeds {MAX_POLY_DEGREE}")
    return Poly(field, coeffs)


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    if e < 0:
        raise InputError("negative exponent")
    result = poly_one(base.field)
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def _require_monic(f: Poly) -> None:
    if not f.is_monic():
        raise InputError("polynomial must be monic")
    if f.degree < 1:
        raise InputError("polynomial must have degree >= 1")


def is_irreducible(f: Poly) -> bool:
    """Deterministic irreducibility test (Ben-Or).

    f of degree d is irreducible iff gcd(x^(q^i) - x, f) = 1 for every
    i <= d/2, which is exactly when the distinct-degree split yields f
    itself first; the first yield precedes any division, so the test is
    exact for f that is not squarefree too.
    """
    _require_monic(f)
    return next(_distinct_degree(f)) == (f, f.degree)


def _pth_root(f: Poly) -> Poly:
    # f with zero derivative is g(x^p); recover g by taking p-th roots
    # of the surviving coefficients (Frobenius is invertible on F_q).
    F = f.field
    p = F.p
    root_pow = p ** (F.k - 1)
    out = []
    for i in range(0, len(f.coeffs), p):
        out.append(F.pow(f.coeffs[i], root_pow) if f.coeffs[i] else 0)
    return Poly(F, tuple(out))


def _squarefree_parts(f: Poly) -> list[tuple[Poly, int]]:
    """Split monic f into (squarefree monic, multiplicity) pieces.

    Pieces need not be pairwise coprime; the caller merges at the
    irreducible level.  Product of piece^mult equals f.
    """
    out: list[tuple[Poly, int]] = []
    stack = [(f, 1)]
    while stack:
        g, mult = stack.pop()
        if g.degree == 0:
            continue
        d = g.derivative()
        if d.is_zero():
            stack.append((_pth_root(g), mult * g.field.p))
            continue
        c = gcd(g, d)
        if c.degree == 0:
            out.append((g, mult))
        else:
            stack.append((c, mult))
            stack.append(((g // c).monic(), mult))
    return out


def _distinct_degree(f: Poly) -> Iterator[tuple[Poly, int]]:
    """Yield (product of all irreducible factors of degree d, d) for squarefree
    monic f, in increasing d."""
    q = f.field.q
    x = poly_x(f.field)
    rest = f
    w = x % rest
    d = 0
    while rest.degree >= 2 * (d + 1):
        d += 1
        w = pow_mod(w, q, rest)
        h = gcd(w - x, rest)
        if h.degree > 0:
            yield h, d
            rest = (rest // h).monic()
            w = w % rest
    if rest.degree > 0:
        yield rest, rest.degree


def _poly_seed(f: Poly) -> int:
    seed = f.field.q
    for c in f.coeffs:
        seed = seed * f.field.q + c + 1
    return seed


def _equal_degree(f: Poly, d: int) -> list[Poly]:
    """Cantor-Zassenhaus split of a product of distinct degree-d irreducibles.

    The random choices are seeded from the input so runs are reproducible;
    the caller sorts the output anyway.
    """
    F = f.field
    q = F.q
    if f.degree == d:
        return [f]
    rng = random.Random(_poly_seed(f))
    exponent = (q**d - 1) // 2
    one = poly_one(F)
    result = []
    stack = [f]
    while stack:
        h = stack.pop()
        if h.degree == d:
            result.append(h)
            continue
        while True:
            r = Poly(F, tuple(rng.randrange(q) for _ in range(2 * d)) + (1,))
            g = gcd(r, h)
            if 0 < g.degree < h.degree:
                break
            g = gcd(pow_mod(r, exponent, h) - one, h)
            if 0 < g.degree < h.degree:
                break
        stack.append(g)
        stack.append((h // g).monic())
    return result


def factorize(f: Poly) -> list[tuple[Poly, int]]:
    """Full factorization of a monic polynomial into monic irreducibles.

    Returns (factor, multiplicity) pairs sorted by (degree, coefficient
    tuple); the recomposed product is asserted to equal the input.
    """
    _require_monic(f)
    F = f.field
    factors: dict[Poly, int] = {}
    coeffs = f.coeffs
    shift = 0
    while coeffs[shift] == 0:
        shift += 1
    if shift:
        factors[poly_x(F)] = shift
        f_rem = Poly(F, coeffs[shift:])
    else:
        f_rem = f
    if f_rem.degree >= 1:
        for part, mult in _squarefree_parts(f_rem):
            for prod, d in _distinct_degree(part):
                for irr in _equal_degree(prod, d):
                    factors[irr] = factors.get(irr, 0) + mult
    result = sorted(factors.items(), key=lambda kv: (kv[0].degree, kv[0].coeffs))
    check = poly_one(F)
    for g, m in result:
        for _ in range(m):
            check = check * g
    assert check == Poly(F, coeffs), "factorization failed to recompose"
    return result


@lru_cache(maxsize=None)
def monic_irreducibles(field: Field, d: int) -> tuple[Poly, ...]:
    """All monic irreducibles of degree d, sorted lexicographically."""
    if d < 1:
        raise InputError("degree must be positive")
    if field.q**d > MAX_ENUMERATION_SPACE:
        raise ScaleLimitError(f"cannot scan {field.q}^{d} polynomials")
    out = []
    for tail in itertools.product(range(field.q), repeat=d):
        if d > 1 and tail[0] == 0:
            continue
        cand = Poly(field, tail + (1,))
        if is_irreducible(cand):
            out.append(cand)
    return tuple(out)


def substitute_power(f: Poly, m: int) -> Poly:
    """f(x^m)."""
    if m < 1:
        raise InputError("power must be positive")
    if f.degree * m > MAX_POLY_DEGREE:
        raise ScaleLimitError(f"degree {f.degree * m} exceeds {MAX_POLY_DEGREE}")
    out = [0] * (f.degree * m + 1)
    for i, c in enumerate(f.coeffs):
        out[i * m] = c
    return Poly(f.field, tuple(out))


def reciprocal(f: Poly) -> Poly:
    """f*(x) = f(0)^(-1) x^d f(1/x), always monic; an involution on monics."""
    if f.constant_term() == 0:
        raise InputError("reciprocal requires a nonzero constant term")
    F = f.field
    c0inv = F.inv(f.coeffs[0])
    return Poly(F, tuple(F.mul(c0inv, c) for c in reversed(f.coeffs)))


def conj_reciprocal(f: Poly) -> Poly:
    """Conjugate reciprocal over a square-order field.

    Applies the order-two automorphism coefficientwise and reverses:
    the roots of the result are the conjugate-inverses of the roots of f.
    """
    F = f.field
    if F.k % 2:
        raise InputError("conjugate reciprocal needs a square-order field")
    if f.constant_term() == 0:
        raise InputError("conjugate reciprocal requires a nonzero constant term")
    cc = tuple(F.conj(c) for c in f.coeffs)
    c0inv = F.inv(cc[0])
    return Poly(F, tuple(F.mul(c0inv, c) for c in reversed(cc)))


@lru_cache(maxsize=None)
def root_order(f: Poly) -> int:
    """Multiplicative order of the roots of a monic irreducible f != x.

    All roots are conjugate so they share one order t; t divides
    q^deg(f) - 1 and deg(f) is the multiplicative order of q mod t.
    """
    _require_monic(f)
    if f.constant_term() == 0:
        raise InputError("x has no root order")
    if not is_irreducible(f):
        raise InputError("root_order requires an irreducible polynomial")
    q = f.field.q
    n = q**f.degree - 1
    t = n
    x = poly_x(f.field)
    for prime in sympy.factorint(n):
        while t % prime == 0 and pow_mod(x, t // prime, f).is_one():
            t //= prime
    return t


def mult_order(s: int, q: int) -> int:
    """Least r >= 1 with q^r = 1 mod s; requires gcd(s, q) = 1."""
    if s < 1:
        raise InputError("modulus must be positive")
    if s == 1:
        return 1
    if int_gcd(s, q) != 1:
        raise InputError(f"gcd({s}, {q}) != 1")
    return int(sympy.n_order(q, s))


@lru_cache(maxsize=None)
def minimal_polynomial_of_power(f: Poly, m: int) -> Poly:
    """Minimal polynomial over F_q of beta^m, beta any root of irreducible f.

    Computed from the Frobenius orbit of beta^m inside F_q[x]/(f); the
    result's degree divides deg f.
    """
    _require_monic(f)
    if not is_irreducible(f):
        raise InputError("minimal_polynomial_of_power requires an irreducible input")
    F = f.field
    q = F.q
    alpha = pow_mod(poly_x(F), m, f)
    conjugates = [alpha]
    cur = pow_mod(alpha, q, f)
    while cur != alpha:
        conjugates.append(cur)
        cur = pow_mod(cur, q, f)
    # expand prod (y - conj_i) with coefficients in F_q[x]/(f)
    zero = Poly(F, ())
    coeffs_k: list[Poly] = [poly_one(F)]
    for c in conjugates:
        nxt = [zero] * (len(coeffs_k) + 1)
        for i, a in enumerate(coeffs_k):
            nxt[i + 1] = nxt[i + 1] + a
            nxt[i] = nxt[i] - (a * c) % f
        coeffs_k = nxt
    out = []
    for a in coeffs_k:
        assert a.degree <= 0, "minimal polynomial coefficient not in the base field"
        out.append(a.constant_term())
    return Poly(F, tuple(out))
