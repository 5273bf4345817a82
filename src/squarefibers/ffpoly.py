"""Exact arithmetic for odd-order finite fields and their polynomial rings.

Elements of F_q with q = p^k are encoded as integers 0..q-1: the integer
a0 + a1*p + ... + a_{k-1}*p^(k-1) stands for the residue class
a0 + a1*y + ... + a_{k-1}*y^(k-1) modulo a fixed monic irreducible of
degree k over F_p (the lexicographically smallest one, so the encoding
is reproducible).  Polynomials store coefficients constant term first.

Extension-field arithmetic is table-driven: multiplication adds discrete
logarithms, and addition goes through Zech logarithms, log(1 + g^n), so
neither touches base-p digits; those are used only to define the encoding
and to build the tables.  Polynomial products, division, gcd and modular
powers run on plain coefficient lists (see the kernel section below) and
build one ``Poly`` per result.

Only odd characteristic is supported; everything downstream relies on
2 being invertible.
"""

from __future__ import annotations

import itertools
import random
import sys
from array import array
from collections.abc import Iterator
from functools import lru_cache
from math import gcd as int_gcd

from .limits import (
    MAX_FACTORED_INTEGER,
    MAX_FIELD_ORDER,
    MAX_POLY_DEGREE,
    InputError,
    ScaleLimitError,
    clip,
    exceeds,
)
from .numtheory import divisors, factorint, odd_prime_power
from .records import Record


class Field:
    """The finite field F_q, q = p^k odd.

    For k > 1 the arithmetic reads tables over a generator g, built on
    first use (q is capped, so they are small): ``_log`` (element ->
    exponent), ``_exp`` (exponent -> element over two periods, so a sum of
    two logs needs no reduction, then q - 1 zeros), ``_zech`` (n ->
    log(1 + g^n) over two periods, so a difference of two logs indexes it
    directly; where 1 + g^n = 0 it holds 2(q - 1), which sends the sum into
    the zeros of ``_exp``).  Negation adds log(-1) = (q - 1)/2 and the
    conjugation x -> x^sqrt(q) is a power, so neither needs a table of its
    own.  Instances are interned by :func:`field_make`; identity of (p, k)
    implies identity of the modulus and of the element encoding.
    """

    __slots__ = ("p", "k", "q", "modulus_coeffs", "_exp", "_log", "_zech")

    def __init__(self, p: int, k: int, modulus_coeffs: tuple[int, ...] | None):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus_coeffs = modulus_coeffs
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._zech: list[int] | None = None

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

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        if self._log is None:
            self._build_tables()
        log = self._log
        la = log[a]
        return self._exp[la + self._zech[log[b] - la]]

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        if not a:
            return 0
        if self._log is None:
            self._build_tables()
        return self._exp[self._log[a] + (self.q - 1) // 2]

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self._log is None:
            self._build_tables()
        log = self._log
        return self._exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in " + repr(self))
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        exp, log, _ = self._tables()
        return exp[(-log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero in " + repr(self))
            return 0 if e else 1
        if self.k == 1:
            return pow(a, e % (self.p - 1) if e >= 0 else e, self.p)
        exp, log, _ = self._tables()
        return exp[(log[a] * e) % (self.q - 1)]

    def is_square(self, a: int) -> bool:
        return a == 0 or self.pow(a, (self.q - 1) // 2) == 1

    def conj(self, a: int) -> int:
        """The order-two automorphism x -> x^sqrt(q); requires square order."""
        if self.k % 2:
            raise InputError(f"{self!r} is not of square order")
        return self.pow(a, self.p ** (self.k // 2))

    def multiplicative_generator(self) -> int:
        """Smallest encoding generating the multiplicative group; for k > 1
        that is the generator g the tables are built on."""
        if self.k > 1:
            return self._tables()[0][1]
        primes = list(factorint(self.q - 1))
        for g in range(1, self.q):
            if all(self.pow(g, (self.q - 1) // r) != 1 for r in primes):
                return g
        raise RuntimeError("no generator found")  # unreachable

    def _tables(self) -> tuple[list[int], list[int], list[int]]:
        """(exp, log, zech) of an extension field, built on first use."""
        if self._log is None:
            self._build_tables()
        return self._exp, self._log, self._zech

    # -- internals ---------------------------------------------------------

    def _times(self, c: int):
        """a -> a * c, with no tables of logs.

        The base-p digits of a are cut into r chunks of h digits.  The
        product of each chunk with c is precomputed in the residue ring
        F_p[y]/(modulus) of ``_residue_ring`` and stored with its digits in
        binary slots of s bits, wide enough to hold a sum of r digits, so
        a product is r lookups and integer additions, and then one lookup
        per chunk of h slots to take each slot mod p and go back to base p.
        h is the largest below k with 2^(h s) <= 2^12 lookup entries: with
        h = k one chunk covers the field, and building its products costs
        one residue-ring product per element.  Only extension fields (k > 1)
        build such tables.
        """
        p, k = self.p, self.k
        h = 1
        while h + 1 < k and (h + 1) * (-(-k // (h + 1)) * (p - 1)).bit_length() <= 12:
            h += 1
        r = -(-k // h)
        s = (r * (p - 1)).bit_length()
        chunk, width = p**h, h * s
        encode, mulmod, decode = _residue_ring(field_make(p, 1), self.modulus_coeffs)
        packed_c = encode(self.digits(c))

        def slots(a: int) -> int:
            prod = decode(mulmod(encode(self.digits(a)), packed_c))
            return sum(d << s * j for j, d in enumerate(prod))

        products = [
            [slots(u * chunk**i) for u in range(p ** min(h, k - i * h))] for i in range(r)
        ]
        to_base_p = [0]
        for j in range(h):
            to_base_p = [x + v % p * p**j for v in range(1 << s) for x in to_base_p]
        mask = (1 << width) - 1

        def times(a: int) -> int:
            wide = 0
            for table in products:
                a, u = divmod(a, chunk)
                wide += table[u]
            out = 0
            scale = 1
            while wide:
                out += to_base_p[wide & mask] * scale
                wide >>= width
                scale *= chunk
            return out

        return times

    def _build_tables(self) -> None:
        q, p = self.q, self.p
        m = q - 1
        primes = list(factorint(m))
        encode, mulmod, decode = _residue_ring(field_make(p, 1), self.modulus_coeffs)
        for gen in range(2, q):  # F_q^* is cyclic, so some gen passes
            b = encode(self.digits(gen))
            if all(decode(_residue_pow(mulmod, b, m // r)) != [1] for r in primes):
                break
        times_gen = self._times(gen)
        exp = [1] * m
        log = [0] * q
        cur = 1
        for i in range(m):
            exp[i] = cur
            log[cur] = i
            cur = times_gen(cur)
        # 1 + g^n changes only the constant digit of g^n
        zero = 2 * m
        zech = [0] * m
        for n, e in enumerate(exp):
            one_more = e - e % p + (e + 1) % p
            zech[n] = log[one_more] if one_more else zero
        self._log = log
        self._exp = exp + exp + [0] * m
        self._zech = zech + zech


@lru_cache(maxsize=None)
def field_make(p: int, k: int) -> Field:
    """Construct F_{p^k}, p an odd prime, with the canonical modulus.

    The modulus for k > 1 is the lexicographically smallest monic
    irreducible of degree k over F_p, comparing coefficient tuples
    constant term first.
    """
    if not isinstance(p, int) or not isinstance(k, int) or k < 1:
        raise InputError(f"bad field parameters ({clip(p)}, {clip(k)})")
    if p == 2:
        raise InputError("even characteristic is not supported")
    if p < 3:
        raise InputError(f"{clip(p)} is not prime")
    if exceeds(p, k, MAX_FIELD_ORDER):
        raise ScaleLimitError(f"field order {clip(p)}^{clip(k)} exceeds {MAX_FIELD_ORDER}")
    if list(factorint(p)) != [p]:
        raise InputError(f"{p} is not prime")
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
    return field_make(*odd_prime_power(q))


# -- coefficient-list kernel ---------------------------------------------------
#
# Lists of element encodings, constant term first.  Over F_p products are
# integer products of packed coefficients, and division runs on integers
# reduced mod p once per pass; over F_{p^k} the loops add logs and Zech
# logs, with the logs of the fixed operand taken once per call.


def _trim(c: list[int]) -> list[int]:
    while c and not c[-1]:
        c.pop()
    return c


# Array typecodes of 2-, 4- and 8-byte unsigned slots, narrowest first.
_SLOT_CODES = tuple((code, array(code).itemsize) for code in "HIQ")


def _slot_type(bound: int) -> tuple[str, int]:
    """Typecode and byte width of the narrowest slot holding 0..bound."""
    for code, width in _SLOT_CODES:
        if not bound >> 8 * width:
            return code, width
    raise ScaleLimitError(f"coefficient products up to {bound} exceed 64-bit slots")


def _pack(code: str, coeffs) -> int:
    return int.from_bytes(array(code, coeffs).tobytes(), sys.byteorder)


def _unpack(code: str, width: int, packed: int, slots: int) -> array:
    return array(code, packed.to_bytes(width * slots, sys.byteorder))


def _mul(F: Field, a, b) -> list[int]:
    """Product of two coefficient sequences.

    Over F_p both are packed into integers, one fixed-width slot per
    coefficient (Kronecker substitution), so the product is one integer
    multiplication.
    """
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    if F.k == 1:
        p = F.p
        code, width = _slot_type(len(b) * (p - 1) ** 2)
        prod = _pack(code, a) * _pack(code, b)
        return [c % p for c in _unpack(code, width, prod, len(a) + len(b) - 1)]
    out = [0] * (len(a) + len(b) - 1)
    exp, log, zech = F._tables()
    terms = [(i, log[x]) for i, x in enumerate(a) if x]
    for j, y in enumerate(b):
        if y:
            ly = log[y]
            for i, lx in terms:
                k = i + j
                t = lx + ly
                o = out[k]
                if o:
                    lo = log[o]
                    out[k] = exp[lo + zech[t - lo]]
                else:
                    out[k] = exp[t]
    return out


def _scale(F: Field, a, c: int) -> list[int]:
    """Every coefficient times the nonzero element c."""
    if F.k == 1:
        p = F.p
        return [(x * c) % p for x in a]
    exp, log, _ = F._tables()
    lc = log[c]
    return [exp[log[x] + lc] if x else 0 for x in a]


def _neg_logs(F: Field, m) -> list[tuple[int, int]]:
    """(j, log(-m_j)) for the nonzero coefficients below the leading one."""
    _, log, _ = F._tables()
    order, half = F.q - 1, (F.q - 1) // 2
    return [(j, (log[v] + half) % order) for j, v in enumerate(m[:-1]) if v]


def _reduce(F: Field, r: list[int], m, quot: list[int] | None = None, neg_logs=None) -> list[int]:
    """Remainder of the list r (consumed) modulo the monic sequence m.

    The quotient coefficients are written into ``quot`` when a list of
    length len(r) - deg(m) is passed.  Over F_{p^k}, ``neg_logs`` may carry
    ``_neg_logs(F, m)`` computed once for many reductions.
    """
    d = len(m) - 1
    if F.k == 1:
        p, tail = F.p, m[:d]
        for i in range(len(r) - 1, d - 1, -1):
            c = r[i] % p
            if c:
                if quot is not None:
                    quot[i - d] = c
                k = i - d
                for v in tail:
                    r[k] -= c * v
                    k += 1
        return _trim([c % p for c in r[:d]])
    exp, log, zech = F._tables()
    if neg_logs is None:
        neg_logs = _neg_logs(F, m)
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i]
        if c:
            if quot is not None:
                quot[i - d] = c
            lc = log[c]
            s = i - d
            for j, lv in neg_logs:
                k = s + j
                t = lc + lv
                o = r[k]
                if o:
                    lo = log[o]
                    r[k] = exp[lo + zech[t - lo]]
                else:
                    r[k] = exp[t]
    return _trim(r[:d])


@lru_cache(maxsize=64)
def _residue_ring(F: Field, m: tuple[int, ...]):
    """(encode, mulmod, decode) for F[x]/(m), m monic of degree d >= 1.

    Built once per modulus and kept for the most recent 64 moduli:
    ``_distinct_degree`` raises to the q-th power modulo one polynomial
    many times, and each power needs only a few products.

    encode reduces a coefficient sequence, mulmod is the fused product and
    reduction of two encoded residues, decode gives the trimmed list.  Over
    F_{p^k} residues are coefficient lists.  Over F_p a residue is packed
    into one integer, one fixed-width slot per coefficient (Kronecker
    substitution), so a product is one integer multiplication; its slots of
    degree >= d are folded back through the packed rows x^i mod m.
    """
    if F.k > 1:
        neg_logs = _neg_logs(F, m)
        return (
            lambda a: _reduce(F, list(a), m, None, neg_logs),
            lambda a, b: _reduce(F, _mul(F, a, b), m, None, neg_logs),
            list,
        )
    p, d = F.p, len(m) - 1
    # a slot never exceeds 2d(p-1)^2: d products, then at most d - 1 folds
    code, width = _slot_type(2 * d * (p - 1) ** 2)
    row = [(-c) % p for c in m[:d]]  # x^d mod m; each next row is x times it
    rows = [_pack(code, row)]
    for _ in range(d - 2):
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [(u - top * v) % p for u, v in zip(row, m)]
        rows.append(_pack(code, row))
    low = (1 << 8 * width * d) - 1

    def mulmod(a: int, b: int) -> int:
        prod = a * b
        acc = prod & low
        for c, row in zip(_unpack(code, width, prod, 2 * d - 1)[d:], rows):
            c %= p
            if c:
                acc += c * row
        return _pack(code, [c % p for c in _unpack(code, width, acc, d)])

    def encode(a) -> int:
        return _pack(code, _reduce(F, list(a), m))

    def decode(r: int) -> list[int]:
        return _trim(list(_unpack(code, width, r, d)))

    return encode, mulmod, decode


class Poly(Record):
    """Polynomial over a finite field, coefficients constant term first.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading coefficient is nonzero: the constructor takes any sequence
    and drops trailing zeros.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple[int, ...]):
        if not isinstance(coeffs, tuple):
            coeffs = tuple(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        _set_poly_field(self, field)
        _set_poly_coeffs(self, coeffs)

    def __eq__(self, other):
        # fields are interned, so the identity test settles nearly every call
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs and (
                self.field is other.field or self.field == other.field
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

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
        return Poly(self.field, tuple(_mul(self.field, self.coeffs, other.coeffs)))

    def scale(self, c: int) -> "Poly":
        F = self.field
        if c == 0:
            return Poly(F, ())
        return Poly(F, tuple(_scale(F, self.coeffs, c)))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self.coeffs, other.coeffs
        db = len(b) - 1
        if len(a) - 1 < db:
            return Poly(F, ()), self
        lead = b[-1]
        if lead != 1:
            inv_lead = F.inv(lead)
            b = _scale(F, b, inv_lead)
        quot = [0] * (len(a) - db)
        rem = _reduce(F, list(a), b, quot)
        if lead != 1:
            quot = _scale(F, quot, inv_lead)
        return Poly(F, tuple(quot)), Poly(F, tuple(rem))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def __str__(self) -> str:
        return ",".join(map(str, self.coeffs)) if self.coeffs else "0"


# The slots' own setters, which skip the refusing __setattr__.
_set_poly_field = Poly.field.__set__
_set_poly_coeffs = Poly.coeffs.__set__


def poly_x(field: Field) -> Poly:
    return Poly(field, (0, 1))


def poly_one(field: Field) -> Poly:
    return Poly(field, (1,))


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    F = a.field
    x, y = list(a.coeffs), list(b.coeffs)
    while y:
        if y[-1] != 1:
            y = _scale(F, y, F.inv(y[-1]))
        x, y = y, _reduce(F, x, y)
    return Poly(F, tuple(x)).monic()


def pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    """base^e modulo mod, by left-to-right square and multiply."""
    if e < 0:
        raise InputError("negative exponent")
    F = base.field
    m = mod.coeffs
    if not m:
        raise ZeroDivisionError("polynomial division by zero")
    if not e:
        return poly_one(F)
    if len(m) == 1:
        return Poly(F, ())
    if m[-1] != 1:
        m = tuple(_scale(F, m, F.inv(m[-1])))
    encode, mulmod, decode = _residue_ring(F, m)
    return Poly(F, tuple(decode(_residue_pow(mulmod, encode(base.coeffs), e))))


def _residue_pow(mulmod, b, e: int):
    """b^e for e >= 1 in a residue ring, by left-to-right square and
    multiply."""
    r = b
    for bit in bin(e)[3:]:
        r = mulmod(r, r)
        if bit == "1":
            r = mulmod(r, b)
    return r


def _require_monic(f: Poly) -> None:
    if not f.is_monic():
        raise InputError("polynomial must be monic")
    if f.degree < 1:
        raise InputError("polynomial must have degree >= 1")


def require_irreducible_not_x(f: Poly) -> None:
    """Raise InputError unless f is a monic irreducible other than x."""
    if not f.is_monic() or f.degree < 1:
        problem = "is not monic of degree >= 1"
    elif f.constant_term() == 0:
        problem = "is divisible by x"
    elif not is_irreducible(f):
        problem = "is not irreducible"
    else:
        return
    raise InputError(f"{clip(f)} over F_{f.field.q} {problem}")


# Root order of every polynomial listed by monic_irreducibles, which knows it
# from the exponent of the root it was built from; root_order reads it first.
_ROOT_ORDERS: dict[Poly, int] = {}


@lru_cache(maxsize=None)
def is_irreducible(f: Poly) -> bool:
    """Deterministic irreducibility test (Ben-Or).

    f of degree d is irreducible iff gcd(x^(q^i) - x, f) = 1 for every
    i <= d/2, which is exactly when the distinct-degree split yields f
    itself first; the first yield precedes any division, so the test does
    no more than Ben-Or's gcds.  Only the doors for outside input call it
    (through require_irreducible_not_x); the cache answers the polynomials
    that the requests of one session repeat.
    """
    _require_monic(f)
    return next(_distinct_degree(f)) == (f, f.degree)


def _distinct_degree(f: Poly) -> Iterator[tuple[Poly, int]]:
    """Yield (product of the distinct irreducible factors of degree d, d) for
    monic f, in increasing d.

    x^(q^d) - x is squarefree, so its gcd with rest is too; once every factor
    of degree below d has left rest with its whole multiplicity, that gcd is
    the product of the distinct degree-d factors, and each of them leaves
    rest with its multiplicity before d grows.  What remains when no factor
    of degree <= deg(rest)/2 is left is irreducible, as a product or a proper
    power always has one.

    x^(q^d) is kept as a residue of ``_residue_ring(rest)`` from one degree
    to the next; it is decoded for each gcd and encoded again only when
    rest shrinks."""
    F = f.field
    q = F.q
    rest = f
    w = None  # x^(q^d) mod rest, encoded; None when rest has just changed
    x_qd = [0, 1]  # the coefficients of x^(q^d), to encode modulo a new rest
    d = 0
    while rest.degree >= 2 * (d + 1):
        if w is None:
            encode, mulmod, decode = _residue_ring(F, rest.coeffs)
            w = encode(x_qd)
        d += 1
        w = _residue_pow(mulmod, w, q)
        x_qd = decode(w)
        c = x_qd + [0] * (2 - len(x_qd))
        c[1] = F.sub(c[1], 1)
        h = gcd(Poly(F, tuple(c)), rest)
        if h.degree > 0:
            yield h, d
            while h.degree > 0:  # h keeps the factors that still divide rest
                rest = rest // h
                h = gcd(h, rest)
            w = None
    if rest.degree > 0:
        yield rest, rest.degree


def _poly_seed(f: Poly) -> int:
    seed = f.field.q
    for c in f.coeffs:
        seed = seed * f.field.q + c + 1
    return seed


# A product of two or more distinct degree-d irreducibles splits on a random
# try with probability about 1/2 or more, so this many failures in a row
# mean the input is not such a product.
_MAX_SPLIT_TRIES = 64


def _equal_degree(f: Poly, d: int) -> list[Poly]:
    """Cantor-Zassenhaus split of a product of distinct degree-d irreducibles.

    The random choices are seeded from the input so runs are reproducible;
    the caller sorts the output anyway.  RuntimeError when a piece fails
    to split _MAX_SPLIT_TRIES times in a row, as one whose degree d does
    not divide always does.
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
        for _ in range(_MAX_SPLIT_TRIES):
            r = Poly(F, tuple(rng.randrange(q) for _ in range(2 * d)) + (1,))
            g = gcd(pow_mod(r, exponent, h) - one, h)
            if 0 < g.degree < h.degree:
                break
        else:
            raise RuntimeError(
                f"polynomial {f} over F_{q} did not split into degree-{d} factors in "
                f"{_MAX_SPLIT_TRIES} tries"
            )
        stack.append(g)
        stack.append((h // g).monic())
    return result


def factorize(f: Poly) -> list[tuple[Poly, int]]:
    """Full factorization of a monic polynomial into monic irreducibles.

    The distinct-degree split (:func:`_distinct_degree`) runs on f itself,
    Cantor-Zassenhaus splits each of its products, and each irreducible's
    multiplicity is counted by division.  Returns (factor, multiplicity)
    pairs sorted by (degree, coefficient tuple); RuntimeError unless the
    recomposed product equals the input.
    """
    _require_monic(f)
    result = []
    rest = f
    for prod, d in _distinct_degree(f):
        for irr in _equal_degree(prod, d):
            mult = 0
            while True:
                quot, rem = divmod(rest, irr)
                if not rem.is_zero():
                    break
                rest = quot
                mult += 1
            result.append((irr, mult))
    result.sort(key=lambda kv: (kv[0].degree, kv[0].coeffs))
    check = poly_one(f.field)
    for g, m in result:
        for _ in range(m):
            check = check * g
    if check != f:
        raise RuntimeError("factorization failed to recompose")
    return result


@lru_cache(maxsize=None)
def monic_irreducibles(field: Field, d: int) -> tuple[Poly, ...]:
    """All monic irreducibles of degree d, sorted lexicographically.

    Each one other than x is the minimal polynomial of g^e, g the table
    generator of F_Q = F_{q^d}, taken once per Frobenius orbit
    {e q^j mod (Q - 1)} of size d: the product of x - g^(e q^j) over the
    orbit, expanded with F_Q's log tables.  The coefficients lie in the
    subfield F_q and go back to ``field``'s encoding through
    :func:`_subfield_codes`.  The roots have order (Q - 1) / gcd(e, Q - 1),
    which is recorded for :func:`root_order`.  Needs Q <= MAX_FIELD_ORDER.
    """
    if d < 1:
        raise InputError("degree must be positive")
    q = field.q
    if exceeds(q, d, MAX_FIELD_ORDER):
        raise ScaleLimitError(f"field order {q}^{d} exceeds {MAX_FIELD_ORDER}")
    order = q**d - 1
    out = [Poly(field, (0, 1))] if d == 1 else []

    def record(coeffs: tuple[int, ...], e: int) -> None:
        f = Poly(field, coeffs)
        _ROOT_ORDERS[f] = order // int_gcd(e, order)
        out.append(f)

    if d == 1:  # orbits of one element, and F_Q is the field itself
        g = field.multiplicative_generator()
        root = 1
        for e in range(order):
            record((field.neg(root), 1), e)
            root = field.mul(root, g)
    else:
        big = field_make(field.p, field.k * d)
        exp, log, zech = big._tables()
        code = _subfield_codes(field, big)
        half = order // 2
        seen = bytearray(order)
        for e in range(order):
            if seen[e]:
                continue
            orbit = []
            cur = e
            while not seen[cur]:
                seen[cur] = 1
                orbit.append(cur)
                cur = cur * q % order
            if len(orbit) < d:
                continue  # a root of a lower degree
            coeffs = [1]  # times x + (-g^l) for each l; -1 = g^half
            for l in orbit:
                nl = (l + half) % order
                new = [0] + coeffs
                for j, v in enumerate(coeffs):
                    if v:
                        t = log[v] + nl
                        o = new[j]
                        if o:
                            lo = log[o]
                            new[j] = exp[lo + zech[t - lo]]
                        else:
                            new[j] = exp[t]
                coeffs = new
            record(tuple(code[c] for c in coeffs), e)
    out.sort(key=lambda f: f.coeffs)
    return tuple(out)


def _subfield_codes(field: Field, big: Field) -> dict[int, int]:
    """``field``'s code of each element of its copy inside ``big``, keyed by
    ``big``'s code.

    F_p is encoded alike in every field.  For F_q with q = p^k, k > 1, the
    copy is spanned by the powers of a root of ``field``'s modulus, the
    first found among the elements of order dividing q - 1.
    """
    powers = [1]
    if field.k > 1:
        exp = big._tables()[0]
        step = (big.q - 1) // (field.q - 1)
        modulus = Poly(big, field.modulus_coeffs)  # F_p codes, alike in big
        for j in range(field.q - 1):
            r = exp[j * step]
            if not evaluate(modulus, r):
                break
        else:
            raise RuntimeError("no root of the modulus in the extension")  # unreachable
        for _ in range(field.k - 1):
            powers.append(big.mul(powers[-1], r))
    codes = {}
    for a in range(field.q):
        image = 0
        for digit, power in zip(field.digits(a), powers):
            if digit:
                image = big.add(image, big.mul(digit, power))
        codes[image] = a
    if len(codes) != field.q:
        raise RuntimeError("the subfield embedding is not injective")
    return codes


def evaluate(f: Poly, a: int) -> int:
    """f(a), by Horner's rule."""
    F = f.field
    v = 0
    for c in reversed(f.coeffs):
        v = F.add(F.mul(v, a), c)
    return v


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
    return Poly(F, tuple(_scale(F, f.coeffs[::-1], F.inv(f.coeffs[0]))))


def conj_reciprocal(f: Poly) -> Poly:
    """Conjugate reciprocal over a square-order field: the reciprocal of f
    with the order-two automorphism applied coefficientwise, so the roots
    of the result are the conjugate-inverses of the roots of f."""
    F = f.field
    return reciprocal(Poly(F, tuple(F.conj(c) for c in f.coeffs)))


def cyclotomic_values(q: int, d: int) -> dict[int, int]:
    """{k: Phi_k(q)} over the divisors k of d, ascending, whose product is
    q^d - 1: the algebraic split of the Cunningham tables.  In increasing
    k each value is Phi_k(q) = (q^k - 1) / prod_{j | k, j < k} Phi_j(q)."""
    values: dict[int, int] = {}
    for k in divisors(d):
        value = q**k - 1
        for j, earlier in values.items():
            if k % j == 0:
                value //= earlier
        values[k] = value
    return values


@lru_cache(maxsize=None)
def root_order(f: Poly) -> int:
    """Multiplicative order of the roots of a monic irreducible f != x.

    All roots are conjugate so they share one order t; t divides
    q^d - 1, d = deg(f), and d is the multiplicative order of q mod t.
    The primes of q^d - 1 are taken from its pieces Phi_k(q), k | d (see
    :func:`cyclotomic_values`), so only they need to be factored; one
    past MAX_FACTORED_INTEGER raises ScaleLimitError naming d and q.  f is
    not checked: a reducible f gives a meaningless order.
    """
    t = _ROOT_ORDERS.get(f)
    if t is not None:
        return t
    q, d = f.field.q, f.degree
    primes: set[int] = set()
    for k, value in cyclotomic_values(q, d).items():
        try:
            primes.update(factorint(value))
        except ScaleLimitError:
            raise ScaleLimitError(
                f"the root order of a degree-{d} polynomial over F_{q} needs the primes "
                f"of Phi_{k}({q}), past the limit {MAX_FACTORED_INTEGER}"
            ) from None
    t = q**d - 1
    x = poly_x(f.field)
    for prime in primes:
        while t % prime == 0 and pow_mod(x, t // prime, f).is_one():
            t //= prime
    return t


@lru_cache(maxsize=None)
def minimal_polynomial_of_power(f: Poly) -> Poly:
    """Minimal polynomial over F_q of beta^2, beta any root of f, a monic
    irreducible other than x.

    The degree of beta^2 halves exactly when -beta is a conjugate of beta,
    that is when f(-x) = f(x): every odd coefficient of f is 0.  Then
    f = P(x^2) with deg P = d/2 and P(beta^2) = 0, so P, the even-index
    coefficients of f, is the minimal polynomial.  Otherwise the beta_i^2
    over the roots beta_i of f are distinct, and root squaring
    (Dandelin-Graeffe) gives their product G: for f monic of degree d,
    (-1)^d f(x) f(-x) = G(x^2).  f is not checked.
    """
    F = f.field
    a = f.coeffs
    if not any(a[1::2]):
        return Poly(F, a[::2])
    minus = [F.neg(c) if i % 2 else c for i, c in enumerate(a)]  # f(-x)
    h = _mul(F, a, minus)
    if any(h[1::2]):
        raise RuntimeError("f(x) f(-x) has an odd-degree term")
    g = h[::2]
    return Poly(F, tuple(F.neg(c) for c in g) if f.degree % 2 else tuple(g))
