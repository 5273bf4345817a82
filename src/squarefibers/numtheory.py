"""Exact integer number theory for field orders, root orders and series.

Factorization is trial division by a prime table, then Pollard's rho on
what is left, with primality from Miller-Rabin on the bases {2, 325,
9375, 28178, 450775, 9780504, 1795265022}, which is a proven primality
test for every n < 2^64.  That range is the whole of it: factorint
refuses any n past MAX_FACTORED_INTEGER = 2^64 - 1 with ScaleLimitError,
so every call ends in bounded time.  A root order never factors q^d - 1
whole, only its cyclotomic pieces (see ffpoly.root_order).
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from math import gcd, isqrt
from types import MappingProxyType

from .limits import MAX_FACTORED_INTEGER, MAX_FIELD_ORDER, InputError, ScaleLimitError, clip


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(i for i, flag in enumerate(flags) if flag)


_SMALL_PRIMES = _primes_below(1000)
_TRIAL_BOUND = 1000 * 1000  # a number below it without a small factor is prime
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def _miller_rabin(n: int) -> bool:
    """Primality of odd n < 2^64 with no prime factor below 1000."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (0, 1, n - 1):  # 0: n divides the base, so n is prime
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the odd composite n (Pollard's rho, Floyd's cycle)."""
    for c in range(1, n):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(abs(x - y), n)
        if g != n:
            return g
    raise RuntimeError("rho found no factor")  # unreachable for composite n


@lru_cache(maxsize=256)
def factorint(n: int) -> Mapping[int, int]:
    """Prime factorization of n >= 1 as a read-only {prime: exponent} map,
    primes ascending.  An n past MAX_FACTORED_INTEGER raises ScaleLimitError."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    if n > MAX_FACTORED_INTEGER:
        raise ScaleLimitError(f"cannot factor {clip(n)}: past the limit {MAX_FACTORED_INTEGER}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_BOUND or _miller_rabin(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            stack += [d, m // d]
    return MappingProxyType(dict(sorted(out.items())))


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def totient(n: int) -> int:
    """Euler's phi of n >= 1."""
    for p in factorint(n):
        n = n // p * (p - 1)
    return n


def mobius(n: int) -> int:
    """The Moebius function of n >= 1."""
    exps = factorint(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


def n_order(a: int, n: int) -> int:
    """Multiplicative order of a modulo n >= 1; requires gcd(a, n) = 1."""
    if gcd(a, n) != 1:
        raise ValueError(f"gcd({a}, {n}) != 1")
    t = totient(n)
    for p in factorint(t):
        while t % p == 0 and pow(a, t // p, n) == 1:
            t //= p
    return t


def odd_prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k, once q passes the checks of a field order: an
    odd prime power, at most MAX_FIELD_ORDER."""
    if not isinstance(q, int) or q < 3:
        raise InputError(f"bad field order {clip(q)}")
    if q > MAX_FIELD_ORDER:
        raise ScaleLimitError(f"field order {clip(q)} exceeds {MAX_FIELD_ORDER}")
    fac = factorint(q)
    if len(fac) != 1:
        raise InputError(f"{q} is not a prime power")
    (p, k), = fac.items()
    if p == 2:
        raise InputError("even characteristic is not supported")
    return p, k
