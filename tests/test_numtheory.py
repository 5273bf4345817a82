"""Integer number theory against sympy as the test reference: factorint
below 2^64 and its refusal above, root orders and Butler profiles past
2^64 through the cyclotomic pieces of q^d - 1, and a guard that the
CLI's import and verbs never load sympy."""

import os
import subprocess
import sys
import time
from math import gcd, prod

import pytest
import sympy

import squarefibers
from squarefibers import numtheory
from squarefibers.ffpoly import (
    Poly,
    cyclotomic_values,
    field_from_order,
    field_make,
    is_irreducible,
    pow_mod,
    root_order,
)
from squarefibers.limits import MAX_FACTORED_INTEGER, ScaleLimitError
from squarefibers.numtheory import divisors, factorint, mobius, n_order, totient
from squarefibers.power_poly import butler_profile

WORD = 2**64
ODD_PRIME_POWERS = [q for q in range(3, 126, 2) if len(sympy.factorint(q)) == 1]
Q_POWERS_MINUS_ONE = [q**d - 1 for q in ODD_PRIME_POWERS for d in range(1, 25)]


def test_factorint_below_20000():
    for n in range(1, 20000):
        assert dict(factorint(n)) == sympy.factorint(n), n


def test_factorint_lists_primes_ascending_and_is_read_only():
    fac = factorint(2 * 3**2 * 1009 * 2147483647)
    assert list(fac) == [2, 3, 1009, 2147483647]
    with pytest.raises(TypeError):
        fac[5] = 1
    for n in (0, -7):
        with pytest.raises(ValueError):
            factorint(n)


def test_q_powers_minus_one_below_2_to_the_64():
    for n in (n for n in Q_POWERS_MINUS_ONE if n < WORD):
        assert dict(factorint(n)) == sympy.factorint(n), n


def test_divisors_totient_mobius_below_5000():
    for n in range(1, 5000):
        assert divisors(n) == sympy.divisors(n), n
        assert totient(n) == sympy.totient(n), n
        assert mobius(n) == sympy.mobius(n), n


def test_n_order_against_sympy():
    for a in (3, 5, 7, 9, 25, 49):
        assert n_order(a, 1) == 1
        for s in range(2, 3000):
            if gcd(a, s) == 1:
                assert n_order(a, s) == sympy.n_order(a, s), (a, s)
    with pytest.raises(ValueError):
        n_order(3, 6)


@pytest.mark.parametrize("n", [
    2047, 3215031751,  # strong pseudoprimes to base 2
    561, 41041,  # Carmichael numbers
    3825123056546413051,  # strong pseudoprime to every prime base up to 23
    # strong pseudoprimes to several bases with no prime factor below 1000,
    # so trial division cannot settle them
    25326001, 2152302898747, 3474749660383, 341550071728321,
])
def test_pseudoprimes_are_composite(n):
    assert not numtheory._miller_rabin(n)
    assert list(factorint(n)) != [n]
    assert dict(factorint(n)) == sympy.factorint(n)


def test_edges_of_trial_division_and_of_the_bases():
    # the least numbers past the trial bound with no factor below 1000
    assert dict(factorint(1009**2)) == {1009: 2}
    assert dict(factorint(1009 * 1013)) == {1009: 1, 1013: 1}
    # rho's first sequence (c = 1) meets both primes at once here, so only
    # a retry with the next c splits it
    assert dict(factorint(1009 * 1709)) == {1009: 1, 1709: 1}
    assert dict(factorint(1000003)) == {1000003: 1}
    # a prime that divides the base 1795265022, which it reduces to 0
    assert numtheory._miller_rabin(299210837)
    assert dict(factorint(299210837)) == {299210837: 1}
    assert dict(factorint(6 * 299210837)) == {2: 1, 3: 1, 299210837: 1}


def test_below_2_to_the_64_needs_no_sympy(monkeypatch):
    factorint.cache_clear()
    monkeypatch.setitem(sys.modules, "sympy", None)  # any import of it fails
    assert dict(factorint(WORD - 59)) == {WORD - 59: 1}
    # a semiprime of two 31- and 32-bit primes: only rho can split it
    assert dict(factorint((2**31 - 1) * (2**32 - 5))) == {2**31 - 1: 1, 2**32 - 5: 1}
    assert dict(factorint((2**31 - 1) ** 2)) == {2**31 - 1: 2}
    with pytest.raises(ScaleLimitError):
        factorint(WORD + 13)


def test_from_2_to_the_64_factorint_refuses_at_once():
    assert MAX_FACTORED_INTEGER == WORD - 1
    assert dict(factorint(WORD - 1)) == sympy.factorint(WORD - 1)
    # a prime, a product of two 32-bit primes that rho would split, and a
    # 63-digit number whose message shows only its first 60 digits
    for n in (WORD + 13, (2**32 - 5) * (2**32 + 15), 3**130 - 1):
        start = time.perf_counter()
        with pytest.raises(ScaleLimitError) as info:
            factorint(n)
        assert time.perf_counter() - start < 0.5
        assert len(str(info.value)) < 150


def test_cyclotomic_values_against_sympy():
    # every (q, d) whose q^d - 1 is below 2^64, and a few past it
    cells = [(q, d) for q in ODD_PRIME_POWERS for d in range(1, 65) if q**d - 1 < WORD]
    for q, d in cells + [(3, 41), (3, 64), (125, 12), (1048573, 6)]:
        values = cyclotomic_values(q, d)
        assert list(values) == sympy.divisors(d)
        assert prod(values.values()) == q**d - 1
        for k, value in values.items():
            assert value == sympy.cyclotomic_poly(k, q), (q, d, k)
        if q**d - 1 < WORD:
            primes = {p for value in values.values() for p in factorint(value)}
            assert primes == set(factorint(q**d - 1)), (q, d)


# (q, d): answered iff every Phi_k(q), k | d, is at most 2^64 - 1
ANSWERED = [(3, d) for d in range(1, 33)] + [(3, 41), (7, 23), (1048573, 4), (1048573, 6)]
REFUSED = [(5, 29), (7, 29), (25, 17), (65537, 9), (1048573, 5), (1048573, 7), (1048573, 11)]


def test_root_order_is_refused_exactly_past_the_cyclotomic_bound():
    for q, d in ANSWERED:
        assert max(cyclotomic_values(q, d).values()) <= MAX_FACTORED_INTEGER, (q, d)
    for q, d in REFUSED:
        assert max(cyclotomic_values(q, d).values()) > MAX_FACTORED_INTEGER, (q, d)
        # root_order does not check f, and refuses before any power is taken
        f = Poly(field_from_order(q), (1,) * (d + 1))
        with pytest.raises(ScaleLimitError, match=f"degree-{d} polynomial over F_{q} "):
            root_order(f)


def test_root_order_past_2_to_the_64_matches_sympy():
    F = field_make(3, 1)
    f = Poly(F, (1, 2) + (0,) * 39 + (1,))  # x^41 + 2x + 1
    assert is_irreducible(f)
    n = 3**41 - 1
    assert n >= WORD
    t = root_order(f)
    x = Poly(F, (0, 1))
    # the order of x modulo f, from sympy's primes of 3^41 - 1
    want = n
    for prime in sympy.factorint(n):
        while want % prime == 0 and pow_mod(x, want // prime, f).is_one():
            want //= prime
    assert t == want
    assert pow_mod(x, t, f).is_one()
    assert all(not pow_mod(x, t // r, f).is_one() for r in sympy.factorint(t))


@pytest.mark.parametrize("m", [2, 5])
def test_butler_profile_past_2_to_the_64_needs_no_sympy(m, monkeypatch):
    F = field_make(3, 1)
    f = Poly(F, (1, 2) + (0,) * 39 + (1,))  # x^41 + 2x + 1, as above
    with monkeypatch.context() as patch:
        patch.setitem(sys.modules, "sympy", None)  # any import of it fails
        root_order.cache_clear()
        profile = butler_profile(f, m)
    assert profile.total_degree() == 41 * m
    assert all(e.root_order >= WORD for e in profile.entries)
    for e in profile.entries:
        assert e.degree == sympy.n_order(3, e.root_order), e


def test_cli_import_and_class_verbs_load_no_sympy():
    probe = (
        "import io, sys, contextlib\n"
        "from squarefibers.cli import run\n"
        "cls = '{\"entries\":[{\"poly\":\"1,1\",\"partition\":\"1^2\"}]}'\n"
        "argvs = [['classes', '--n', '3', '--q', '3'],\n"
        "         ['sqrt-count', '--group', 'gl', '--n', '2', '--q', '3', '--class', cls],\n"
        "         ['classify-poly', '--q', '9', '--poly', '4,1', '--m', '2'],\n"
        "         ['real-classes', '--n', '2', '--q', '3']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [run(argv) for argv in argvs]\n"
        "print(*codes, 'sympy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(squarefibers.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0", "0", "0", "0", "False"]
