"""Integer number theory against sympy as the reference, on both sides of
2^64, and a guard that the CLI's import and class-side verbs never load
sympy."""

import os
import subprocess
import sys
from math import gcd

import pytest
import sympy

import squarefibers
from squarefibers import numtheory
from squarefibers.ffpoly import Poly, field_make, is_irreducible, pow_mod, root_order
from squarefibers.numtheory import divisors, factorint, mobius, n_order, totient

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
    with pytest.raises(ImportError):
        factorint(WORD + 13)


def test_from_2_to_the_64_sympy_answers():
    assert sympy.isprime(WORD + 13)
    assert dict(factorint(WORD + 13)) == {WORD + 13: 1}
    n = (2**32 - 5) * (2**32 + 15)
    assert n >= WORD
    assert dict(factorint(n)) == sympy.factorint(n) == {2**32 - 5: 1, 2**32 + 15: 1}
    assert list(factorint(n)) == sorted(factorint(n))


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
