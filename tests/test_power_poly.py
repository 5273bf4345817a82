"""Two-power classification and the order-driven factor profiles of f(x^m),
cross-audited against direct factorization."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarefibers import ffpoly
from squarefibers.ffpoly import (
    Poly,
    factorize,
    field_from_order,
    monic_irreducibles,
    reciprocal,
    root_order,
    substitute_power,
)
from squarefibers.limits import InputError
from squarefibers.power_poly import (
    ReciprocalFamily,
    SkewTwoPower,
    TwoPower,
    butler_profile,
    classify2,
    classify2_star,
    classify2_tilde,
    is_self_conjugate,
    is_self_reciprocal,
    is_two_power,
)


def _irreducibles_without_x(field, d):
    return [f for f in monic_irreducibles(field, d) if f.constant_term() != 0]


def test_butler_profile_examples(F3):
    pr = butler_profile(Poly(F3, (1, 1)), 2)  # x+1: t=2
    assert (pr.m1, pr.m2) == (1, 2)
    assert [(e.degree, e.count, e.root_order) for e in pr.entries] == [(2, 1, 4)]

    pr = butler_profile(Poly(F3, (1, 0, 1)), 2)  # x^2+1: t=4
    assert (pr.m1, pr.m2) == (1, 2)
    assert [(e.degree, e.count, e.root_order) for e in pr.entries] == [(2, 2, 8)]

    pr = butler_profile(Poly(F3, (2, 1)), 2)  # x-1: t=1
    assert (pr.m1, pr.m2) == (2, 1)
    assert [(e.degree, e.count, e.root_order) for e in pr.entries] == [
        (1, 1, 1),
        (1, 1, 2),
    ]


def test_butler_profile_rejects_bad_inputs(F3):
    with pytest.raises(InputError):
        butler_profile(Poly(F3, (1, 1)), 3)  # gcd(m, q) != 1


@pytest.mark.parametrize("patch,message", [
    ("power_poly.n_order = lambda a, n: 3", "factor count of f(x^5) at e = 1 is not integral"),
    ("power_poly.divisors = lambda n: [1]", "profile of f(x^5) has total degree 1, not 5"),
], ids=["wrong-order", "lost-divisor"])
def test_butler_profile_cross_checks_survive_python_O(patch, message):
    # x + 1 over F_3 has t = 2, so m = 5 gives one entry per divisor of 5,
    # of degree n_order(3, 5) = 4; a wrong order or a lost divisor must raise
    probe = (
        "assert False, 'asserts are on'\n"
        "from squarefibers import power_poly\n"
        "from squarefibers.ffpoly import Poly, field_make\n"
        f"{patch}\n"
        "try:\n"
        "    power_poly.butler_profile(Poly(field_make(3, 1), (1, 1)), 5)\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    src = Path(ffpoly.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-O", "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == f"{message}: 1,1\n"


def _assert_profile_matches_factorization(f, m):
    pr = butler_profile(f, m)
    predicted = Counter()
    for e in pr.entries:
        predicted[(e.degree, e.root_order)] += e.count
    observed = Counter()
    for g, mult in factorize(substitute_power(f, m)):
        assert mult == 1, "f(x^m) must be squarefree for gcd(m, q) = 1"
        observed[(g.degree, root_order(g))] += 1
    assert predicted == observed


@pytest.mark.parametrize("q,ms", [(3, (2, 4)), (5, (2, 3, 4))])
def test_butler_profile_agrees_with_factorization(q, ms):
    field = field_from_order(q)
    for d in (1, 2, 3, 4):
        for f in _irreducibles_without_x(field, d):
            for m in ms:
                _assert_profile_matches_factorization(f, m)


def test_classify2_examples(F3):
    cls = classify2(Poly(F3, (2, 1)))  # x-1
    assert isinstance(cls, TwoPower)
    assert {str(cls.f1), str(cls.f2)} == {"1,1", "2,1"}

    cls = classify2(Poly(F3, (1, 1)))  # x+1
    assert isinstance(cls, SkewTwoPower)
    assert str(cls.f_of_x2) == "1,0,1"

    cls = classify2(Poly(F3, (1, 0, 1)))  # x^2+1
    assert isinstance(cls, TwoPower)
    assert (str(cls.f1), str(cls.f2)) == ("2,1,1", "2,2,1")


@pytest.mark.parametrize("q", [3, 5, 9])
def test_classify2_dichotomy_and_product(q):
    field = field_from_order(q)
    for d in (1, 2, 3):
        for f in _irreducibles_without_x(field, d):
            cls = classify2(f)
            if isinstance(cls, TwoPower):
                assert cls.f1 != cls.f2
                assert cls.f1 * cls.f2 == substitute_power(f, 2)
                assert cls.f1.degree == cls.f2.degree == f.degree
            else:
                assert cls.f_of_x2 == substitute_power(f, 2)


# Largest degree per field for the reference grid below.
REFERENCE_GRID = {3: 6, 5: 4, 7: 4, 9: 3, 25: 2, 27: 2}


def test_classify2_equals_the_general_factorization(monkeypatch):
    listed = [
        f
        for q, max_deg in REFERENCE_GRID.items()
        for d in range(1, max_deg + 1)
        for f in _irreducibles_without_x(field_from_order(q), d)
    ]
    want = {}
    for f in listed:
        factors = factorize(substitute_power(f, 2))
        assert all(mult == 1 for _, mult in factors)
        if len(factors) == 1:
            want[f] = SkewTwoPower(factors[0][0])
        else:
            want[f] = TwoPower(*(g for g, _ in factors))

    # Ben-Or must not run: classify2's verdict comes from the norm test and
    # its factors from its own gcds, and got == want compares them with
    # factorize's.
    def no_ben_or(f):
        raise AssertionError(f"distinct-degree split of {f}")

    monkeypatch.setattr(ffpoly, "_distinct_degree", no_ben_or)
    fallbacks = []
    equal_degree = ffpoly._equal_degree

    def spy(g, d):
        fallbacks.append(g)
        return equal_degree(g, d)

    monkeypatch.setattr(ffpoly, "_equal_degree", spy)
    outcomes = Counter()
    for f in listed:
        before = len(fallbacks)
        got = classify2.__wrapped__(f)
        assert got == want[f], f
        if isinstance(got, SkewTwoPower):
            outcomes["skew"] += 1
        else:
            outcomes["fallback" if len(fallbacks) > before else "first gcds"] += 1
    assert set(outcomes) == {"skew", "first gcds", "fallback"}, outcomes
    # the shift a makes the first gcds split almost every two-power f
    assert outcomes["fallback"] * 10 < len(listed), outcomes


def test_norm_verdict_equals_factorization_and_gcds():
    # is_two_power reads only the quadratic character of (-1)^d f(0), and
    # factorize decides the same without it; classify2 returns the norm
    # verdict, and raises when its gcds find a two-power f(x^2) irreducible
    kinds = Counter()
    for q, max_deg in REFERENCE_GRID.items():
        for d in range(1, max_deg + 1):
            for f in _irreducibles_without_x(field_from_order(q), d):
                verdict = is_two_power(f)
                assert verdict == (len(factorize(substitute_power(f, 2))) == 2), f
                assert verdict == isinstance(classify2.__wrapped__(f), TwoPower), f
                kinds[verdict] += 1
    assert kinds[True] and kinds[False], kinds


@pytest.mark.parametrize("q", [3, 5])
def test_skew_iff_single_butler_entry_of_double_degree(q):
    field = field_from_order(q)
    for d in (1, 2, 3):
        for f in _irreducibles_without_x(field, d):
            pr = butler_profile(f, 2)
            single_double = (
                len(pr.entries) == 1
                and pr.entries[0].degree == 2 * f.degree
                and pr.entries[0].count == 1
            )
            assert isinstance(classify2(f), SkewTwoPower) == single_double


@pytest.mark.parametrize("q", [3, 5])
def test_reciprocal_maps_two_power_pairs_to_pairs(q):
    field = field_from_order(q)
    for d in (1, 2):
        for f in _irreducibles_without_x(field, d):
            cls = classify2(f)
            if isinstance(cls, TwoPower):
                other = classify2(reciprocal(f))
                assert isinstance(other, TwoPower)
                assert {reciprocal(cls.f1), reciprocal(cls.f2)} == {
                    other.f1,
                    other.f2,
                }


def test_self_reciprocal_examples(F3):
    assert is_self_reciprocal(Poly(F3, (1, 0, 1)))
    assert not is_self_reciprocal(Poly(F3, (2, 1, 1)))


def test_self_conjugate_example(F9):
    assert is_self_conjugate(Poly(F9, (F9.neg(1), 1)))  # x - 1


def test_classify2_star_examples(F3):
    assert classify2_star(Poly(F3, (2, 1))) is ReciprocalFamily.POWER
    assert classify2_star(Poly(F3, (1, 1))) is ReciprocalFamily.SKEW
    assert classify2_star(Poly(F3, (1, 0, 1))) is ReciprocalFamily.NEITHER


def test_classify2_tilde_examples(F9):
    assert classify2_tilde(Poly(F9, (F9.neg(1), 1))) is ReciprocalFamily.POWER
    # x + 1 over F_9: x^2+1 splits into conjugate-fixed linear factors
    assert classify2_tilde(Poly(F9, (1, 1))) is ReciprocalFamily.POWER


@pytest.mark.parametrize("q2", [9, 25])
def test_classify2_tilde_total_on_self_conjugates(q2):
    field = field_from_order(q2)
    for d in (1, 2):
        for f in monic_irreducibles(field, d):
            if f.constant_term() == 0 or not is_self_conjugate(f):
                continue
            assert classify2_tilde(f) in tuple(ReciprocalFamily)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_classify2_total_and_unique(data):
    q = data.draw(st.sampled_from([3, 5]))
    field = field_from_order(q)
    d = data.draw(st.integers(1, 3))
    f = data.draw(st.sampled_from(monic_irreducibles(field, d)))
    if f.constant_term() == 0:
        return
    cls = classify2(f)
    assert isinstance(cls, (TwoPower, SkewTwoPower))
