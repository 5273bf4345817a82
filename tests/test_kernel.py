"""The F_q[x] kernel against reference arithmetic written out in the tests.

Field operations are checked on every pair of elements against digit-wise
arithmetic on residues of F_p[y] modulo the field's modulus (``RefField`` in
conftest.py).  Polynomial products, division, gcd and modular powers are
checked against schoolbook routines that call one field operation at a time.
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squarefibers
from squarefibers import ffpoly
from squarefibers.ffpoly import Poly, field_from_order, gcd, pow_mod
from squarefibers.matrices import mat_mul

from conftest import RefField


@pytest.mark.parametrize("q", [9, 25, 27, 49, 81, 125])
def test_zech_field_ops_match_digitwise_arithmetic_on_every_pair(q):
    F = field_from_order(q)
    R = RefField(F)
    for a in range(q):
        assert F.neg(a) == R.neg(a)
        if a:
            assert F.inv(a) == R.inv(a)
        for b in range(q):
            assert F.add(a, b) == R.add(a, b), (a, b)
            assert F.sub(a, b) == R.sub(a, b), (a, b)
            assert F.mul(a, b) == R.mul(a, b), (a, b)


# -- schoolbook polynomial arithmetic on coefficient tuples ---------------------


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def ref_mul(R, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = R.add(out[i + j], R.mul(x, y))
    return _trim(out)


def ref_divmod(R, a, b):
    a = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), _trim(a)
    inv_lead = R.inv(b[-1])
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            c = R.mul(c, inv_lead)
            quot[i - db] = c
            for j in range(db + 1):
                a[i - db + j] = R.sub(a[i - db + j], R.mul(c, b[j]))
    return _trim(quot), _trim(a[:db])


def ref_gcd(R, a, b):
    while b:
        a, b = b, ref_divmod(R, a, b)[1]
    if not a:
        return ()
    inv_lead = R.inv(a[-1])
    return tuple(R.mul(inv_lead, c) for c in a)


def ref_pow_mod(R, base, e, mod):
    result = (1,)
    base = ref_divmod(R, base, mod)[1]
    while e:
        if e & 1:
            result = ref_divmod(R, ref_mul(R, result, base), mod)[1]
        base = ref_divmod(R, ref_mul(R, base, base), mod)[1]
        e >>= 1
    return result


@st.composite
def poly_cases(draw):
    q = draw(st.sampled_from([3, 5, 9, 25]))
    F = field_from_order(q)
    coeffs = st.lists(st.integers(0, q - 1), max_size=12)
    a = _trim(draw(coeffs))
    b = _trim(draw(coeffs))
    divisor = _trim(draw(coeffs) + [draw(st.integers(1, q - 1))])
    e = draw(st.one_of(st.integers(0, 64), st.integers(0, q**6)))
    return F, a, b, divisor, e


@settings(max_examples=300, deadline=None)
@given(poly_cases())
def test_poly_kernel_matches_schoolbook_reference(case):
    F, a, b, divisor, e = case
    R = RefField(F)
    pa, pb, pd = Poly(F, a), Poly(F, b), Poly(F, divisor)
    assert (pa * pb).coeffs == ref_mul(R, a, b)
    quot, rem = divmod(pa, pd)
    assert (quot.coeffs, rem.coeffs) == ref_divmod(R, a, divisor)
    assert gcd(pa, pb).coeffs == ref_gcd(R, a, b)
    assert gcd(pa, pd).coeffs == ref_gcd(R, a, divisor)
    assert pow_mod(pa, e, pd).coeffs == ref_pow_mod(R, a, e, divisor)


# -- set-up cost ----------------------------------------------------------------


def test_importing_the_cli_builds_no_field_tables():
    probe = (
        "import gc, squarefibers.cli\n"
        "from squarefibers.ffpoly import Field, field_make\n"
        "def built():\n"
        "    fields = [o for o in gc.get_objects() if isinstance(o, Field)]\n"
        "    slots = ('_exp', '_log', '_zech')\n"
        "    return sum(getattr(F, s) is not None for F in fields for s in slots)\n"
        "after_import = built()\n"
        "field_make(3, 2).mul(2, 4)\n"
        "print(after_import, built())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(squarefibers.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    # none after the import; the probe does see the three of F_9 once used
    assert out.stdout.split() == ["0", "3"]


def test_query_verbs_load_only_the_code_they_run():
    probe = (
        "import contextlib, io, sys\n"
        "import squarefibers.cli as cli\n"
        "DEFERRED = ('dataclasses', 'inspect', 'datetime', 'csv', 'squarefibers.brute_oracle',\n"
        "            'squarefibers.matrices', 'squarefibers.real_classes', 'squarefibers.audits')\n"
        "def loaded():\n"
        "    return ' '.join(m for m in DEFERRED if m in sys.modules) or '-'\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        return str(cli.run(list(argv)))\n"
        "print(loaded())\n"
        "codes = [\n"
        "    run('sqrt-count', '--group', 'gl', '--q', '3', '--class',\n"
        "        '{\"entries\": [{\"poly\": \"1,1\", \"partition\": \"1^2\"}]}'),\n"
        "    run('classify-poly', '--q', '9', '--poly', '4,1', '--m', '2'),\n"
        "    run('classes', '--n', '2', '--q', '3'),\n"
        "]\n"
        "print(loaded(), *codes)\n"
        "codes = [run('oracle', '--kind', 'gl', '--n', '2', '--q', '3', '--report', 'real'),\n"
        "         run('real-classes', '--n', '2', '--q', '3')]\n"
        "print(*codes)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(squarefibers.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    # the oracle, the real-class code and the audits load only in the verbs that run them
    assert out.stdout.splitlines() == ["-", "- 0 0 0", "0 0"]


@pytest.mark.parametrize("q", [5, 9])
def test_pow_mod_builds_the_residue_ring_once_per_modulus(q):
    F = field_from_order(q)
    modulus = Poly(F, (2, 0, 1, 3, 1))
    ffpoly._residue_ring.cache_clear()
    for base, e in [((1, 1), q), ((0, 1), q**2), ((2, 1, 1), 7), ((3,), 11)]:
        pow_mod(Poly(F, base), e, modulus)
    # a non-monic modulus is made monic first, so it shares the ring
    pow_mod(Poly(F, (0, 1)), q, Poly(F, tuple(F.mul(2, c) for c in modulus.coeffs)))
    info = ffpoly._residue_ring.cache_info()
    assert (info.misses, info.hits) == (1, 4)


@pytest.mark.parametrize("q", [9, 25])
def test_mat_mul_matches_the_dense_product_on_sparse_matrices(q):
    # the reference multiplies every pair of entries, zeros included;
    # mat_mul skips a zero on either side
    F = field_from_order(q)
    R = RefField(F)
    rng = random.Random(q)
    for _ in range(40):
        n, inner, m = (rng.randint(1, 5) for _ in range(3))
        density = rng.choice([0.0, 0.3, 0.7, 1.0])

        def entry():
            return rng.randrange(1, q) if rng.random() < density else 0

        a = tuple(tuple(entry() for _ in range(inner)) for _ in range(n))
        b = tuple(tuple(entry() for _ in range(m)) for _ in range(inner))
        dense = []
        for row in a:
            out = []
            for j in range(m):
                acc = 0
                for t in range(inner):
                    acc = R.add(acc, R.mul(row[t], b[t][j]))
                out.append(acc)
            dense.append(tuple(out))
        assert mat_mul(F, a, b) == tuple(dense)
