"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every tolerance here is exact (zero tolerance); timed criteria assert
their stated wall-clock budgets.
"""

import io
import time
from contextlib import contextmanager, redirect_stdout


from squarefibers.brute_oracle import (
    GroupSpec,
    build_table,
    conjugacy_classes,
    inverse_positions,
    real_classes_oracle,
    representative_index,
    s2_oracle,
    square_fiber_counts,
)
from squarefibers.cli import run
from squarefibers.ffpoly import (
    Poly,
    factorize,
    field_make,
    monic_irreducibles,
    root_order,
    substitute_power,
)
from squarefibers.gl_classes import class_size, enumerate_classes, gl_order, make_class_data
from squarefibers.partitions import Partition
from squarefibers.power_poly import butler_profile
from squarefibers.real_classes import (
    count_order_dividing,
    count_unity_roots_gf,
    real_class_count_direct,
    real_class_count_ms,
)
from squarefibers.square_fibers import (
    audit_existence,
    audit_square_counts,
    count_square_roots,
    has_square_root_symplectic,
)

MASS_SET = [(1, 3), (2, 3), (3, 3), (1, 5), (2, 5), (2, 7)]


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.1f}s)")


def test_criterion_01_class_mass():
    with criterion(1, "class sizes sum to |GL_n(q)| on the desk matrix"):
        start = time.monotonic()
        for n, q in MASS_SET:
            total = sum(class_size(d) for d in enumerate_classes(n, q))
            assert total == gl_order(n, q), (n, q)
        assert time.monotonic() - start < 10


def test_criterion_02_oracle_fiber_equality():
    with criterion(2, "count_square_roots equals the exhaustive fiber everywhere"):
        start = time.monotonic()
        for n, q in [(2, 3), (2, 5), (3, 3)]:
            table = build_table(GroupSpec("gl", n, q))
            fibers = square_fiber_counts(table)
            for data in enumerate_classes(n, q):
                assert fibers[representative_index(table, data)] == count_square_roots(
                    data
                ), (n, q, str(data))
        assert time.monotonic() - start < 60


def test_criterion_03_fixed_fiber_values():
    with criterion(3, "fibers at I_2, -I_2 and -I_3 are 14, 6, 0"):
        F3 = field_make(3, 1)

        def scalar_class(c0_coeffs, n):
            return make_class_data(
                F3, [(Poly(F3, c0_coeffs), Partition(((1, n),)))]
            )

        ident2 = scalar_class((2, 1), 2)
        minus2 = scalar_class((1, 1), 2)
        minus3 = scalar_class((1, 1), 3)
        # reproduce each value with the exhaustive oracle before trusting it
        t2 = build_table(GroupSpec("gl", 2, 3))
        f2 = square_fiber_counts(t2)
        assert f2[representative_index(t2, ident2)] == 14
        assert f2[representative_index(t2, minus2)] == 6
        t3 = build_table(GroupSpec("gl", 3, 3))
        f3 = square_fiber_counts(t3)
        assert f3[representative_index(t3, minus3)] == 0
        assert count_square_roots(ident2) == 14
        assert count_square_roots(minus2) == 6
        assert count_square_roots(minus3) == 0


def test_criterion_04_mass_conservation():
    with criterion(4, "sum of |C| * R(C) equals |GL_n(q)| on the desk matrix"):
        for n, q in MASS_SET:
            total = sum(
                class_size(d) * count_square_roots(d) for d in enumerate_classes(n, q)
            )
            assert total == gl_order(n, q), (n, q)


def test_criterion_05_butler_audit():
    with criterion(5, "order-formula profiles match direct factorization"):
        start = time.monotonic()
        cases = [(3, (2, 4)), (5, (2, 3, 4))]
        for q, ms in cases:
            field = field_make(q, 1)
            for d in (1, 2, 3, 4):
                for f in monic_irreducibles(field, d):
                    if f.constant_term() == 0:
                        continue
                    for m in ms:
                        profile = butler_profile(f, m)
                        predicted = {}
                        for e in profile.entries:
                            key = (e.degree, e.root_order)
                            predicted[key] = predicted.get(key, 0) + e.count
                        observed = {}
                        for g, mult in factorize(substitute_power(f, m)):
                            assert mult == 1
                            key = (g.degree, root_order(g))
                            observed[key] = observed.get(key, 0) + 1
                        assert predicted == observed, (q, str(f), m)
        assert time.monotonic() - start < 30


def test_criterion_06_generating_function():
    with criterion(6, "q-series counts equal class-enumeration counts"):
        assert count_unity_roots_gf(2, 3, 2) == 14  # hand value a_2(q=3, M=2)
        for n in (1, 2, 3):
            for q in (3, 5):
                for M in (2, 4):
                    assert count_unity_roots_gf(n, q, M) == count_order_dividing(
                        n, q, M
                    ), (n, q, M)


def test_criterion_07_real_classes_three_ways():
    with criterion(7, "direct = Murray-Sambale = oracle real-class counts"):
        start = time.monotonic()
        cases = [(1, 3), (1, 5), (1, 7), (2, 3), (2, 5), (3, 3)]
        for n, q in cases:
            direct = real_class_count_direct(n, q)
            ms = real_class_count_ms(n, q)
            table = build_table(GroupSpec("gl", n, q))
            oracle = real_classes_oracle(conjugacy_classes(table), inverse_positions(table))
            assert direct == ms == oracle, (n, q, direct, ms, oracle)
        assert real_class_count_direct(2, 3) == 6
        assert time.monotonic() - start < 90


def test_criterion_08_murray_sambale_beyond_gl():
    with criterion(8, "s2 = |G| * real classes on U, Sp and O kinds"):
        specs = [
            GroupSpec("u", 1, 3),
            GroupSpec("u", 2, 3),
            GroupSpec("sp", 2, 3),
            GroupSpec("sp", 2, 5),
            GroupSpec("o+", 2, 3),
            GroupSpec("o-", 2, 3),
            GroupSpec("o0", 3, 3),
            GroupSpec("o+", 2, 5),
            GroupSpec("o-", 2, 5),
        ]
        for spec in specs:
            table = build_table(spec)
            assert len(table) <= 10**4
            inverse = inverse_positions(table)
            s2 = s2_oracle(square_fiber_counts(table), inverse)
            real = real_classes_oracle(conjugacy_classes(table), inverse)
            assert s2 == len(table) * real, spec


def test_criterion_09_audits_expose_the_printed_formulas():
    with criterion(9, "audits flag the closed form at I, -I and the Sp -I clause"):
        report = audit_square_counts(2, 3, include_oracle=True)
        assert len(report.records) == 8
        flagged = {r.subject: r for r in report.records if r.mismatches}
        assert "(2,1)->1^2" in flagged, "identity closed-form mismatch not flagged"
        assert "(1,1)->1^2" in flagged, "minus-identity closed-form mismatch not flagged"
        ident = dict(flagged["(2,1)->1^2"].values)
        minus = dict(flagged["(1,1)->1^2"].values)
        assert (ident["closed_form"], ident["centralizer_index_sum"]) == ("6", "14")
        assert (minus["closed_form"], minus["centralizer_index_sum"]) == ("1", "6")
        # the authoritative count matches the oracle on every record
        for r in report.records:
            values = dict(r.values)
            assert values["oracle_fiber"] == values["centralizer_index_sum"]
        sp = audit_existence("sp", has_square_root_symplectic, 2, 3)
        sp_flagged = [r for r in sp.records if r.mismatches]
        assert [r.subject for r in sp_flagged] == ["(1,1)->1^2"]
        assert dict(sp_flagged[0].values)["criterion"] == "false"
        assert int(dict(sp_flagged[0].values)["oracle_fiber"]) > 0


def test_criterion_10_byte_identical_output():
    with criterion(10, "reruns give identical JSON"):
        commands = [
            ["classify-poly", "--q", "3", "--poly", "1,1", "--m", "2"],
            ["classes", "--n", "2", "--q", "3"],
            ["classes", "--n", "3", "--q", "3"],
            [
                "sqrt-count",
                "--group",
                "gl",
                "--q",
                "3",
                "--class",
                '{"entries":[{"poly":"1,1","partition":"1^2"}]}',
            ],
            ["audit-squares", "--n", "2", "--q", "3", "--oracle"],
            ["audit-squares", "--group", "sp", "--n", "2", "--q", "3"],
            ["real-classes", "--n", "2", "--q", "3"],
            ["oracle", "--kind", "u", "--n", "2", "--q", "3", "--report", "s2"],
        ]

        def capture(argv):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = run(argv)
            assert code == 0
            return buf.getvalue()

        first = [capture(argv) for argv in commands]
        second = [capture(argv) for argv in commands]
        assert first == second
