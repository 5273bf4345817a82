"""Real-class counts by enumeration, by |s(2)|/|G|, by q-series, and the
audit of the published counting statement."""

import io
import sys
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from squarefibers import real_classes
from squarefibers.brute_oracle import (
    GroupSpec,
    build_table,
    conjugacy_classes,
    inverse_positions,
    real_classes_oracle,
)
from squarefibers.cli import run
from squarefibers.gl_classes import class_count, gl_order
from squarefibers.limits import InputError
from squarefibers.real_classes import (
    audit_real_counts,
    count_order_dividing,
    count_order_exactly,
    count_unity_roots_gf,
    real_class_count_direct,
    real_class_count_ms,
    real_class_count_theorem,
    s2_cardinality,
)


def test_count_order_dividing_examples():
    assert count_order_dividing(2, 3, 2) == 14
    assert count_order_dividing(2, 3, 4) == 20
    for q in (3, 5, 7):
        assert count_order_dividing(1, q, 2) == 2


def test_count_order_exactly_examples():
    assert count_order_exactly(2, 3, 2) == 13
    assert count_order_exactly(2, 3, 4) == 6
    assert count_order_exactly(1, 3, 2) == 1


def test_count_order_dividing_handles_p_dividing_m():
    # order-3 elements of GL_2(3) are the two unipotent classes of size 8
    assert count_order_dividing(2, 3, 3) == 1 + 8
    assert count_order_exactly(2, 3, 3) == 8


def test_count_unity_roots_gf_examples():
    assert count_unity_roots_gf(2, 3, 2) == 14
    for n, q in [(1, 3), (2, 3), (3, 3), (2, 5)]:
        assert count_unity_roots_gf(n, q, 1) == 1


def test_count_unity_roots_gf_rejects_p_dividing_m():
    with pytest.raises(InputError):
        count_unity_roots_gf(2, 3, 6)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("M", [2, 4])
def test_generating_function_matches_class_enumeration(n, q, M):
    assert count_unity_roots_gf(n, q, M) == count_order_dividing(n, q, M)


def test_real_class_count_direct_examples():
    for q in (3, 5, 7, 9):
        assert real_class_count_direct(1, q) == 2
    assert real_class_count_direct(2, 3) == 6
    assert real_class_count_direct(2, 5) == 8  # oracle-confirmed regression value


def test_s2_cardinality_examples():
    assert s2_cardinality(2, 3) == 288
    assert s2_cardinality(1, 3) == 4
    assert s2_cardinality(1, 5) == 8


def test_ms_equals_direct():
    for n, q in [(1, 3), (1, 5), (1, 7), (2, 3), (2, 5), (3, 3), (2, 7)]:
        assert real_class_count_ms(n, q) == real_class_count_direct(n, q)


def test_s2_divisible_by_group_order():
    for n, q in [(1, 3), (2, 3), (3, 3), (2, 5)]:
        assert s2_cardinality(n, q) % gl_order(n, q) == 0


@pytest.mark.parametrize("n,q", [(1, 3), (1, 5), (1, 7), (2, 3), (2, 5), (3, 3)])
def test_real_count_matches_oracle(n, q):
    table = build_table(GroupSpec("gl", n, q))
    oracle = real_classes_oracle(conjugacy_classes(table), inverse_positions(table))
    assert real_class_count_direct(n, q) == oracle


def test_theorem_evaluator_conventions_on_gl1():
    # the two readings bracket the true value 2
    assert real_class_count_theorem(1, 3, "exact-order") == 1
    assert real_class_count_theorem(1, 3, "order-dividing") == 2


def test_theorem_evaluator_records_gl2_values():
    # neither convention reproduces the true count 6; values are recorded,
    # not asserted correct
    dividing = real_class_count_theorem(2, 3, "order-dividing")
    exact = real_class_count_theorem(2, 3, "exact-order")
    assert dividing == Fraction(49, 8)
    assert exact == Fraction(67, 12)
    assert real_class_count_direct(2, 3) == 6


def test_theorem_evaluator_rejects_unknown_convention():
    with pytest.raises(InputError):
        real_class_count_theorem(2, 3, "whatever")


def test_audit_real_counts_structure():
    report = audit_real_counts(2, 3)
    subjects = [r.subject for r in report.records]
    assert subjects[0] == "real class count"
    assert "elements with g^2 = 1" in subjects
    assert "elements with g^4 = 1" in subjects
    mech = [r for r in report.records if not r.subject.startswith("published")]
    assert all(not r.mismatches for r in mech)
    published = [r for r in report.records if r.subject.startswith("published")]
    assert len(published) == 2
    assert all(r.mismatches for r in published)  # both conventions miss at (2, 3)


def test_audit_real_counts_gl1():
    report = audit_real_counts(1, 3)
    by_subject = {r.subject: r for r in report.records}
    assert not by_subject["published statement (order-dividing)"].mismatches
    assert by_subject["published statement (exact-order)"].mismatches


def test_full_audit_makes_one_class_pass_per_statistic(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("count_square_roots", "element_order_of_class", "enumerate_classes"):
        orig = getattr(real_classes, name)
        wrapper = counted(name, orig)
        # every module that imported the function holds its own binding
        for modname, module in list(sys.modules.items()):
            if modname.startswith("squarefibers") and getattr(module, name, None) is orig:
                monkeypatch.setattr(module, name, wrapper)
    real_classes._order_histogram.cache_clear()
    real_classes._fiber_sums.cache_clear()
    with redirect_stdout(io.StringIO()):
        assert run(["real-classes", "--n", "3", "--q", "3"]) == 0
    assert calls["count_square_roots"] == class_count(3, 3)
    assert calls["element_order_of_class"] == class_count(3, 3)
    assert calls["enumerate_classes"] <= 3
