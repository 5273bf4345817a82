"""The independent routes to each number stay independent, and the fiber
routes trust their input.

Each route runs on small inputs under a ``sys.setprofile`` spy that records
every ``squarefibers`` function it reaches, and the test asserts which
functions it must not reach.  Before a route runs its inputs are built and
every lru_cache of the package is cleared, so no cached answer hides a call.
Polynomials are checked once, where they enter (``formats`` and the
``classify-poly`` verb); past that door no route runs an irreducibility test.
"""

import sys

import pytest

from squarefibers import cli, ffpoly
from squarefibers.ffpoly import field_from_order, monic_irreducibles, substitute_power
from squarefibers.gl_classes import enumerate_classes
from squarefibers.power_poly import classify2
from squarefibers.real_classes import (
    _order_histogram,
    count_unity_roots_gf,
    real_class_count_direct,
    real_class_count_ms,
    real_class_product,
    s2_cardinality,
)
from squarefibers.square_fibers import (
    ClosedFormUndefined,
    closed_form_count,
    count_square_roots,
    has_square_root_gl,
    square_class,
    square_root_classes,
)

# Fields are interned by these two caches; clearing them would make a second
# instance of a field that is already in use.
_KEPT_CACHES = {ffpoly.field_make, ffpoly.field_from_order}


def _clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if not name.startswith("squarefibers."):
            continue
        for fn in vars(module).values():
            if (
                hasattr(fn, "cache_clear")
                and getattr(fn, "__module__", None) == name
                and fn not in _KEPT_CACHES
            ):
                fn.cache_clear()


@pytest.fixture
def reached():
    """reached(route) runs route() and returns the ``module.qualname`` of
    every package function it called."""

    def run(route) -> set[str]:
        _clear_caches()
        names: set[str] = set()

        def spy(frame, event, arg):
            if event == "call":
                module = frame.f_globals.get("__name__", "")
                if module.startswith("squarefibers."):
                    names.add(f"{module[len('squarefibers.'):]}.{frame.f_code.co_qualname}")

        sys.setprofile(spy)
        try:
            route()
        finally:
            sys.setprofile(None)
        return names

    return run


def _in_module(names: set[str], module: str) -> set[str]:
    return {name for name in names if name.startswith(module + ".")}


def _irreducibles_not_x(q: int, max_degree: int):
    field = field_from_order(q)
    return [
        f
        for d in range(1, max_degree + 1)
        for f in monic_irreducibles(field, d)
        if f.coeffs != (0, 1)
    ]


def test_direct_real_count_reaches_no_fiber_count(reached):
    names = reached(lambda: real_class_count_direct(3, 3))
    assert "real_classes.real_class_count_direct" in names
    assert "square_fibers.count_square_roots" not in names
    assert "real_classes.s2_cardinality" not in names


def test_murray_sambale_count_reaches_no_inverse_class(reached):
    names = reached(lambda: real_class_count_ms(3, 3))
    assert "real_classes.s2_cardinality" in names
    assert "gl_classes.inverse_class" not in names


@pytest.mark.parametrize(
    "route", [real_class_count_direct, s2_cardinality, _order_histogram],
    ids=["direct", "ms", "histogram"],
)
def test_count_routes_walk_orbit_labels_not_polynomials(reached, route):
    names = reached(lambda: route(4, 9))
    assert "real_classes.orbit_labels" in names
    assert not _in_module(names, "ffpoly")
    assert "gl_classes.enumerate_classes" not in names
    assert "gl_classes.inverse_class" not in names


def test_direct_real_count_reaches_no_block_value(reached):
    names = reached(lambda: real_class_count_direct(4, 5))
    assert "square_fibers._block_value" not in names


def test_real_class_product_reaches_no_class_walk(reached):
    names = reached(lambda: real_class_product(12, 3))
    assert _in_module(names, "gl_classes") == {"gl_classes.real_class_product"}
    assert not _in_module(names, "real_classes")


def test_q_series_count_reaches_no_class_walk(reached):
    names = reached(lambda: count_unity_roots_gf(3, 3, 4))
    assert "real_classes.count_unity_roots_gf" in names
    assert "gl_classes.enumerate_classes" not in names


def test_classify2_reaches_no_root_order(reached):
    polys = _irreducibles_not_x(9, 3)
    names = reached(lambda: [classify2(f) for f in polys])
    assert "power_poly.classify2" in names
    assert "ffpoly.root_order" not in names


def test_fiber_routes_run_no_irreducibility_test(reached):
    # class data and polynomials are irreducible by construction past the door
    classes = list(enumerate_classes(3, 3))
    polys = _irreducibles_not_x(9, 3)

    def route():
        for data in classes:
            count_square_roots(data)
            square_root_classes(data)
            square_class(data)
        for f in polys:
            classify2(f)

    names = reached(route)
    assert "square_fibers.square_class" in names
    assert "power_poly.classify2" in names
    assert "ffpoly.is_irreducible" not in names


def test_fiber_count_reaches_neither_classify2_nor_factorize(reached):
    classes = list(enumerate_classes(3, 3))
    names = reached(lambda: [count_square_roots(data) for data in classes])
    assert "square_fibers.count_square_roots" in names
    assert "power_poly.is_two_power" not in names
    assert "power_poly.classify2" not in names
    assert "ffpoly.factorize" not in names


def test_existence_and_closed_form_read_only_the_norm_test(reached):
    # the two-power verdict is the norm's quadratic character: no modular
    # power, no gcd, no factorization of f(x^2) and no root order
    classes = list(enumerate_classes(3, 3)) + list(enumerate_classes(2, 9))

    def route():
        for data in classes:
            if has_square_root_gl(data):
                try:
                    closed_form_count(data)
                except ClosedFormUndefined:
                    pass

    names = reached(route)
    assert {"power_poly.is_two_power", "square_fibers.closed_form_count"} <= names
    for name in ("ffpoly.pow_mod", "ffpoly.gcd", "power_poly.classify2", "ffpoly.root_order"):
        assert name not in names, name


def test_square_audit_takes_no_modular_power(reached, capsys):
    names = reached(lambda: cli.run(["audit-squares", "--n", "3", "--q", "5"]))
    capsys.readouterr()
    assert "audits.square_count_audit" in names
    assert "ffpoly.pow_mod" not in names


def test_factorize_reaches_no_root_order_nor_butler_profile(reached):
    # factorize is the reference that Butler profiles are audited against
    polys = [substitute_power(f, m) for f in _irreducibles_not_x(9, 2) for m in (2, 4)]
    names = reached(lambda: [ffpoly.factorize(f) for f in polys])
    assert "ffpoly.factorize" in names
    assert "ffpoly.root_order" not in names
    assert "power_poly.butler_profile" not in names


@pytest.mark.parametrize("report", ["fibers", "real", "s2"])
def test_oracle_reaches_no_class_theory(reached, capsys, report):
    argv = ["oracle", "--kind", "gl", "--n", "2", "--q", "3", "--report", report]
    names = reached(lambda: cli.run(argv))
    capsys.readouterr()
    assert "brute_oracle.build_table" in names
    assert _in_module(names, "gl_classes") <= {"gl_classes.gl_order"}
    for module in ("square_fibers", "real_classes", "power_poly"):
        assert not _in_module(names, module), module
