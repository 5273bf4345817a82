"""The cross-checks of the package are explicit raises, so ``python -O``
cannot strip them, and the CLI turns a failed one into exit 4 with one
``internal error:`` line."""

import ast
import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import squarefibers
from squarefibers import cli

PACKAGE = Path(squarefibers.__file__).resolve().parent
ENV = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_module_has_no_assert_statement(module):
    """No ``assert``, and no ``raise AssertionError``, which the CLI would
    not map to exit 4."""

    def raises_assertion_error(node) -> bool:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"

    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    lines = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Raise) and raises_assertion_error(node)
    ]
    assert lines == []


def _run_optimized(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-O", "-c", code], env=ENV, capture_output=True, text=True
    )


@pytest.mark.parametrize("patch,call,message", [
    ("real_classes.gl_order = lambda n, q: 47",
     "real_classes.s2_cardinality(2, 3)",
     "square-map mass is not conserved"),
    ("square_fibers.minimal_polynomial_of_power = lambda f: f",
     "square_fibers.square_class(ClassData(F, ((Poly(F, (1, 1)), Partition(((1, 1),))),)))",
     "degree-preserving square is not a two-power factor"),
    ("ffpoly._distinct_degree = lambda f: iter(())",
     "ffpoly.factorize(Poly(F, (1, 1)))",
     "factorization failed to recompose"),
    ("big = ffpoly.field_make(3, 2); ffpoly.Field.add = lambda self, a, b: 0",
     "ffpoly._subfield_codes(F, big)",
     "the subfield embedding is not injective"),
    ("ffpoly._mul = lambda F, a, b: [1, 1, 1]",
     "ffpoly.minimal_polynomial_of_power(Poly(F, (1, 1)))",
     "f(x) f(-x) has an odd-degree term"),
    ("power_poly.gcd = lambda a, b: Poly(F, (0, 1))",
     "power_poly.classify2(Poly(F, (2, 1)))",
     "f(x^2) failed to recompose"),
    ("gl_classes.divisors = lambda d: (1,)",
     "gl_classes.irreducible_count(3, 2)",
     "the necklace sum of degree 2 over F_3 is not divisible by 2"),
    ("brute_oracle._enumerate_gl = lambda field, n: [1, 1]",
     "brute_oracle.enumerate_group(brute_oracle.GroupSpec('gl', 1, 3))",
     "GroupSpec(kind='gl', n=1, q=3): 1 distinct of 2 codes, expected 2"),
    ("brute_oracle.mat_rank = lambda field, a: 1",
     "brute_oracle.class_data_of_element(F, ((0, 2), (1, 0)))",
     "the rank sequence of f(A), f = 1,0,1, is not divisible by 2"),
    ("brute_oracle.mat_rank = lambda field, a: 1",
     "brute_oracle.class_data_of_element(F, ((1, 0), (0, 1)))",
     "class data of weight 1 for a 2 x 2 matrix"),
    ("power_poly.is_two_power = lambda f: True",
     "power_poly.classify2(Poly(F, (1, 1)))",
     "f(x^2) for f=1,1 over F_3 violates the two-factor dichotomy"),
], ids=["mass", "square-class", "factorize", "subfield", "square-minpoly", "classify2",
        "necklace", "distinct-codes", "rank-divisibility", "rank-weight", "classify2-norm"])
def test_cross_checks_survive_python_O(patch, call, message):
    # GL_2(3) has 48 elements, not 47; over F_3, x + 1 does not square to
    # itself, and x^2 + 1 is irreducible, so x + 1 is not a two-power factor.
    # No factor, a collapsed sum, an odd term, x * x for x^2 - 1, 9 / 2
    # irreducibles, one code twice, ranks of 1 throughout, and a norm test
    # that calls the skew x + 1 two-power: each is a wrong value that only
    # its check stands between and a wrong answer.
    probe = (
        "assert False, 'asserts are on'\n"
        "from squarefibers import brute_oracle, ffpoly, gl_classes, power_poly\n"
        "from squarefibers import real_classes, square_fibers\n"
        "from squarefibers.ffpoly import Poly, field_make\n"
        "from squarefibers.gl_classes import ClassData\n"
        "from squarefibers.partitions import Partition\n"
        "F = field_make(3, 1)\n"
        f"{patch}\n"
        "try:\n"
        f"    {call}\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    out = _run_optimized(probe)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == f"{message}\n"


def _run_cli_optimized(patch: str, argv: list[str]) -> subprocess.CompletedProcess:
    return _run_optimized(
        "import sys\n"
        "from squarefibers import cli, gl_classes, real_classes\n"
        f"{patch}\n"
        f"sys.exit(cli.run({argv!r}))\n"
    )


def test_failed_cross_check_before_output_exits_4_with_one_line():
    # GL_2(3) has 48 elements, not 47
    out = _run_cli_optimized(
        "real_classes.gl_order = lambda n, q: 47",
        ["real-classes", "--n", "2", "--q", "3", "--method", "ms"],
    )
    assert (out.returncode, out.stdout) == (4, "")
    assert out.stderr == "internal error: square-map mass is not conserved\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_failed_cross_check_while_rows_stream_exits_4_with_one_line(fmt):
    # the first three classes of GL_2(3) have centralizers of order 8 and
    # the fourth one of order 6, which does not divide the patched order 8
    out = _run_cli_optimized(
        "gl_classes.gl_order = lambda n, q: 8",
        ["classes", "--n", "2", "--q", "3", "--format", fmt],
    )
    assert out.returncode == 4
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("internal error: centralizer order does not divide")
    assert "Traceback" not in out.stderr
    # the rows written before the failure stay written
    rows = out.stdout.count('"class":') if fmt == "json" else out.stdout.count("\n") - 1
    assert rows == 3


# One cheap run of each verb.
_VERB_ARGVS = [
    ["classify-poly", "--q", "3", "--poly", "1,0,1", "--m", "4"],
    ["classes", "--n", "2", "--q", "3"],
    ["sqrt-count", "--q", "3", "--class", '{"entries":[{"poly":"1,1","partition":"1^2"}]}'],
    ["audit-squares", "--n", "2", "--q", "3", "--oracle"],
    ["real-classes", "--n", "2", "--q", "3"],
    ["oracle", "--kind", "gl", "--n", "2", "--q", "3", "--report", "s2"],
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_python_O_changes_no_output():
    for argv in _VERB_ARGVS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        optimized = subprocess.run(
            [sys.executable, "-O", "-m", "squarefibers.cli", *argv],
            env=ENV, capture_output=True, text=True,
        )
        assert code == 0, (argv, err.getvalue())
        assert (optimized.returncode, _digest(optimized.stdout)) == (code, _digest(out.getvalue())), argv
