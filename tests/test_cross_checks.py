"""The cross-checks of the square-map and real-class code are explicit
raises, so ``python -O`` cannot strip them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import squarefibers

PACKAGE = Path(squarefibers.__file__).resolve().parent


@pytest.mark.parametrize("module", ["square_fibers", "real_classes", "audits"])
def test_module_has_no_assert_statement(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


@pytest.mark.parametrize("patch,call,message", [
    ("real_classes.gl_order = lambda n, q: 47",
     "real_classes.s2_cardinality(2, 3)",
     "square-map mass is not conserved"),
    ("square_fibers.minimal_polynomial_of_power = lambda f: f",
     "square_fibers.square_class(ClassData(F, ((Poly(F, (1, 1)), Partition(((1, 1),))),)))",
     "degree-preserving square is not a two-power factor"),
], ids=["mass", "square-class"])
def test_cross_checks_survive_python_O(patch, call, message):
    # GL_2(3) has 48 elements, not 47; over F_3, x + 1 does not square to
    # itself, and x^2 + 1 is irreducible, so x + 1 is not a two-power factor
    probe = (
        "assert False, 'asserts are on'\n"
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
    out = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == f"{message}\n"
