"""The package runs on the standard library alone: no module of
``squarefibers`` imports anything outside ``sys.stdlib_module_names`` and
the package itself, and ``pyproject.toml`` declares no run-time
dependency, so none can creep back unseen."""

import ast
import sys
from pathlib import Path

import pytest

import squarefibers

PACKAGE = Path(squarefibers.__file__).resolve().parent


def _imported_top_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "numtheory.py" in modules
    for path in modules:
        names = set(_imported_top_names(ast.parse(path.read_text(), str(path))))
        outside = names - set(sys.stdlib_module_names) - {"squarefibers"}
        assert not outside, (path.name, sorted(outside))


def test_pyproject_declares_no_run_time_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((PACKAGE.parent.parent / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []
    assert "sympy" in " ".join(project["optional-dependencies"]["test"])
