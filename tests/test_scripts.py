"""Smoke tests of the two scripts under scripts/, each run as a program."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_run_audits_prints_its_summary():
    proc = _run_script("run_audits.py")
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
    assert proc.stdout.splitlines()[-1] == (
        "12 audits, 36 flagged records "
        "(flags are findings about the printed formulas, not failures)"
    )


def test_real_class_table_agrees_on_every_cell():
    proc = _run_script("real_class_table.py")
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["n", "q", "|GL_n(q)|", "classes", "real", "|s(2)|/|G|"]
    assert len(rows) == 9  # n = 1..3 over q = 3, 5, 7
    for row in rows:
        n, q, order, classes, direct, ms = row.split()
        assert direct == ms
