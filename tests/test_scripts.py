"""Smoke test of the audit script under scripts/, run as a program."""

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
