"""Smoke test of the audit script under scripts/, run as a program."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
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


def test_run_audits_dumps_its_reports_as_json():
    proc = _run_script("run_audits.py", "--json")
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)
    assert proc.stdout == json.dumps(reports, indent=2) + "\n"
    assert len(reports) == 12
    flagged = 0
    for report in reports:
        summary = report["summary"]
        assert int(summary["records"]) == len(report["records"]) > 0
        assert int(summary["flagged"]) == sum(1 for r in report["records"] if r["mismatches"])
        assert int(summary["clean"]) + int(summary["flagged"]) == len(report["records"])
        flagged += int(summary["flagged"])
    assert flagged == 36
