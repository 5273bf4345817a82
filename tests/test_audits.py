"""The audit battery: the twelve audit-verb runs that, between them, record
every finding about the printed closed forms and criteria on the desk-scale
test matrix.  Each run's summary must agree with its records, each flagged
record's mismatches must surface as warnings, and the battery must flag the
same 36 records it always has."""

import io
import json
from contextlib import redirect_stdout

import pytest

from squarefibers.cli import run

BATTERY = (
    [["audit-squares", "--oracle", "--n", str(n), "--q", str(q)]
     for n, q in [(1, 3), (2, 3), (3, 3), (2, 5)]]
    + [["audit-squares", "--group", "sp", "--n", str(n), "--q", str(q)]
       for n, q in [(2, 3), (2, 5)]]
    + [["audit-squares", "--group", "u", "--n", str(n), "--q", str(q)]
       for n, q in [(1, 3), (2, 3)]]
    + [["real-classes", "--n", str(n), "--q", str(q)]
       for n, q in [(1, 3), (2, 3), (3, 3), (2, 5)]]
)


@pytest.fixture(scope="module")
def envelopes():
    """The battery's twelve envelopes, run once for the tests below."""
    out = []
    for argv in BATTERY:
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert run(argv) == 0, argv
        out.append(json.loads(buf.getvalue()))
    return out


def test_each_battery_report_agrees_with_its_records(envelopes):
    assert len(envelopes) == 12
    for envelope in envelopes:
        records = envelope["payload"]["records"]
        summary = {k: int(v) for k, v in envelope["payload"]["summary"].items()}
        assert summary["clean"] + summary["flagged"] == summary["records"] == len(records) > 0
        assert summary["flagged"] == sum(1 for r in records if r["mismatches"])
        assert envelope["warnings"] == [
            f"{r['subject']}: {m}" for r in records for m in r["mismatches"]
        ]


def test_the_audit_battery_flags_36_records(envelopes):
    assert sum(int(e["payload"]["summary"]["flagged"]) for e in envelopes) == 36
