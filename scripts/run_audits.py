#!/usr/bin/env python3
"""Run the full audit battery over the desk-scale test matrix and print a
human-readable summary of every finding.

The interesting output is the list of classes where the published closed
forms disagree with the exact centralizer-index counts and the oracle;
those disagreements are the point of the exercise, so this script exits 0
either way.  Use --json to dump the raw reports.
"""

import argparse
import sys

from squarefibers.cli import report_to_json, write_json
from squarefibers.real_classes import audit_real_counts
from squarefibers.square_fibers import audit_existence, audit_square_counts

SQUARE_AUDITS = [(1, 3), (2, 3), (3, 3), (2, 5)]
REAL_AUDITS = [(1, 3), (2, 3), (3, 3), (2, 5)]
SP_AUDITS = [(2, 3), (2, 5)]
U_AUDITS = [(1, 3), (2, 3)]


def show(report):
    print(f"== {report.scope}: {len(report.records)} records, "
          f"{report.flagged} flagged")
    for record in report.records:
        if record.mismatches:
            print(f"   {record.subject}")
            for m in record.mismatches:
                print(f"     - {m}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true", help="dump raw reports")
    args = parser.parse_args()

    reports = []
    for n, q in SQUARE_AUDITS:
        reports.append(audit_square_counts(n, q, include_oracle=True))
    for n, q in SP_AUDITS:
        reports.append(audit_existence("sp", n, q))
    for n, q in U_AUDITS:
        reports.append(audit_existence("u", n, q))
    for n, q in REAL_AUDITS:
        reports.append(audit_real_counts(n, q))

    if args.json:
        write_json([report_to_json(r.scope, r.records) for r in reports], sys.stdout.write)
        return 0

    total_flagged = 0
    for report in reports:
        show(report)
        total_flagged += report.flagged
    print(f"\n{len(reports)} audits, {total_flagged} flagged records "
          "(flags are findings about the printed formulas, not failures)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
