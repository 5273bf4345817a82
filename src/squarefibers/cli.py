"""Command-line entry point with machine-readable reports.

Every verb prints one JSON envelope on stdout: schema_version, tool,
command echo, timestamp (null unless --timestamp is given, so output is
reproducible byte for byte), payload and a warnings list.  Audit
mismatches are findings, not failures: they surface as warnings and the
exit code stays 0.  Exit 2 means invalid input, exit 3 means a
desk-scale bound was refused.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone
from functools import lru_cache

from . import __version__
from .brute_oracle import (
    GroupSpec,
    build_table,
    class_data_of_element,
    conjugacy_classes,
    enumerate_group,
    inverse_positions,
    load_table,
    real_classes_oracle,
    s2_oracle,
    save_table,
    square_fiber_counts,
)
from .ffpoly import is_irreducible, substitute_power
from .formats import (
    class_data_from_json,
    class_data_to_json,
    field_from_text,
    poly_from_text,
    poly_to_text,
)
from .gl_classes import (
    centralizer_order,
    class_count,
    class_size,
    element_order_of_class,
    enumerate_classes,
    gl_order,
    inverse_class,
)
from .limits import InputError, ScaleLimitError
from .matrices import identity_matrix
from .power_poly import (
    ReciprocalFamily,
    SkewTwoPower,
    butler_profile,
    classify2,
    classify2_star,
    classify2_tilde,
    is_self_conjugate,
    is_self_reciprocal,
)
from .real_classes import (
    THEOREM_CONVENTIONS,
    audit_real_counts,
    real_class_count_direct,
    real_class_count_ms,
    real_class_count_theorem,
    s2_cardinality,
    unity_root_counts,
)
from .square_fibers import (
    AuditReport,
    ClosedFormUndefined,
    audit_square_counts,
    audit_existence,
    has_square_root_gl,
    has_square_root_symplectic,
    has_square_root_unitary,
    closed_form_count,
    square_class,
    square_root_classes,
)

SCHEMA_VERSION = "1"


def _envelope(argv: list[str], payload: dict, warnings: list[str], stamp: bool) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "squarefibers", "version": __version__},
        "command": list(argv),
        "timestamp": datetime.now(timezone.utc).isoformat() if stamp else None,
        "payload": payload,
        "warnings": warnings,
    }


def _report_to_json(report: AuditReport) -> dict:
    return {
        "scope": report.scope,
        "records": [
            {
                "subject": r.subject,
                "values": {k: v for k, v in r.values},
                "mismatches": list(r.mismatches),
            }
            for r in report.records
        ],
        "summary": {
            "records": str(len(report.records)),
            "clean": str(report.clean),
            "flagged": str(report.flagged),
        },
    }


def _report_warnings(report: AuditReport) -> list[str]:
    out = []
    for r in report.records:
        for m in r.mismatches:
            out.append(f"{r.subject}: {m}")
    return out


def _family_text(family: ReciprocalFamily, star: bool) -> str:
    mark = "2*" if star else "2~"
    return {
        ReciprocalFamily.POWER: f"{mark}-power",
        ReciprocalFamily.SKEW: f"skew-{mark}-power",
        ReciprocalFamily.NEITHER: "neither",
    }[family]


# -- verbs -----------------------------------------------------------------


def _cmd_classify_poly(args) -> tuple[dict, list[str]]:
    field = field_from_text(args.q)
    f = poly_from_text(field, args.poly)
    if not f.is_monic() or f.degree < 1:
        raise InputError("polynomial must be monic of degree >= 1")
    if f.constant_term() == 0:
        raise InputError("x itself has no two-power classification")
    if not is_irreducible(f):
        raise InputError(f"{args.poly} is not irreducible over F_{field.q}")
    cls = classify2(f)
    payload = {
        "field": str(field.q),
        "poly": poly_to_text(f),
        "degree": f.degree,
        "f_of_x2": poly_to_text(substitute_power(f, 2)),
    }
    if isinstance(cls, SkewTwoPower):
        payload["classification"] = "skew-2-power"
        payload["factors_of_f_x2"] = [poly_to_text(cls.f_of_x2)]
    else:
        payload["classification"] = "2-power"
        payload["factors_of_f_x2"] = [poly_to_text(cls.f1), poly_to_text(cls.f2)]
    payload["self_reciprocal"] = is_self_reciprocal(f)
    payload["star_classification"] = (
        _family_text(classify2_star(f), True) if is_self_reciprocal(f) else None
    )
    if field.k % 2 == 0:
        payload["self_conjugate"] = is_self_conjugate(f)
        payload["tilde_classification"] = (
            _family_text(classify2_tilde(f), False) if is_self_conjugate(f) else None
        )
    else:
        payload["self_conjugate"] = None
        payload["tilde_classification"] = None
    if args.m is not None:
        profile = butler_profile(f, args.m)
        payload["butler_profile"] = {
            "m": args.m,
            "m1": profile.m1,
            "m2": profile.m2,
            "entries": [
                {
                    "degree": e.degree,
                    "count": e.count,
                    "root_order": str(e.root_order),
                }
                for e in profile.entries
            ],
        }
    return payload, []


def _class_record(data) -> dict:
    return {
        "class": class_data_to_json(data),
        "centralizer_order": str(centralizer_order(data)),
        "class_size": str(class_size(data)),
        "element_order": str(element_order_of_class(data)),
        "real": inverse_class(data) == data,
    }


def _cmd_classes(args) -> tuple[dict, list[str]]:
    records = [_class_record(data) for data in enumerate_classes(args.n, args.q)]
    payload = {
        "n": args.n,
        "q": str(args.q),
        "group_order": str(gl_order(args.n, args.q)),
        "class_count": str(class_count(args.n, args.q)),
        "classes": records,
    }
    return payload, []


def _classes_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["index", "entries", "centralizer_order", "class_size", "element_order", "real"]
    )
    for i, rec in enumerate(payload["classes"]):
        entries = ";".join(
            f"{e['poly']}={e['partition']}" for e in rec["class"]["entries"]
        )
        writer.writerow(
            [
                i,
                entries,
                rec["centralizer_order"],
                rec["class_size"],
                rec["element_order"],
                str(rec["real"]).lower(),
            ]
        )
    return buf.getvalue()


def _cmd_sqrt_count(args) -> tuple[dict, list[str]]:
    field = field_from_text(str(args.q))
    if args.group == "u":
        field = field_from_text(str(args.q**2))
    try:
        class_obj = json.loads(args.cls)
    except json.JSONDecodeError as exc:
        raise InputError(f"--class is not valid JSON: {exc}") from exc
    data = class_data_from_json(class_obj, field)
    if args.n is not None and data.n != args.n:
        raise InputError(f"--n {args.n} does not match the class weight {data.n}")
    payload = {
        "group": args.group,
        "n": data.n,
        "q": str(args.q),
        "class": class_data_to_json(data),
    }
    warnings: list[str] = []
    if args.group == "gl":
        roots = square_root_classes(data)
        count = roots.count
        payload["has_square_root"] = has_square_root_gl(data)
        payload["count"] = str(count)
        payload["square_class"] = class_data_to_json(square_class(data))
        payload["root_classes"] = [class_data_to_json(r) for r in roots.roots]
        try:
            closed = closed_form_count(data) if payload["has_square_root"] else None
            payload["closed_form"] = None if closed is None else str(closed)
        except ClosedFormUndefined as exc:
            payload["closed_form"] = f"undefined: {exc.reason}"
        if payload["closed_form"] not in (None, str(count)):
            warnings.append(
                f"closed form {payload['closed_form']} disagrees with the "
                f"centralizer-index count {count}"
            )
    elif args.group == "u":
        payload["has_square_root"] = has_square_root_unitary(data)
    else:
        payload["has_square_root"] = has_square_root_symplectic(data)
    return payload, warnings


def _cmd_audit_squares(args) -> tuple[dict, list[str]]:
    if args.group == "gl":
        report = audit_square_counts(args.n, args.q, include_oracle=args.oracle)
    elif args.group == "sp":
        report = audit_existence("sp", has_square_root_symplectic, args.n, args.q)
    else:
        report = audit_existence("u", has_square_root_unitary, args.n, args.q)
    return _report_to_json(report), _report_warnings(report)


def _audit_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    keys: list[str] = []
    for rec in payload["records"]:
        for k in rec["values"]:
            if k not in keys:
                keys.append(k)
    writer.writerow(["subject", *keys, "mismatches"])
    for rec in payload["records"]:
        writer.writerow(
            [rec["subject"]]
            + [rec["values"].get(k, "") for k in keys]
            + [" | ".join(rec["mismatches"])]
        )
    return buf.getvalue()


def _cmd_real_classes(args) -> tuple[dict, list[str]]:
    n, q = args.n, args.q
    if args.method == "direct":
        return {
            "n": n,
            "q": str(q),
            "method": "direct",
            "real_classes": str(real_class_count_direct(n, q)),
        }, []
    if args.method == "ms":
        return {
            "n": n,
            "q": str(q),
            "method": "ms",
            "real_classes": str(real_class_count_ms(n, q)),
            "s2": str(s2_cardinality(n, q)),
            "group_order": str(gl_order(n, q)),
        }, []
    if args.method == "theorem":
        direct = real_class_count_direct(n, q)
        values = {c: real_class_count_theorem(n, q, c) for c in THEOREM_CONVENTIONS}
        warnings = [
            f"{c} evaluator gives {val}, true count is {direct}"
            for c, val in values.items()
            if val != direct
        ]
        return {
            "n": n,
            "q": str(q),
            "method": "theorem",
            "evaluations": {c: str(val) for c, val in values.items()},
            "real_classes": str(direct),
        }, warnings
    if args.method == "gf-audit":
        counts = unity_root_counts(n, q)
        checks = [
            {
                "M": M,
                "class_enumeration": str(by_classes),
                "generating_function": str(by_series),
                "agree": by_classes == by_series,
            }
            for M, by_classes, by_series in counts
        ]
        warnings = [
            f"M={M}: series {by_series} != classes {by_classes}"
            for M, by_classes, by_series in counts
            if by_classes != by_series
        ]
        return {"n": n, "q": str(q), "method": "gf-audit", "checks": checks}, warnings
    report = audit_real_counts(n, q)
    return _report_to_json(report), _report_warnings(report)


def _cmd_oracle(args) -> tuple[dict, list[str]]:
    spec = GroupSpec(args.kind, args.n, args.q)
    if args.cache:
        import os

        if os.path.exists(args.cache):
            table = load_table(spec, args.cache)
        else:
            table = enumerate_group(spec)
            save_table(table, args.cache)
    else:
        table = build_table(spec)
    payload = {
        "kind": spec.kind,
        "n": spec.n,
        "q": str(spec.q),
        "group_order": str(len(table)),
    }
    if args.report == "fibers":
        fibers = square_fiber_counts(table)
        histogram: dict[int, int] = {}
        for f in fibers:
            histogram[f] = histogram.get(f, 0) + 1
        payload["fiber_histogram"] = [
            {"fiber_size": str(size), "elements": str(cnt)}
            for size, cnt in sorted(histogram.items())
        ]
        payload["identity_fiber"] = str(fibers[table.position(identity_matrix(spec.n))])
    elif args.report == "classes":
        classes = conjugacy_classes(table)
        payload["class_count"] = str(len(classes))
        payload["classes"] = [
            {
                "size": str(len(cls)),
                "representative_data": class_data_to_json(
                    class_data_of_element(table.field, table.elements[cls[0]])
                ),
            }
            for cls in classes
        ]
    elif args.report == "real":
        classes = conjugacy_classes(table)
        payload["class_count"] = str(len(classes))
        payload["real_classes"] = str(real_classes_oracle(classes, inverse_positions(table)))
    else:
        inverse = inverse_positions(table)
        s2 = s2_oracle(square_fiber_counts(table), inverse)
        real = real_classes_oracle(conjugacy_classes(table), inverse)
        payload["s2"] = str(s2)
        payload["real_classes"] = str(real)
        payload["murray_sambale_exact"] = s2 == real * len(table)
    return payload, []


# -- plumbing ----------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The six-verb parser, built on first use and shared by every run."""
    parser = argparse.ArgumentParser(
        prog="squarefibers",
        description="Exact square-map fibers and real-class counts for finite "
        "classical groups of odd characteristic.",
    )

    def common(sub, fmt=False):
        sub.add_argument("--timestamp", action="store_true",
                         help="emit a wall-clock timestamp (off for reproducibility)")
        if fmt:
            sub.add_argument("--format", choices=("json", "csv"), default="json")

    subs = parser.add_subparsers(dest="verb", required=True)

    cp = subs.add_parser("classify-poly", help="two-power family of an irreducible")
    cp.add_argument("--q", required=True, help="field order, q or p^k")
    cp.add_argument("--poly", required=True, help="coefficients, constant first")
    cp.add_argument("--m", type=int, default=None, help="also profile f(x^m)")
    common(cp)

    cl = subs.add_parser("classes", help="conjugacy classes of GL_n(q)")
    cl.add_argument("--n", type=int, required=True)
    cl.add_argument("--q", type=int, required=True)
    common(cl, fmt=True)

    sc = subs.add_parser("sqrt-count", help="square-root classes and fiber size")
    sc.add_argument("--group", choices=("gl", "u", "sp"), default="gl")
    sc.add_argument("--n", type=int, default=None)
    sc.add_argument("--q", type=int, required=True)
    sc.add_argument("--class", dest="cls", required=True, help="class data JSON")
    common(sc)

    au = subs.add_parser("audit-squares", help="closed forms vs exact counts")
    au.add_argument("--group", choices=("gl", "u", "sp"), default="gl")
    au.add_argument("--n", type=int, required=True)
    au.add_argument("--q", type=int, required=True)
    au.add_argument("--oracle", action="store_true",
                    help="include exhaustive fiber counts (gl only; u/sp always do)")
    common(au, fmt=True)

    rc = subs.add_parser("real-classes", help="real conjugacy class counts")
    rc.add_argument("--n", type=int, required=True)
    rc.add_argument("--q", type=int, required=True)
    rc.add_argument("--method", choices=("direct", "ms", "theorem", "gf-audit"),
                    default=None, help="default: full audit of every method")
    common(rc)

    orc = subs.add_parser("oracle", help="exhaustive matrix-group computations")
    orc.add_argument("--kind", choices=("gl", "u", "sp", "o+", "o-", "o0"),
                     required=True)
    orc.add_argument("--n", type=int, required=True, help="matrix size")
    orc.add_argument("--q", type=int, required=True)
    orc.add_argument("--report", choices=("fibers", "classes", "real", "s2"),
                     required=True)
    orc.add_argument("--cache", default=None, help="element-table cache file")
    common(orc)

    return parser


_HANDLERS = {
    "classify-poly": _cmd_classify_poly,
    "classes": _cmd_classes,
    "sqrt-count": _cmd_sqrt_count,
    "audit-squares": _cmd_audit_squares,
    "real-classes": _cmd_real_classes,
    "oracle": _cmd_oracle,
}

_CSV_RENDERERS = {
    "classes": _classes_csv,
    "audit-squares": _audit_csv,
}


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, warnings = _HANDLERS[args.verb](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScaleLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    if getattr(args, "format", "json") == "csv":
        renderer = _CSV_RENDERERS.get(args.verb)
        if renderer is None:
            print(f"error: no CSV form for {args.verb}", file=sys.stderr)
            return 2
        sys.stdout.write(renderer(payload))
        return 0
    envelope = _envelope(argv, payload, warnings, args.timestamp)
    sys.stdout.write(json.dumps(envelope, indent=2) + "\n")
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
