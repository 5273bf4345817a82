"""Command-line entry point with machine-readable reports.

Every verb prints one JSON envelope on stdout: schema_version, tool,
command echo, timestamp (null unless --timestamp is given, so output is
reproducible byte for byte), payload and a warnings list.  Audit
mismatches are findings, not failures: they surface as warnings and the
exit code stays 0.  Exit 2 means invalid input, exit 3 means a
desk-scale bound was refused, exit 4 means a cross-check failed, a
defect of the program; past argparse, each prints one line on stderr.
``classes``, ``audit-squares`` and the full ``real-classes`` audit write
each row as it is computed, so what they print is never held in memory;
their refusals still come before the first byte, and a failure after it
leaves the rows already written.

A verb imports only the code it runs: the query verbs load neither the
oracle, the real-class code nor the audits, which live in ``audits`` and
load only in ``audit-squares`` and the full ``real-classes`` audit;
``datetime`` and ``csv`` load only when a run asks for a timestamp or CSV.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from functools import lru_cache

from . import __version__
from .ffpoly import require_irreducible_not_x, substitute_power
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
    real_class_product,
)
from .limits import InputError, ScaleLimitError, clip
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
from .square_fibers import (
    ClosedFormUndefined,
    has_square_root_gl,
    has_square_root_symplectic,
    has_square_root_unitary,
    closed_form_count,
    square_class,
    square_root_classes,
)

SCHEMA_VERSION = "1"


def _envelope(argv: list[str], payload: dict, warnings: list[str], stamp: bool) -> dict:
    timestamp = None
    if stamp:
        from datetime import datetime, timezone

        timestamp = datetime.now(timezone.utc).isoformat()
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "squarefibers", "version": __version__},
        "command": list(argv),
        "timestamp": timestamp,
        "payload": payload,
        "warnings": warnings,
    }


def report_to_json(scope: str, records, warnings: list[str]) -> dict:
    """The JSON form of an audit report, as the audit verbs print it.

    The records are drawn from ``records`` one at a time as the writer
    reaches them, and each mismatch is appended to ``warnings`` as its
    record passes; the summary, which follows them, is a callable that
    counts what has passed.
    """
    tally = [0, 0]  # records, flagged

    def rows() -> Iterator[dict]:
        for r in records:
            tally[0] += 1
            if r.mismatches:
                tally[1] += 1
                warnings.extend(f"{r.subject}: {m}" for m in r.mismatches)
            yield {
                "subject": r.subject,
                "values": dict(r.values),
                "mismatches": list(r.mismatches),
            }

    return {
        "scope": scope,
        "records": rows(),
        "summary": lambda: {
            "records": str(tally[0]),
            "clean": str(tally[0] - tally[1]),
            "flagged": str(tally[1]),
        },
    }


def _started(rows: Iterator) -> Iterator:
    """rows with its first element drawn now: a refusal raised before the
    first row then comes before the first byte of output."""
    for first in rows:
        return itertools.chain((first,), rows)
    return iter(())


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
    require_irreducible_not_x(f)
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
    self_rec = is_self_reciprocal(f)
    self_conj = is_self_conjugate(f) if field.k % 2 == 0 else None
    payload["self_reciprocal"] = self_rec
    payload["star_classification"] = _family_text(classify2_star(f), True) if self_rec else None
    payload["self_conjugate"] = self_conj
    payload["tilde_classification"] = (
        _family_text(classify2_tilde(f), False) if self_conj else None
    )
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


def _class_rows(n: int, q: int) -> Iterator[dict]:
    """The rows of ``classes``, then two checks after the last: the class
    sizes sum to |GL_n(q)|, and the real rows number real_class_product."""
    total = real = 0
    for data in enumerate_classes(n, q):
        centralizer = centralizer_order(data)
        size = class_size(data, centralizer)
        is_real = inverse_class(data) == data
        total += size
        real += is_real
        yield {
            "class": class_data_to_json(data),
            "centralizer_order": str(centralizer),
            "class_size": str(size),
            "element_order": str(element_order_of_class(data)),
            "real": is_real,
        }
    if total != gl_order(n, q):
        raise RuntimeError(f"the class sizes sum to {total}, not to the group order")
    product = real_class_product(n, q)
    if real != product:
        raise RuntimeError(f"{real} rows are real, the product formula gives {product}")


def _cmd_classes(args) -> tuple[dict, list[str]]:
    records = _started(_class_rows(args.n, args.q))
    payload = {
        "n": args.n,
        "q": str(args.q),
        "group_order": str(gl_order(args.n, args.q)),
        "class_count": str(class_count(args.n, args.q)),
        "classes": records,
    }
    return payload, []


def _classes_csv(payload: dict) -> None:
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
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
        raise InputError(f"--n {clip(args.n)} does not match the class weight {data.n}")
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
    from .audits import existence_audit, square_count_audit

    if args.group == "gl":
        scope, records = square_count_audit(args.n, args.q, include_oracle=args.oracle)
    else:
        scope, records = existence_audit(args.group, args.n, args.q)
    warnings: list[str] = []
    return report_to_json(scope, _started(records), warnings), warnings


def _audit_csv(payload: dict) -> None:
    """One row per record under the first record's value keys; a record
    with other keys raises RuntimeError rather than misalign its row."""
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    keys = None
    for rec in payload["records"]:
        values = rec["values"]
        if keys is None:
            keys = list(values)
            writer.writerow(["subject", *keys, "mismatches"])
        elif list(values) != keys:
            raise RuntimeError(
                f"record {rec['subject']} has values {list(values)}, not {keys}"
            )
        writer.writerow([rec["subject"], *values.values(), " | ".join(rec["mismatches"])])


def _cmd_real_classes(args) -> tuple[dict, list[str]]:
    from .real_classes import (
        THEOREM_CONVENTIONS,
        real_class_count_direct,
        real_class_count_ms,
        real_class_count_theorem,
        s2_cardinality,
        unity_root_counts,
    )

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
    from .audits import audit_real_counts

    scope, records = audit_real_counts(n, q)
    warnings: list[str] = []
    return report_to_json(scope, _started(records), warnings), warnings


def _cmd_oracle(args) -> tuple[dict, list[str]]:
    import os

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
    from .matrices import identity_matrix

    spec = GroupSpec(args.kind, args.n, args.q)
    if args.cache:
        try:
            if os.path.exists(args.cache):
                table = load_table(spec, args.cache)
            else:
                table = enumerate_group(spec)
                save_table(table, args.cache)
        except OSError as exc:
            raise InputError(f"cache {args.cache}: {exc.strerror}") from None
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
                    class_data_of_element(table.field, table.matrix(cls[0]))
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


_quote = json.encoder.encode_basestring_ascii


def write_json(obj, write) -> None:
    """Write the text of ``json.dumps(obj, indent=2)`` and a newline.

    A direct recursive writer: json.dumps with an indent always takes the
    generator-based pure-Python encoder.  Strings are quoted by the same C
    function json.dumps uses.  It takes str, int, bool, None, lists,
    tuples and dicts with str keys, and two kinds of value that json.dumps
    does not.  An iterator is written as a list, element by element as it
    is drawn: each element goes out in one ``write`` call, with the text
    before it.  A callable is called when the writer reaches it, and its
    value written in its place.  The rest goes out in one last call.
    Anything else raises TypeError.
    """
    out: list[str] = []

    def flush() -> None:
        write("".join(out))
        out.clear()

    _emit(obj, "\n", out, flush)
    out.append("\n")
    flush()


def _emit(obj, indent: str, out: list[str], flush) -> None:
    """Append the text of obj to out, calling flush after each element
    drawn from an iterator; ``indent`` is the newline and indentation of
    the enclosing level."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        inner = indent + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            _emit(value, inner, out, flush)
            sep = "," + inner
        out.append("{}" if sep[0] == "{" else indent + "}")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)) or isinstance(obj, Iterator):
        drawn = not isinstance(obj, (list, tuple))
        inner = indent + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _emit(value, inner, out, flush)
            if drawn:
                flush()
            sep = "," + inner
        out.append("[]" if sep[0] == "[" else indent + "]")
    elif callable(obj):
        _emit(obj(), indent, out, flush)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


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
    parser.verb_parsers = subs.choices  # verb -> its subparser, for _parse_args

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

_CSV_WRITERS = {
    "classes": _classes_csv,
    "audit-squares": _audit_csv,
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one pass over the tokens.

    When argv[0] names a verb, that verb's subparser parses the rest, as
    the full parser would hand them to it.  With no verb, an unknown one
    or tokens the verb does not take, the full parser parses argv, so
    every usage, help and error text is argparse's own.
    """
    parser = build_parser()
    sub = parser.verb_parsers.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.verb = argv[0]
            return args
    return parser.parse_args(argv)


def run(argv: list[str]) -> int:
    with _unbounded_int_text():
        args = _parse_args(argv)
        try:
            payload, warnings = _HANDLERS[args.verb](args)
            if getattr(args, "format", "json") == "csv":
                _CSV_WRITERS[args.verb](payload)
            else:
                write_json(_envelope(argv, payload, warnings, args.timestamp), sys.stdout.write)
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ScaleLimitError as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return 3
        except RuntimeError as exc:  # a failed cross-check: a defect, not bad input
            print(f"internal error: {exc}", file=sys.stderr)
            return 4
        return 0


@contextmanager
def _unbounded_int_text():
    """Lift the interpreter's bound on int <-> str conversions for one run.

    CPython refuses more than 4300 digits by default (since 3.11 and
    3.10.7), but exact counts pass it: the square-root count of a class
    with a degree-3 entry of partition 1^64 over F_7 has 5,196 digits.
    Every input fits in one argument string, so parsing stays bounded.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
