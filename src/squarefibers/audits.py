"""Audits of the printed closed forms and criteria against the exact
counts and the oracles.

Every audit returns ``(scope, records)``: a scope line and an iterator of
:class:`AuditRecord`, each computed as it is drawn.  Disagreements are
findings about the published statements: they are recorded as the
record's mismatches, never raised.
"""

from __future__ import annotations

from collections.abc import Iterator

from .gl_classes import centralizer_order, class_size, enumerate_classes, gl_order
from .records import Record
from .square_fibers import (
    ClosedFormUndefined,
    closed_form_count,
    count_square_roots,
    has_square_root_gl,
    has_square_root_symplectic,
    has_square_root_unitary,
)


class AuditRecord(Record):
    __slots__ = ("subject", "values", "mismatches")

    def __init__(self, subject: str, values: tuple[tuple[str, str], ...],
                 mismatches: tuple[str, ...]):
        self._set(subject, values, mismatches)


def square_count_audit(
    n: int, q: int, include_oracle: bool
) -> tuple[str, Iterator[AuditRecord]]:
    """The scope and records of the per-class comparison of the
    centralizer-index count, the printed closed form, the existence
    predicate, and (optionally) the exhaustive oracle fiber.  Each record
    is computed as it is drawn; the class walk and the oracle's table
    start with the first."""

    def records() -> Iterator[AuditRecord]:
        if include_oracle:
            from .brute_oracle import (
                GroupSpec,
                build_table,
                representative_index,
                square_fiber_counts,
            )

            table = build_table(GroupSpec("gl", n, q))
            oracle_fibers = square_fiber_counts(table)
        for data in enumerate_classes(n, q):
            count = count_square_roots(data)
            exists = has_square_root_gl(data)
            values = [
                ("class_size", str(class_size(data, centralizer_order(data)))),
                ("centralizer_index_sum", str(count)),
                ("has_square_root", str(exists).lower()),
            ]
            mismatches = []
            if exists:
                try:
                    closed = closed_form_count(data)
                    values.append(("closed_form", str(closed)))
                    if closed != count:
                        mismatches.append(
                            f"closed form gives {closed}, centralizer-index sum gives {count}"
                        )
                except ClosedFormUndefined as exc:
                    values.append(("closed_form", f"undefined: {exc.reason}"))
                    mismatches.append(f"closed form undefined: {exc.reason}")
            else:
                values.append(("closed_form", "n/a (no square root)"))
            if exists != (count > 0):
                mismatches.append("existence predicate disagrees with the count")
            if include_oracle:
                fiber = oracle_fibers[representative_index(table, data)]
                values.append(("oracle_fiber", str(fiber)))
                if fiber != count:
                    mismatches.append(
                        f"oracle fiber {fiber} != centralizer-index sum {count}"
                    )
            yield AuditRecord(str(data), tuple(values), tuple(mismatches))

    return f"gl n={n} q={q} square-map audit", records()


def existence_audit(kind: str, n: int, q: int) -> tuple[str, Iterator[AuditRecord]]:
    """The scope and records of the existence predicate vs the oracle on
    every class of the group of the given kind: "sp" for Sp_n(q) against
    has_square_root_symplectic, "u" for U_n(q^2) against
    has_square_root_unitary, n the matrix size.  Each record is computed
    as it is drawn; the oracle's table is built before the first.  On Sp
    the -I class is expected to be flagged."""

    def records() -> Iterator[AuditRecord]:
        from .brute_oracle import (
            GroupSpec,
            build_table,
            class_data_of_element,
            conjugacy_classes,
            square_fiber_counts,
        )

        predicate = {"sp": has_square_root_symplectic, "u": has_square_root_unitary}[kind]
        table = build_table(GroupSpec(kind, n, q))
        fibers = square_fiber_counts(table)
        for cls in conjugacy_classes(table):
            data = class_data_of_element(table.field, table.matrix(cls[0]))
            said, fiber = str(predicate(data)).lower(), fibers[cls[0]]
            yield AuditRecord(
                str(data),
                (("class_size", str(len(cls))), ("criterion", said), ("oracle_fiber", str(fiber))),
                () if (said == "true") == (fiber > 0)
                else (f"criterion says {said}, oracle fiber is {fiber}",),
            )

    return f"{kind} n={n} q={q} square-root existence audit", records()


def audit_real_counts(n: int, q: int) -> tuple[str, Iterator[AuditRecord]]:
    """The scope and records of every route to the real-class count of
    GL_n(q), with disagreements flagged.

    The direct and Murray-Sambale routes must agree (that identity is a
    theorem); the generating-function counts must match the class-wise
    order counts; the published-statement evaluators are recorded under
    both conventions and flagged when they miss, which is expected.  The
    first record walks the classes, so a refusal comes with it.
    """
    from .real_classes import (
        THEOREM_CONVENTIONS,
        real_class_count_direct,
        real_class_count_ms,
        real_class_count_theorem,
        s2_cardinality,
        unity_root_counts,
    )

    def records() -> Iterator[AuditRecord]:
        direct = real_class_count_direct(n, q)
        ms = real_class_count_ms(n, q)
        yield AuditRecord(
            "real class count",
            (
                ("direct", str(direct)),
                ("murray_sambale", str(ms)),
                ("s2", str(s2_cardinality(n, q))),
                ("group_order", str(gl_order(n, q))),
            ),
            () if direct == ms else (f"direct {direct} != Murray-Sambale {ms}",),
        )
        for M, by_classes, by_series in unity_root_counts(n, q):
            yield AuditRecord(
                f"elements with g^{M} = 1",
                (("class_enumeration", str(by_classes)), ("generating_function", str(by_series))),
                () if by_classes == by_series
                else (f"series count {by_series} != class count {by_classes}",),
            )
        for convention in THEOREM_CONVENTIONS:
            value = real_class_count_theorem(n, q, convention)
            yield AuditRecord(
                f"published statement ({convention})",
                (("value", str(value)), ("true_count", str(direct))),
                () if value == direct
                else (f"statement evaluator gives {value}, true count is {direct}",),
            )

    return f"gl n={n} q={q} real-class audit", records()
