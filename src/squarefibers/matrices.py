"""Small dense matrix helpers over a Field: products, inverses, ranks and
characteristic polynomials.  Everything is exact and desk-scale."""

from __future__ import annotations

import operator

from .ffpoly import Field, Poly

Matrix = tuple[tuple[int, ...], ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(field: Field, a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    m = len(b[0])
    inner = len(b)
    if field.k == 1:
        p = field.p
        bt = list(zip(*b))
        return tuple(
            tuple(sum(map(operator.mul, row, col)) % p for col in bt) for row in a
        )
    add, mul = field.add, field.mul
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = 0
            for t in range(inner):
                x, y = a[i][t], b[t][j]
                if x and y:
                    acc = add(acc, mul(x, y))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def conj_transpose(field: Field, a: Matrix) -> Matrix:
    return tuple(tuple(field.conj(x) for x in col) for col in zip(*a))


def _row_reduce(field: Field, rows: list[list[int]], n_cols: int) -> int:
    """Gauss-Jordan elimination of rows (lists, replaced in place) on their
    first n_cols columns, pivots scaled to 1; returns the rank."""
    rank = 0
    for col in range(n_cols):
        if rank == len(rows):
            break
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        pivot = rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for r, row in enumerate(rows):
            if r != rank and row[col]:
                c = row[col]
                rows[r] = [field.sub(x, field.mul(c, y)) for x, y in zip(row, pivot)]
        rank += 1
    return rank


def mat_inv(field: Field, a: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises on singular input."""
    n = len(a)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    if _row_reduce(field, aug, n) < n:
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(row[n:]) for row in aug)


def mat_rank(field: Field, a: Matrix) -> int:
    return _row_reduce(field, [list(r) for r in a], len(a[0]) if a else 0)


def eval_poly_at_matrix(field: Field, f: Poly, a: Matrix) -> Matrix:
    """f(A) by Horner's rule."""
    n = len(a)
    acc = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    for c in reversed(f.coeffs):
        acc = mat_mul(field, acc, a)
        if c:
            acc = tuple(
                tuple(field.add(x, c) if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(acc)
            )
    return acc


def char_poly(field: Field, a: Matrix) -> Poly:
    """Characteristic polynomial det(xI - A), monic.

    The matrix is first conjugated to upper Hessenberg form, then the
    leading-minor recurrence produces the polynomial with O(n^3) field
    operations and no division by integers.
    """
    n = len(a)
    h = [list(row) for row in a]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = field.inv(h[j + 1][j])
        for i in range(j + 2, n):
            if h[i][j]:
                c = field.mul(h[i][j], inv)
                for col in range(n):
                    h[i][col] = field.sub(h[i][col], field.mul(c, h[j + 1][col]))
                for row in range(n):
                    h[row][j + 1] = field.add(h[row][j + 1], field.mul(c, h[row][i]))
    polys = [Poly(field, (1,))]
    for m in range(1, n + 1):
        pm = Poly(field, (field.neg(h[m - 1][m - 1]), 1)) * polys[m - 1]
        beta = 1
        for i in range(1, m):
            beta = field.mul(beta, h[m - i][m - i - 1])
            if beta == 0:
                break
            coef = field.mul(h[m - 1 - i][m - 1], beta)
            if coef:
                pm = pm - polys[m - 1 - i].scale(coef)
        polys.append(pm)
    return polys[n]
