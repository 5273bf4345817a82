"""Freeze the benchmark's inputs and their expected outputs.

Run once, from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/data/freeze.py

It writes ``fixed_ops.json`` (the operations of the ``batch`` workload)
and ``query_pool.json`` (the candidate requests of ``class-queries``),
each operation with the
SHA-256 of its stdout.  The pools are drawn here with a fixed seed, so a
later change to class enumeration order cannot change the workload; the
benchmark's own ``--seed`` only samples and orders them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from squarefibers import cli  # noqa: E402
from squarefibers.ffpoly import field_from_order, monic_irreducibles  # noqa: E402
from squarefibers.formats import class_data_to_json, poly_to_text  # noqa: E402
from squarefibers.gl_classes import enumerate_classes  # noqa: E402

FREEZE_SEED = 20240326
POOL_PER_STRATUM = 250

FIXED = {
    "batch": [
        ("real_audit", ["real-classes", "--n", "5", "--q", "5"]),
        ("square_audit", ["audit-squares", "--n", "4", "--q", "7"]),
        ("class_list", ["classes", "--n", "7", "--q", "3", "--format", "csv"]),
        ("oracle_real", ["oracle", "--kind", "gl", "--n", "3", "--q", "3", "--report", "real"]),
        ("cache_write", ["oracle", "--kind", "u", "--n", "3", "--q", "3", "--report", "fibers",
                         "--cache", "u33.sqf"]),
        ("cache_read", ["oracle", "--kind", "u", "--n", "3", "--q", "3", "--report", "fibers",
                        "--cache", "u33.sqf"]),
    ],
}

# sqrt-count strata: GL_n(q).  classify-poly strata: q -> (degrees, m values).
SQRT_GROUPS = ((4, 7), (6, 3), (3, 9), (2, 25))
CLASSIFY_FIELDS = {7: ((1, 2, 3, 4), (2, 3, 4)), 9: ((1, 2, 3), (2, 4)), 25: ((1, 2), (2, 3, 4))}


def stdout_digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}; only operations that succeed are frozen")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def sqrt_requests(rng: random.Random, n: int, q: int) -> list[list[str]]:
    classes = list(enumerate_classes(n, q))
    return [
        ["sqrt-count", "--group", "gl", "--q", str(q), "--class",
         json.dumps(class_data_to_json(data), separators=(",", ":"))]
        for data in rng.sample(classes, POOL_PER_STRATUM)
    ]


def classify_requests(rng: random.Random, q: int, degrees, ms) -> list[list[str]]:
    field = field_from_order(q)
    by_degree = {
        d: [f for f in monic_irreducibles(field, d) if f.constant_term() != 0]
        for d in degrees
    }
    seen, out = set(), []
    while len(out) < POOL_PER_STRATUM:
        f = rng.choice(by_degree[rng.choice(degrees)])
        m = rng.choice(ms)
        if (f, m) not in seen:
            seen.add((f, m))
            out.append(["classify-poly", "--q", str(q), "--poly", poly_to_text(f),
                        "--m", str(m)])
    return out


def main() -> None:
    fixed = {}
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # the oracle cache path is relative to the pass's directory
        for workload, ops in FIXED.items():
            fixed[workload] = [
                {"name": name, "argv": argv, "sha256": stdout_digest(argv)}
                for name, argv in ops
            ]
        os.chdir(ROOT)
    rng = random.Random(FREEZE_SEED)
    strata = {}
    for n, q in SQRT_GROUPS:
        strata[f"sqrt-count GL_{n}({q})"] = sqrt_requests(rng, n, q)
    for q, (degrees, ms) in CLASSIFY_FIELDS.items():
        strata[f"classify-poly F_{q}"] = classify_requests(rng, q, degrees, ms)
    pool = {
        stratum: [{"argv": argv, "sha256": stdout_digest(argv)} for argv in requests]
        for stratum, requests in strata.items()
    }
    for name, obj in (("fixed_ops.json", fixed), ("query_pool.json", pool)):
        write_ops(os.path.join(HERE, name), obj)


def write_ops(path: str, groups: dict[str, list[dict]]) -> None:
    """JSON with one operation per line, so that a diff shows which changed."""
    blocks = [
        f" {json.dumps(key)}: [\n" + ",\n".join("  " + json.dumps(op) for op in ops) + "\n ]"
        for key, ops in groups.items()
    ]
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
