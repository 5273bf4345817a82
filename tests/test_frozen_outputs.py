"""Replay of the benchmark's operations against the stdout digests frozen
under perfbench/data, so a changed output byte fails here and not only in
a benchmark run.  The data files are only read."""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from squarefibers.cli import run

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def _ops():
    """Every op of both workloads, the batch ops first and in their order:
    its cache read follows its cache write."""
    fixed = json.loads((DATA / "fixed_ops.json").read_text())
    pool = json.loads((DATA / "query_pool.json").read_text())
    return [op for ops in (*fixed.values(), *pool.values()) for op in ops]


def test_every_benchmark_op_prints_its_frozen_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the batch writes its cache file here
    ops = _ops()
    assert len(ops) == 1756
    differ = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(op["argv"])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (code, digest) != (0, op["sha256"]):
            differ.append((op["argv"], code, err.getvalue()))
    assert not differ, f"{len(differ)} of {len(ops)} ops differ, first {differ[0]}"
