"""Tests of the benchmark itself, on a tiny mode (n <= 2, q = 3).

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import json
import os
import sys
from array import array

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

# Together these reach every traced function and counter.
TINY_ARGVS = [
    ["real-classes", "--n", "2", "--q", "3"],
    ["audit-squares", "--n", "2", "--q", "3", "--oracle"],
    ["classes", "--n", "2", "--q", "3", "--format", "csv"],
    ["sqrt-count", "--group", "gl", "--q", "3", "--class",
     '{"entries":[{"poly":"1,1","partition":"1^2"}]}'],
    ["classify-poly", "--q", "3", "--poly", "1,0,1", "--m", "4"],
    ["oracle", "--kind", "gl", "--n", "2", "--q", "3", "--report", "classes"],
    ["oracle", "--kind", "gl", "--n", "2", "--q", "3", "--report", "s2"],
    ["oracle", "--kind", "u", "--n", "2", "--q", "3", "--report", "fibers", "--cache", "u23.sqf"],
    ["oracle", "--kind", "u", "--n", "2", "--q", "3", "--report", "fibers", "--cache", "u23.sqf"],
]


@pytest.fixture(scope="module")
def tiny_ops(tmp_path_factory):
    """The tiny operations with the digests of their stdout, computed in
    this process in a directory of their own."""
    from squarefibers import cli

    work = tmp_path_factory.mktemp("digests")
    with contextlib.chdir(work):
        ops = []
        for argv in TINY_ARGVS:
            _, digest, error = child.run_op(cli, argv)
            assert error is None, (argv, error)
            ops.append({"argv": argv, "sha256": digest})
    return ops


def one_pass(ops, tmp_path, trace=False, index=0):
    report = run.run_pass(ops, trace, str(tmp_path), index, timeout=120)
    assert report["died"] is None
    return report


def test_correct_outputs_pass(tiny_ops, tmp_path):
    summary = run.summarize(tiny_ops, [one_pass(tiny_ops, tmp_path)], trace=False)
    assert summary["result"]["correct"]
    assert summary["result"]["failed"] == 0
    assert summary["result"]["attempted"] == len(tiny_ops)
    assert set(summary["result"]["metrics"]) == {name for name, _ in run.E2E_METRICS}
    assert set(summary["extras"]) == {name for name, _ in run.PERCENTILES}


def test_named_operations_are_printed_by_name(tiny_ops, tmp_path):
    ops = [dict(op, name=f"op{i}") for i, op in enumerate(tiny_ops[:2])]
    summary = run.summarize(ops, [one_pass(ops, tmp_path)], trace=False)
    assert summary["result"]["correct"]
    assert set(summary["extras"]) == {"op0_s", "op1_s"}


def test_wrong_digest_counts_as_failed_op(tiny_ops, tmp_path):
    ops = [dict(op) for op in tiny_ops[:3]]
    ops[1]["sha256"] = "0" * 64
    report = one_pass(ops, tmp_path)
    assert [op["error"] is None for op in report["ops"]] == [True, False, True]
    summary = run.summarize(ops, [report], trace=False)
    assert not summary["result"]["correct"]
    assert summary["result"]["failed"] == 1


@pytest.mark.parametrize("argv", [
    ["classes", "--n", "0", "--q", "3"],  # refused by the program: exit 2
    ["classes", "--n", "two", "--q", "3"],  # refused by argparse: SystemExit
    ["sqrt-count", "--q", "3", "--class", '{"entries":[{"partition":"1^1"}]}'],  # raises
])
def test_invalid_input_counts_as_failed_op(tiny_ops, tmp_path, argv):
    ops = [tiny_ops[2], {"argv": argv, "sha256": tiny_ops[2]["sha256"]}]
    report = one_pass(ops, tmp_path)
    assert report["ops"][0]["error"] is None
    assert report["ops"][1]["error"]
    assert run.summarize(ops, [report], trace=False)["result"]["failed"] == 1


def test_self_time_is_span_time_minus_child_spans():
    # a [0, 10] holds b [1, 4] and d [5, 6]; b holds c [2, 3].
    start, end, parent = [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 6.0], [-1, 0, 1, 0]
    assert tracer.self_times(start, end, parent) == [6.0, 2.0, 1.0, 1.0]

    t = tracer.Tracer()
    t.span_name = array("i", [t.name_id("cli.run"), t.name_id("cli.handler"),
                              t.name_id("ffpoly.factorize"), t.name_id("ffpoly.factorize")])
    t.start, t.end, t.parent = array("d", start), array("d", end), array("i", parent)
    stats = t.layer_stats()
    assert stats["cli.run.self_s"] == 6.0
    assert stats["ffpoly.factorize.calls"] == 2
    assert stats["ffpoly.factorize.self_s"] == 2.0


def test_every_layer_metric_is_emitted(tiny_ops, tmp_path):
    passes = [one_pass(tiny_ops, tmp_path), one_pass(tiny_ops, tmp_path, trace=True, index=1)]
    layers = passes[1]["layers"]
    for name, _, _ in tracer.LAYER_METRICS:
        if name == "trace.overhead":
            continue
        assert name in layers, name
        if name.endswith((".calls", ".self_s", ".bytes")):
            assert layers[name] > 0, f"{name} was not reached: is the function still wrapped?"
    assert layers["brute_oracle.build_table.hit_ratio"] > 0
    assert os.path.getsize(tmp_path / "spans-pass1.json.gz") > 0

    summary = run.summarize(tiny_ops, passes, trace=True)
    assert summary["result"]["correct"], summary["failures"]
    assert list(summary["result"]["metrics"]) == [name for name, _, _ in tracer.LAYER_METRICS]
    assert summary["result"]["metrics"]["trace.overhead"]["value"] > 0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracer.LAYER_METRICS
    )
