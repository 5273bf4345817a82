"""CLI contract: payload shapes, exit codes, schema validation and
byte-level determinism."""

import argparse
import hashlib
import io
import os
import tempfile
import time
import json
import random
import re
import subprocess
import sys
from array import array
from contextlib import redirect_stderr, redirect_stdout
from datetime import datetime, timedelta
from functools import lru_cache
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarefibers.audits import AuditRecord
from squarefibers.brute_oracle import ElementTable, GroupSpec, build_table, save_table
from squarefibers import cli, gl_classes
from squarefibers.cli import _audit_csv, report_to_json, run, write_json
from squarefibers.ffpoly import (
    Poly,
    field_from_order,
    is_irreducible,
    monic_irreducibles,
    substitute_power,
)
from squarefibers.formats import class_data_to_json, poly_from_text
from squarefibers.gl_classes import class_count, enumerate_classes
from squarefibers.limits import InputError
from squarefibers.matrices import mat_inv, mat_mul

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report_schema.json").read_text()
)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv):
    code, out, err = invoke(argv)
    assert code == 0, err
    envelope = json.loads(out)
    jsonschema.validate(envelope, SCHEMA)
    return envelope


def test_classify_poly_skew_example():
    env = invoke_json(["classify-poly", "--q", "3", "--poly", "1,1", "--m", "2"])
    payload = env["payload"]
    assert payload["classification"] == "skew-2-power"
    assert payload["f_of_x2"] == "1,0,1"
    assert payload["butler_profile"]["entries"] == [
        {"degree": 2, "count": 1, "root_order": "4"}
    ]


def test_classify_poly_two_power():
    env = invoke_json(["classify-poly", "--q", "3", "--poly", "1,0,1"])
    payload = env["payload"]
    assert payload["classification"] == "2-power"
    assert payload["factors_of_f_x2"] == ["2,1,1", "2,2,1"]
    assert payload["star_classification"] == "neither"


def test_classify_poly_degree_23_over_the_largest_prime_field():
    # f(x^2) has degree 46 and classify2's exponent (q^23 - 1)/2 has 460 bits
    field = field_from_order(1048573)
    rng = random.Random(0)
    while True:
        f = Poly(field, tuple(rng.randrange(1, field.q) for _ in range(23)) + (1,))
        if is_irreducible(f):
            break
    start = time.perf_counter()
    env = invoke_json(["classify-poly", "--q", "1048573", "--poly", str(f)])
    assert time.perf_counter() - start < 5.0
    payload = env["payload"]
    product = Poly(field, (1,))
    for text in payload["factors_of_f_x2"]:
        product = product * poly_from_text(field, text)
    assert product == substitute_power(f, 2)
    assert payload["classification"] == "2-power"


def test_classify_poly_profile_past_the_factoring_limit_exits_3_in_seconds():
    # the degree-23 input above: Phi_23(1048573) has 133 digits, and factoring
    # it had no work bound, so this argv ran until it was killed
    poly = ("244386,640450,311980,642260,90838,739167,911049,536996,787997,298241,"
            "808904,920081,925842,370222,431419,480557,56561,662574,730654,541196,"
            "697964,1002930,680015,1")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "squarefibers.cli", "classify-poly", "--q", "1048573",
         "--poly", poly, "--m", "3"],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert time.perf_counter() - start < 5.0
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr == (
        "refused: the root order of a degree-23 polynomial over F_1048573 needs the "
        "primes of Phi_23(1048573), past the limit 18446744073709551615\n"
    )


def test_classify_poly_rejects_reducible():
    # both doors for a polynomial refuse it with the same line; past the
    # door classify2 trusts its input, and on x^2 - 1 it would not return
    for poly, problem in [
        ("0,1", "is divisible by x"),
        ("1,2", "is not monic of degree >= 1"),
        ("0", "is not monic of degree >= 1"),
        ("2,0,1", "is not irreducible"),
    ]:
        entry = json.dumps({"entries": [{"poly": poly, "partition": "1^1"}]})
        for argv in (
            ["classify-poly", "--q", "3", "--poly", poly],
            ["sqrt-count", "--group", "gl", "--q", "3", "--class", entry],
        ):
            assert invoke(argv) == (2, "", f"error: {poly} over F_3 {problem}\n"), argv


def test_classes_payload_and_mass():
    env = invoke_json(["classes", "--n", "2", "--q", "3"])
    payload = env["payload"]
    assert payload["group_order"] == "48"
    assert payload["class_count"] == "8"
    assert len(payload["classes"]) == 8
    assert sum(int(rec["class_size"]) for rec in payload["classes"]) == 48


def test_classes_csv():
    code, out, _ = invoke(["classes", "--n", "2", "--q", "3", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,entries,centralizer_order,class_size,element_order,real"
    assert len(lines) == 9


def test_classes_computes_one_centralizer_order_per_class(monkeypatch):
    calls = []
    order = gl_classes.centralizer_order

    def counted(data):
        calls.append(data)
        return order(data)

    for module in (cli, gl_classes):
        monkeypatch.setattr(module, "centralizer_order", counted)
    code, out, _ = invoke(["classes", "--n", "7", "--q", "3", "--format", "csv"])
    assert code == 0
    assert out.count("\n") - 1 == len(calls) == len(set(calls)) == 2152


def test_sqrt_count_minus_identity():
    env = invoke_json(
        [
            "sqrt-count",
            "--group",
            "gl",
            "--n",
            "2",
            "--q",
            "3",
            "--class",
            '{"entries":[{"poly":"1,1","partition":"1^2"}]}',
        ]
    )
    payload = env["payload"]
    assert payload["count"] == "6"
    assert payload["has_square_root"] is True
    assert payload["root_classes"] == [
        {"q": "3", "n": 2, "entries": [{"poly": "1,0,1", "partition": "1^1"}]}
    ]
    assert env["warnings"]  # the closed form disagrees here


def test_sqrt_count_rejects_weight_mismatch():
    code, _, err = invoke(
        [
            "sqrt-count",
            "--group",
            "gl",
            "--n",
            "3",
            "--q",
            "3",
            "--class",
            '{"entries":[{"poly":"1,1","partition":"1^2"}]}',
        ]
    )
    assert code == 2
    assert "weight" in err


def test_sqrt_count_unitary_existence():
    env = invoke_json(
        [
            "sqrt-count",
            "--group",
            "u",
            "--q",
            "3",
            "--class",
            '{"entries":[{"poly":"1,1","partition":"1^1"}]}',
        ]
    )
    assert env["payload"]["has_square_root"] is True
    assert "count" not in env["payload"]


def test_sqrt_count_symplectic_minus_identity_clause():
    env = invoke_json(
        [
            "sqrt-count",
            "--group",
            "sp",
            "--q",
            "3",
            "--class",
            '{"entries":[{"poly":"1,1","partition":"1^2"}]}',
        ]
    )
    assert env["payload"]["has_square_root"] is False


@pytest.mark.parametrize("entries", [
    '{"poly":"2,1","partition":"1^1"}',  # "Sp_1(3)"
    '{"poly":"1,1","partition":"1^1"},{"poly":"2,1","partition":"1^1"}',  # diag(-1, 1)
])
def test_sqrt_count_symplectic_refuses_data_no_symplectic_matrix_has(entries):
    argv = ["sqrt-count", "--group", "sp", "--q", "3", "--class", f'{{"entries":[{entries}]}}']
    assert _one_error_line(*invoke(argv))


def test_audit_squares_gl_with_oracle():
    env = invoke_json(["audit-squares", "--n", "2", "--q", "3", "--oracle"])
    payload = env["payload"]
    assert payload["summary"]["records"] == "8"
    assert int(payload["summary"]["flagged"]) >= 2
    flagged_subjects = {
        r["subject"] for r in payload["records"] if r["mismatches"]
    }
    assert "(2,1)->1^2" in flagged_subjects  # identity
    assert "(1,1)->1^2" in flagged_subjects  # minus identity
    assert env["warnings"]


def _assert_gl3_audit_agrees(q):
    # every class compares the factorization kind (existence predicate) with
    # the root-order kind (block-product count)
    env = invoke_json(["audit-squares", "--n", "3", "--q", str(q)])
    records = env["payload"]["records"]
    assert len(records) == class_count(3, q)
    assert not any(
        "existence predicate disagrees" in m for r in records for m in r["mismatches"]
    )


def test_audit_squares_gl3_over_f25():
    # about 4.5 s on a 2-vCPU Xeon, schema validation included
    _assert_gl3_audit_agrees(25)


def test_audit_squares_gl3_over_f27():
    # 19,656 classes over 6,929 polynomials; about 5 s on a 2-vCPU Xeon
    assert class_count(3, 27) == 19656
    _assert_gl3_audit_agrees(27)


def test_audit_squares_sp_flags_minus_identity():
    env = invoke_json(["audit-squares", "--group", "sp", "--n", "2", "--q", "3"])
    payload = env["payload"]
    assert payload["summary"]["flagged"] == "1"
    flagged = [r for r in payload["records"] if r["mismatches"]]
    assert flagged[0]["subject"] == "(1,1)->1^2"


def test_audit_squares_csv():
    code, out, _ = invoke(
        ["audit-squares", "--n", "2", "--q", "3", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines()[0].startswith("subject,")


def test_audit_csv_refuses_a_record_with_other_keys():
    first = AuditRecord("x+1", (("class_size", "1"), ("count", "2")), ())
    same = AuditRecord("x+2", (("class_size", "1"), ("count", "0")), ("no root",))
    other = AuditRecord("x+2", (("class_size", "1"), ("oracle_fiber", "2")), ())
    out = io.StringIO()
    with redirect_stdout(out):
        _audit_csv(report_to_json("hand-made", [first, same], []))
    assert out.getvalue() == (
        "subject,class_size,count,mismatches\nx+1,1,2,\nx+2,1,0,no root\n"
    )
    with redirect_stdout(io.StringIO()), pytest.raises(RuntimeError, match="x\\+2"):
        _audit_csv(report_to_json("hand-made", [first, other], []))


def test_real_classes_methods():
    env = invoke_json(["real-classes", "--n", "2", "--q", "3", "--method", "ms"])
    assert env["payload"]["real_classes"] == "6"
    assert env["payload"]["s2"] == "288"
    env = invoke_json(["real-classes", "--n", "2", "--q", "3", "--method", "direct"])
    assert env["payload"]["real_classes"] == "6"
    env = invoke_json(["real-classes", "--n", "1", "--q", "3", "--method", "theorem"])
    assert env["payload"]["evaluations"] == {
        "exact-order": "1",
        "order-dividing": "2",
    }
    env = invoke_json(["real-classes", "--n", "2", "--q", "3", "--method", "gf-audit"])
    assert all(c["agree"] for c in env["payload"]["checks"])


def test_real_classes_default_full_audit():
    env = invoke_json(["real-classes", "--n", "2", "--q", "3"])
    assert env["payload"]["scope"] == "gl n=2 q=3 real-class audit"
    assert env["warnings"]  # the published-statement evaluators miss here


_REFUSALS = [
    (["--n", "2", "--q", "999983"], 3, "refused: GL_2(999983) has more than 1000000 classes"),
    (["--n", "65", "--q", "3"], 3, "refused: GL_65(3) has more than 1000000 classes"),
    (["--n", "3", "--q", "125"], 3, "refused: GL_3(125) has more than 1000000 classes"),
    (["--n", "0", "--q", "3"], 2, "error: dimension must be positive"),
    (["--n", "2", "--q", "6"], 2, "error: 6 is not a prime power"),
]


@pytest.mark.parametrize("method", [None, "direct", "ms", "theorem", "gf-audit"])
@pytest.mark.parametrize("args,code,line", _REFUSALS, ids=[" ".join(a) for a, _, _ in _REFUSALS])
def test_real_classes_refuses_before_any_label(args, code, line, method):
    # the class-walk limits come before any orbit label is built, with the
    # messages of the polynomial class walk
    argv = ["real-classes", *args] + (["--method", method] if method else [])
    start = time.perf_counter()
    assert invoke(argv) == (code, "", line + "\n")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("module,name,value,message", [
    # every row real: 8 real rows, where GL_2(3) has 6 real classes
    (cli, "inverse_class", lambda data: data, "8 rows are real, the product formula gives 6"),
    (gl_classes, "reciprocal", lambda f: f, "8 rows are real, the product formula gives 6"),
    (cli, "class_size", lambda data, centralizer: 1,
     "the class sizes sum to 8, not to the group order"),
], ids=["real-flag-always-true", "reciprocal-identity", "class-size-one"])
def test_classes_end_checks_catch_a_wrong_row(monkeypatch, module, name, value, message):
    monkeypatch.setattr(module, name, value)
    code, out, err = invoke(["classes", "--n", "2", "--q", "3"])
    assert (code, err) == (4, f"internal error: {message}\n")
    assert out.count('"class":') == 8  # the rows stay written


def test_oracle_reports():
    env = invoke_json(
        ["oracle", "--kind", "gl", "--n", "2", "--q", "3", "--report", "fibers"]
    )
    assert env["payload"]["identity_fiber"] == "14"
    env = invoke_json(
        ["oracle", "--kind", "sp", "--n", "2", "--q", "3", "--report", "s2"]
    )
    assert env["payload"]["s2"] == "72"
    assert env["payload"]["murray_sambale_exact"] is True
    env = invoke_json(
        ["oracle", "--kind", "u", "--n", "1", "--q", "3", "--report", "real"]
    )
    assert env["payload"]["real_classes"] == "2"
    env = invoke_json(
        ["oracle", "--kind", "o-", "--n", "2", "--q", "3", "--report", "classes"]
    )
    assert env["payload"]["class_count"] == "4"


def test_oracle_cache_roundtrip(tmp_path):
    cache = tmp_path / "sp23.sqf"
    first = invoke_json(
        ["oracle", "--kind", "sp", "--n", "2", "--q", "3", "--report", "s2",
         "--cache", str(cache)]
    )
    assert cache.exists()
    second = invoke_json(
        ["oracle", "--kind", "sp", "--n", "2", "--q", "3", "--report", "s2",
         "--cache", str(cache)]
    )
    assert first["payload"] == second["payload"]


def test_oracle_scale_refusal_exit_code():
    code, _, err = invoke(
        ["oracle", "--kind", "gl", "--n", "4", "--q", "9", "--report", "real"]
    )
    assert code == 3
    assert "refused" in err


@pytest.mark.parametrize("argv", [
    ["classify-poly", "--q", "9", "--poly", "1,1"],
    ["real-classes", "--n", "2", "--q", "3"],
])
def test_timestamp_is_aware_utc_and_changes_nothing_else(argv):
    stamped = invoke_json(argv + ["--timestamp"])
    plain = invoke_json(argv)
    when = datetime.fromisoformat(stamped.pop("timestamp"))
    assert when.utcoffset() == timedelta(0)
    assert plain.pop("timestamp") is None
    assert stamped.pop("command") == argv + ["--timestamp"]
    assert plain.pop("command") == argv
    assert stamped == plain


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        invoke(["classes", "--n", "2"])  # missing --q
    assert exc.value.code == 2


def test_unknown_csv_verb_rejected():
    code, _, err = invoke(
        ["classify-poly", "--q", "3", "--poly", "1,1"]
    )
    assert code == 0
    # classify-poly has no --format flag at all
    with pytest.raises(SystemExit):
        invoke(["classify-poly", "--q", "3", "--poly", "1,1", "--format", "csv"])


def test_outputs_are_byte_identical_across_runs_and_threads():
    commands = [
        ["classify-poly", "--q", "3", "--poly", "1,1", "--m", "2"],
        ["classes", "--n", "2", "--q", "3"],
        ["sqrt-count", "--group", "gl", "--q", "3", "--class",
         '{"entries":[{"poly":"1,1","partition":"1^2"}]}'],
        ["audit-squares", "--n", "2", "--q", "3", "--oracle"],
        ["real-classes", "--n", "2", "--q", "3"],
        ["oracle", "--kind", "sp", "--n", "2", "--q", "3", "--report", "s2"],
    ]
    for argv in commands:
        code1, out1, _ = invoke(argv)
        code2, out2, _ = invoke(argv)
        assert code1 == code2 == 0
        assert out2 == out1
        # there is no worker-count knob: the flag is refused like any other
        with pytest.raises(SystemExit) as exc:
            invoke(argv + ["--threads", "2"])
        assert exc.value.code == 2


def test_oracle_truncated_cache_exits_2(tmp_path):
    cache = tmp_path / "gl23.sqf"
    argv = ["oracle", "--kind", "gl", "--n", "2", "--q", "3", "--report", "real",
            "--cache", str(cache)]
    invoke_json(argv)
    raw = cache.read_bytes()
    for cut in (10, len(raw) - 1):
        cache.write_bytes(raw[:cut])
        code, out, err = invoke(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("report,name", [("real", "conjugacy_classes"),
                                          ("s2", "inverse_positions")])
def test_oracle_report_builds_each_map_once(monkeypatch, report, name):
    import squarefibers.brute_oracle as brute_oracle

    calls = []
    original = getattr(brute_oracle, name)

    def counted(table):
        calls.append(table)
        return original(table)

    # the oracle verb imports its functions when it runs, so this one
    # binding catches calls from the verb and from inside the oracle module
    monkeypatch.setattr(brute_oracle, name, counted)
    invoke_json(["oracle", "--kind", "gl", "--n", "2", "--q", "3", "--report", report])
    assert len(calls) == 1


def _one_error_line(code, out, err):
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_oracle_cache_with_a_zeroed_element_exits_2(tmp_path):
    # the zero matrix in place of the first element once gave identity fiber 13
    cache = tmp_path / "gl23.sqf"
    argv = ["oracle", "--kind", "gl", "--n", "2", "--q", "3", "--report", "fibers",
            "--cache", str(cache)]
    assert invoke_json(argv)["payload"]["identity_fiber"] == "14"
    raw = bytearray(cache.read_bytes())
    raw[21] = 0  # header 4 + 17 bytes, then one byte per element code
    cache.write_bytes(bytes(raw))
    assert _one_error_line(*invoke(argv))


def test_oracle_cache_with_a_non_isometry_exits_2(tmp_path):
    cache = tmp_path / "u23.sqf"
    argv = ["oracle", "--kind", "u", "--n", "2", "--q", "3", "--report", "fibers",
            "--cache", str(cache)]
    invoke_json(argv)
    raw = bytearray(cache.read_bytes())
    # [[1, 1], [0, 1]] over F_9: invertible, but its second column has norm 2
    raw[21 + 2 * 40 : 21 + 2 * 41] = (1 + 9 + 729).to_bytes(2, "little")
    cache.write_bytes(bytes(raw))
    assert _one_error_line(*invoke(argv))


@pytest.mark.parametrize("kind,n,q", [("o+", 2, 5), ("u", 2, 3), ("sp", 4, 3), ("o0", 3, 3)])
def test_oracle_cache_of_a_conjugate_group_exits_2(tmp_path, kind, n, q):
    # P^-1 G P with P = I plus ones on the superdiagonal is closed under
    # products and holds the identity, so only the membership check sees
    # that its elements do not preserve the form
    spec = GroupSpec(kind, n, q)
    table = build_table(spec)
    field = table.field
    p = tuple(tuple(int(j in (i, i + 1)) for j in range(n)) for i in range(n))
    p_inv = mat_inv(field, p)
    codes = array("Q", (
        table.encode(mat_mul(field, mat_mul(field, p_inv, table.matrix(i)), p))
        for i in range(len(table))
    ))
    cache = tmp_path / "conjugate.sqf"
    save_table(ElementTable(spec, field, codes), str(cache))
    code, out, err = invoke(["oracle", "--kind", kind, "--n", str(n), "--q", str(q),
                             "--report", "fibers", "--cache", str(cache)])
    assert _one_error_line(code, out, err)
    assert "an element does not preserve the form" in err


def _fibers_from_cache(kind, path):
    return invoke(["oracle", "--kind", kind, "--n", "2", "--q", "3", "--report", "fibers",
                   "--cache", path])


@lru_cache(maxsize=None)
def _clean_cache(kind):
    """The cache bytes of GL_2(3) or U_2(3) and the stdout of reading them,
    with the cache path (echoed in the command) as "CACHE"."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/table.sqf"
        assert _fibers_from_cache(kind, path)[0] == 0
        raw = Path(path).read_bytes()
        code, out, err = _fibers_from_cache(kind, path)
    assert code == 0, err
    return raw, out.replace(path, "CACHE")


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["gl", "u"]), data=st.data())
def test_oracle_cache_with_one_byte_changed(kind, data):
    # header or code: a changed byte is refused with one line, and only the
    # unchanged bytes give a report, the clean cache's
    raw, clean_out = _clean_cache(kind)
    position = data.draw(st.integers(0, len(raw) - 1), label="position")
    value = data.draw(st.integers(0, 255), label="value")
    changed = bytearray(raw)
    changed[position] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/table.sqf"
        Path(path).write_bytes(bytes(changed))
        code, out, err = _fibers_from_cache(kind, path)
    if changed == raw:
        assert (code, out.replace(path, "CACHE")) == (0, clean_out)
    else:
        assert code in (2, 3)
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(("error: ", "refused: "))
        assert "Traceback" not in err


def test_oracle_cache_path_that_cannot_be_used_exits_2(tmp_path):
    # a missing directory cannot be written; a directory or a FIFO is not a
    # regular file, and opening the FIFO would block until a writer came
    caches = [tmp_path / "missing" / "gl13.sqf", tmp_path]
    if hasattr(os, "mkfifo"):
        fifo = tmp_path / "gl13.sqf"
        os.mkfifo(fifo)
        caches.append(fifo)
    for cache in caches:
        argv = ["oracle", "--kind", "gl", "--n", "1", "--q", "3", "--report", "fibers",
                "--cache", str(cache)]
        code, out, err = invoke(argv)
        assert _one_error_line(code, out, err)
        if cache.exists():
            assert err == f"error: cache {cache} is not a regular file\n"


@pytest.mark.parametrize("m", [
    str(2**64),
    "300000000000000001940000000000000002091",  # two 20-digit primes, past 2^64
])
def test_classify_poly_profile_exponent_over_the_limit_exits_3_at_once(m):
    start = time.perf_counter()
    code, out, err = invoke(["classify-poly", "--q", "3", "--poly", "1,1", "--m", m])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1


# Reports that took 8 to 104 s element by element, with the payloads and
# the SHA-256 of the full stdout recorded from that implementation.
PINNED_ORACLE_REPORTS = [
    (["--kind", "sp", "--n", "4", "--q", "3", "--report", "s2"],
     {"group_order": "51840", "s2": "725760", "real_classes": "14",
      "murray_sambale_exact": True},
     "28e1a34faae174b88031dd8c06d76fd62d52d8691f827ded48d12c613500bf1d"),
    (["--kind", "u", "--n", "3", "--q", "3", "--report", "classes"],
     {"group_order": "24192", "class_count": "56"},
     "72e5f212cd73321ee976f352bd354b2dc8d4be1b5ba640caf6aae32373d64aaf"),
    (["--kind", "o0", "--n", "5", "--q", "3", "--report", "real"],
     {"group_order": "103680", "class_count": "50", "real_classes": "50"},
     "2443501081314091598f96bb5719a00078fe84ccb62bd8addee6bbd35637e6fe"),
]


@pytest.mark.parametrize("argv,expected,digest", PINNED_ORACLE_REPORTS,
                         ids=["sp4-s2", "u3-classes", "o0_5-real"])
def test_pinned_oracle_reports(argv, expected, digest):
    code, out, err = invoke(["oracle", *argv])
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert {key: payload[key] for key in expected} == expected
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Cyclic groups: one class per element, and an element can need a product
# of generators about as long as the group order, so no report may do work
# per element that grows with that length.  Element by element these take
# about a second on a 2-vCPU Xeon (walking generator words, 13 s for the
# first); payloads and digests recorded element by element.
LARGE_CYCLIC_ORACLE_REPORTS = [
    (["--kind", "gl", "--n", "1", "--q", "30011", "--report", "s2"],
     {"group_order": "30010", "s2": "60020", "real_classes": "2",
      "murray_sambale_exact": True},
     "07d393d34b415f9ab1fec73d5568f0b0ff7da38e648d7fdd67beb6de761aff81"),
    (["--kind", "gl", "--n", "1", "--q", "65537", "--report", "real"],
     {"group_order": "65536", "class_count": "65536", "real_classes": "2"},
     "a38726bff74d14b9e56035b467139403d180132cb6d30669163b58e355ef8a9e"),
]


@pytest.mark.parametrize("argv,expected,digest", LARGE_CYCLIC_ORACLE_REPORTS,
                         ids=["gl1_30011-s2", "gl1_65537-real"])
def test_oracle_on_a_large_cyclic_group_runs_in_linear_time(argv, expected, digest):
    start = time.perf_counter()
    code, out, err = invoke(["oracle", *argv])
    assert time.perf_counter() - start < 10.0
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert {key: payload[key] for key in expected} == expected
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Full real-class audits at the edge of the limits: a field of order
# near MAX_FIELD_ORDER, and class counts near MAX_CLASS_COUNT.
CEILING_REAL_CLASS_AUDITS = [
    (["--n", "1", "--q", "999983"],
     "2a85be9d5e4b844d34b68c76f85a7fa11d98a76cf100538c2255c5b654eb736e"),
    (["--n", "2", "--q", "997"],
     "7297cc837e50f333f7bee36869eb957d4e1a8f2b503d8ba1b97e2dae9feb2858"),
    (["--n", "12", "--q", "3"],
     "fcb84fbd3d7dc85bd984b2fbd242fe2e4fa0f78bb795af219f40a06fda937432"),
    (["--n", "4", "--q", "25"],
     "a177415d17c4124f5d60e4132c5682030d2af0eaaf65c0b27f6f2b0a21d3fba2"),
]


@pytest.mark.parametrize("argv,digest", CEILING_REAL_CLASS_AUDITS,
                         ids=["gl1_999983", "gl2_997", "gl12_3", "gl4_25"])
def test_real_class_audit_at_the_ceiling(argv, digest):
    start = time.perf_counter()
    code, out, err = invoke(["real-classes", *argv])
    assert time.perf_counter() - start < 10.0
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("kind", ["gl", "o0"])
def test_oracle_cache_for_codes_past_64_bits_exits_3(tmp_path, kind):
    # 149^9 > 2^64: nine-byte codes; GL_3(149) and O_3(149) (6.6 million
    # elements) are also past the order budget
    import struct

    cache = tmp_path / "big.sqf"
    count = 2
    header = struct.pack("<BIIQ", ["gl", "u", "sp", "o+", "o-", "o0"].index(kind), 3, 149, count)
    cache.write_bytes(b"SQF1" + header + b"\xff" * 9 * count)
    code, out, err = invoke(["oracle", "--kind", kind, "--n", "3", "--q", "149",
                             "--report", "real", "--cache", str(cache)])
    assert code == 3
    assert out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1


def test_oracle_cache_past_the_order_budget_exits_3_like_the_cacheless_run(tmp_path):
    # GL_2(37) has 1,822,176 elements: the cache is refused for the group's
    # order before its header is read, as the run without a cache is
    import struct

    cache = tmp_path / "gl2_37.sqf"
    cache.write_bytes(b"SQF1" + struct.pack("<BIIQ", 0, 2, 37, 2) + b"\x00" * 2 * 2)
    argv = ["oracle", "--kind", "gl", "--n", "2", "--q", "37", "--report", "real"]
    for extra in ([], ["--cache", str(cache)]):
        code, out, err = invoke(argv + extra)
        assert code == 3
        assert out == ""
        assert err.startswith("refused: ") and err.count("\n") == 1


# Refused before anything of their size is formed: an n of 1000 or 3000
# once ran for minutes (or formed and printed an order of about 480k
# digits), and larger n would have run out of memory; the Butler profile
# took 4 s and printed 2.6 MB, one entry for each of 23,040 divisors
HUGE_SIZE_ARGVS = [
    ["classes", "--n", "1000", "--q", "3"],
    ["classes", "--n", str(10**9), "--q", "3"],
    ["real-classes", "--n", "3000", "--q", "3"],
    ["real-classes", "--n", "3000", "--q", "3", "--method", "gf-audit"],
    ["real-classes", "--n", "3000", "--q", "3", "--method", "ms"],
    ["audit-squares", "--n", "3000", "--q", "3"],
    ["audit-squares", "--n", "3000", "--q", "3", "--oracle"],
    ["audit-squares", "--group", "sp", "--n", "3000", "--q", "3"],
    ["audit-squares", "--group", "u", "--n", str(10**9), "--q", "3"],
    ["oracle", "--kind", "gl", "--n", "1000", "--q", "3", "--report", "real"],
    ["oracle", "--kind", "u", "--n", "3000", "--q", "3", "--report", "s2"],
    ["oracle", "--kind", "o-", "--n", str(10**12), "--q", "3", "--report", "fibers"],
    ["classify-poly", "--q", "47", "--poly", "1,1", "--m", "18401055938125660800"],
]


@pytest.mark.parametrize("argv", HUGE_SIZE_ARGVS, ids=" ".join)
def test_huge_sizes_are_refused_at_once(argv):
    start = time.perf_counter()
    code, out, err = invoke(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1


def test_classes_gl8_over_f3():
    # this size once raised RecursionError; the schema check is skipped for time
    code, out, err = invoke(["classes", "--n", "8", "--q", "3"])
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert payload["class_count"] == str(len(payload["classes"]))


@pytest.mark.parametrize("cls", [
    '{"entries":[{"partition":"1"}]}',  # entry without a "poly"
    '{"n":"x","entries":[{"poly":"1,1","partition":"1"}]}',  # "n" not an integer
    '{"entries":"abc"}',  # "entries" not a list
])
def test_sqrt_count_malformed_class_json_exits_2(cls):
    code, out, err = invoke(["sqrt-count", "--group", "gl", "--q", "3", "--class", cls])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sqrt_count_partition_over_the_weight_limit_exits_3_at_once():
    cls = '{"entries":[{"poly":"1,1","partition":"1^100000"}]}'
    start = time.perf_counter()
    code, out, err = invoke(["sqrt-count", "--group", "gl", "--q", "3", "--class", cls])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1


def test_classify_poly_field_order_over_the_limit_exits_3_at_once():
    # the product of two 26-digit primes: refused before any factoring
    q = "300000000000000000000001060000000000000000000000871"
    start = time.perf_counter()
    code, out, err = invoke(["classify-poly", "--q", q, "--poly", "1,1", "--m", "2"])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,code,start", [
    (["classes", "--n", "2", "--q", "9" * 100_000], 3, "refused: field order 999"),
    (["classify-poly", "--q", "3", "--poly", "x" * 100_000], 2,
     "error: bad polynomial string 'xxx"),
], ids=["classes --q", "classify-poly --poly"])
def test_a_huge_input_value_is_cut_short_in_its_error_line(argv, code, start):
    got, out, err = invoke(argv)
    assert (got, out) == (code, "")
    assert err.startswith(start) and err.count("\n") == 1
    assert len(err.encode()) < 300


def _two_power_entries_over_f7(partition):
    # x+6, x+5, x+3: each f(x^2) splits over F_7, so every multiplicity
    # of the partition is distributed between two factors
    entries = [{"poly": poly, "partition": partition} for poly in ("6,1", "5,1", "3,1")]
    return json.dumps({"entries": entries})


def test_sqrt_count_root_class_count_over_the_limit_exits_3_at_once():
    cls = _two_power_entries_over_f7("1^64")  # 65^3 = 274,625 root classes
    start = time.perf_counter()
    code, out, err = invoke(["sqrt-count", "--group", "gl", "--q", "7", "--class", cls])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1


def test_sqrt_count_root_class_count_under_the_limit_answers():
    cls = _two_power_entries_over_f7("1^20")  # 21^3 = 9,261 root classes
    code, out, err = invoke(["sqrt-count", "--group", "gl", "--q", "7", "--class", cls])
    assert code == 0, err
    assert len(json.loads(out)["payload"]["root_classes"]) == 21**3



def test_sqrt_count_past_the_interpreter_digit_bound_answers():
    # once a ValueError traceback: the count has 5,196 digits, past the
    # 4300-digit default bound on int-to-str conversion
    cls = json.dumps({"entries": [{"poly": "4,3,3,1", "partition": "1^64"},
                                  {"poly": "3,6,1", "partition": "1^2"}]})
    bound = sys.get_int_max_str_digits()
    code, out, err = invoke(["sqrt-count", "--group", "gl", "--q", "7", "--class", cls])
    assert code == 0, err
    assert len(json.loads(out)["payload"]["count"]) == 5196
    assert sys.get_int_max_str_digits() == bound

# -- envelope rendering ---------------------------------------------------------

# every code point, lone surrogates and control characters included
_any_char = st.characters(exclude_categories=())
_any_text = st.text(_any_char)
_json_scalars = (
    _any_text
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.booleans()
    | st.none()
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_any_text, inner, max_size=4),
    max_leaves=25,
)


def _written(obj):
    writes = []
    write_json(obj, writes.append)
    return "".join(writes)


def _lazy(rng, obj):
    """obj with some of its lists made iterators and some of its values
    made callables that return them."""
    if isinstance(obj, dict):
        obj = {k: _lazy(rng, v) for k, v in obj.items()}
    elif isinstance(obj, list):
        obj = [_lazy(rng, v) for v in obj]
        if rng.random() < 0.5:
            obj = iter(obj)
    if rng.random() < 0.2:
        return lambda: obj
    return obj


@settings(max_examples=300)
@given(_json_values)
def test_render_json_equals_json_dumps_with_indent_2(obj):
    assert _written(obj) == json.dumps(obj, indent=2) + "\n"


@settings(max_examples=300)
@given(_json_values, st.randoms(use_true_random=False))
def test_write_json_takes_iterators_and_callables_in_place_of_their_values(obj, rng):
    assert _written(_lazy(rng, obj)) == json.dumps(obj, indent=2) + "\n"


def test_write_json_writes_each_row_as_it_is_drawn():
    writes = []

    def rows():
        for i in range(3):
            # every row before this one is out
            assert len(writes) == i
            yield {"i": i}

    write_json({"rows": rows(), "after": lambda: len(writes)}, writes.append)
    assert writes == [
        '{\n  "rows": [\n    {\n      "i": 0\n    }',
        ',\n    {\n      "i": 1\n    }',
        ',\n    {\n      "i": 2\n    }',
        '\n  ],\n  "after": 3\n}\n',
    ]


def test_render_json_empty_containers_and_refusals():
    obj = {"a": [], "b": {}, "c": (), "d": [{}, [[]]], "e": 10**100, "f": [True, False, None]}
    assert _written(obj) == json.dumps(obj, indent=2) + "\n"
    assert _written({"a": iter(()), "b": lambda: {}}) == '{\n  "a": [],\n  "b": {}\n}\n'
    for bad in (1.5, {1: "x"}, {None: 1}, {"s": {1, 2}}, [b"raw"], object()):
        with pytest.raises(TypeError):
            _written(bad)


# -- fuzzed arguments of the class verbs ----------------------------------------

# Structural choices come from a seeded Random drawn by hypothesis, so that
# most examples get past the shape checks; junk text comes from hypothesis.
_junk = st.text(_any_char, max_size=12)


@lru_cache(maxsize=None)
def _irreducible_texts(q):
    field = field_from_order(q)
    return [",".join(map(str, f.coeffs))
            for d in range(1, 4 if q < 9 else 3) for f in monic_irreducibles(field, d)]


def _poly_text(draw, rng, q):
    """Mostly an irreducible of F_q (x among them), else a random list or junk."""
    roll = rng.random()
    if roll < 0.8:
        return rng.choice(_irreducible_texts(q))
    if roll < 0.95:
        return ",".join(str(rng.randint(-2, q + 1)) for _ in range(rng.randint(1, 5)))
    return draw(_junk)


def _partition_text(draw, rng):
    """Mostly one or two distinct parts of multiplicity 1 or 2, else repeated,
    zero or negative parts, an over-weight partition or junk."""
    roll = rng.random()
    if roll < 0.8:
        parts = rng.sample([1, 2, 3], rng.randint(1, 2))
        return "+".join(f"{a}^{rng.randint(1, 2)}" for a in sorted(parts))
    if roll < 0.9:
        return "+".join(f"{rng.randint(-1, 3)}^{rng.randint(-1, 3)}" for _ in range(3))
    if roll < 0.95:
        return rng.choice(["1^64", "65", "1+", ""])
    return draw(_junk)


@st.composite
def _class_text(draw, q):
    """--class text: class objects whose entries are mostly well formed, and
    a share of broken shapes and raw junk."""
    rng = draw(st.randoms(use_true_random=True))
    roll = rng.random()
    if roll < 0.05:
        return draw(_junk)
    if roll < 0.1:
        return json.dumps(rng.choice([[], {}, {"entries": None}, {"entries": "1,1"}, 3]))
    entries = []
    for _ in range(rng.choice([0, 1, 1, 1, 1, 2, 2, 2, 3, 3])):
        entry = {"poly": _poly_text(draw, rng, q), "partition": _partition_text(draw, rng)}
        if rng.random() < 0.03:
            entry.pop(rng.choice(["poly", "partition"]))
        if rng.random() < 0.03:
            entry[rng.choice(["poly", "partition"])] = rng.choice([None, 1, [], {}])
        entries.append(entry)
    obj = {"entries": entries}
    if rng.random() < 0.15:
        obj["n"] = rng.choice([rng.randint(0, 12), rng.randint(0, 12), True, None, "2"])
    if rng.random() < 0.15:
        obj["q"] = rng.choice([str(q), str(q), q, "3", "3^2", "0", draw(_junk)])
    return json.dumps(obj)


@st.composite
def _field_text(draw):
    """A field order as text, mostly a valid one."""
    rng = draw(st.randoms(use_true_random=True))
    roll = rng.random()
    if roll < 0.7:
        return rng.choice(["3", "5", "7", "9", "25", "3^2", "27", "11", "13"])
    if roll < 0.9:
        return str(rng.randint(-5, 60))
    return draw(_junk)


# --m is an argparse int: other text exits 2 with argparse's usage message
_exponent_text = st.one_of(
    st.integers(-3, 50), st.integers(2**64 - 3, 2**64 + 3), st.integers(0, 10**6)
).map(str)


def _assert_clean_exit(code, out, err):
    assert code in (0, 2, 3)
    if code == 0:
        json.loads(out)
    else:
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(("error: ", "refused: "))
    assert "Traceback" not in err


_FUZZ_FIELDS = [3, 5, 7, 9, 25]


@settings(max_examples=150, deadline=5000)
@given(group=st.sampled_from(["gl", "u", "sp"]), q=st.sampled_from(_FUZZ_FIELDS), data=st.data())
def test_sqrt_count_with_fuzzed_class_data(group, q, data):
    # the unitary group reads the class over F_{q^2}
    cls = data.draw(_class_text(q * q if group == "u" else q), label="class")
    _assert_clean_exit(*invoke(["sqrt-count", "--group", group, "--q", str(q), f"--class={cls}"]))


@lru_cache(maxsize=None)
def _class_objects(n, q):
    return [class_data_to_json(c) for c in enumerate_classes(n, q)]


def _break_class(rng, obj):
    """One mutation that makes valid class data invalid."""
    entries = obj["entries"]
    entry = rng.choice(entries)
    terms = entry["partition"].split("+")
    mutation = rng.randrange(5)
    if mutation == 0:  # a polynomial twice
        entries.append(dict(entry))
    elif mutation == 1:  # the same polynomial twice once trimmed
        entries.append({**entry, "poly": entry["poly"] + ",0"})
    elif mutation == 2:  # a repeated part
        entry["partition"] += "+" + rng.choice(terms)
    elif mutation == 3:  # a multiplicity <= 0
        j = rng.randrange(len(terms))
        part = terms[j].split("^")[0]
        terms[j] = f"{part}^{rng.randint(-2, 0)}"
        entry["partition"] = "+".join(terms)
    else:
        entries.clear()


# (--group, --q, the order of the field the class lives over)
_GROUP_FIELDS = [("gl", 3, 3), ("gl", 5, 5), ("gl", 9, 9), ("sp", 3, 3), ("sp", 5, 5),
                 ("sp", 9, 9), ("u", 3, 9)]


@settings(max_examples=150, deadline=5000)
@given(group_field=st.sampled_from(_GROUP_FIELDS), n=st.integers(1, 3),
       rng=st.randoms(use_true_random=True))
def test_sqrt_count_refuses_broken_class_data(group_field, n, rng):
    # ClassData and Partition check nothing, so the parser alone must refuse
    # each mutation: one it let through would exit 0 with a wrong count.
    # Without "n" the declared-weight check cannot catch it first.
    group, q, order = group_field
    obj = json.loads(json.dumps(rng.choice(_class_objects(n, order))))
    del obj["n"]
    _break_class(rng, obj)
    code, out, err = invoke(["sqrt-count", "--group", group, "--q", str(q),
                             f"--class={json.dumps(obj)}"])
    assert _one_error_line(code, out, err), (code, err)


@settings(max_examples=150, deadline=5000)
@given(q=_field_text(), data=st.data())
def test_classify_poly_with_fuzzed_arguments(q, data):
    rng = data.draw(st.randoms(use_true_random=True), label="rng")
    try:
        poly = _poly_text(data.draw, rng, int(q))
    except (ValueError, InputError):
        poly = data.draw(_junk, label="poly")
    argv = ["classify-poly", f"--q={q}", f"--poly={poly}"]
    m = data.draw(st.none() | _exponent_text, label="m")
    if m is not None:
        argv.append(f"--m={m}")
    _assert_clean_exit(*invoke(argv))


# -- fuzzed arguments of the enumeration verbs ----------------------------------

@st.composite
def _enumeration_argv(draw):
    """Mostly sizes that run over q in {3, 5, 9}; else n of 10^3 to 10^12,
    which must be refused before anything of its size is formed (an order
    with n factors, a q^n of n digits), n below 1 or a junk q.  A q in
    10..30 runs with n = 1 where n of 2 or 3 was drawn: U_2(29) or an
    audit of GL_3(27) is within the budgets but takes seconds to minutes,
    which the per-example deadline is not meant to time (ROADMAP item 3)."""
    rng = draw(st.randoms(use_true_random=True))
    roll = rng.random()
    if roll < 0.65:
        n = rng.randint(1, 3)
    elif roll < 0.75:
        n = rng.randint(-1, 0)
    else:
        n = rng.choice([10**3, 3000, rng.randint(10**3, 10**12), 10**12])
    roll = rng.random()
    if roll < 0.8:
        q = rng.choice([3, 5, 9])
    elif roll < 0.9:
        q = rng.randint(-3, 30)
        if q > 9 and n in (2, 3):
            n = 1
    else:
        q = rng.randint(2**20 - 3, 10**12)
    verb = draw(st.sampled_from(["classes", "audit-squares", "real-classes", "oracle"]))
    argv = [verb, f"--n={n}", f"--q={q}"]
    if verb == "oracle":
        argv += [f"--kind={draw(st.sampled_from(['gl', 'u', 'sp', 'o+', 'o-', 'o0']))}",
                 f"--report={draw(st.sampled_from(['fibers', 'classes', 'real', 's2']))}"]
    elif verb == "real-classes":
        method = draw(st.sampled_from([None, "direct", "ms", "theorem", "gf-audit"]))
        argv += [] if method is None else [f"--method={method}"]
    else:
        if verb == "audit-squares":
            argv.append(f"--group={draw(st.sampled_from(['gl', 'u', 'sp']))}")
            argv += ["--oracle"] if draw(st.booleans()) else []
        argv.append(f"--format={draw(st.sampled_from(['json', 'csv']))}")
    return argv


@settings(max_examples=150, deadline=5000)
@given(argv=_enumeration_argv())
def test_enumeration_verbs_with_fuzzed_arguments(argv):
    code, out, err = invoke(argv)
    if code == 0 and "--format=csv" in argv:
        assert out and err == ""
    else:
        _assert_clean_exit(code, out, err)


# -- the one-pass parse against argparse's own two-pass parse ----------------

_CLASS_JSON = '{"entries":[{"poly":"1,1","partition":"1^2"}]}'


def _parse_corpus(cache):
    valid = [
        ["classify-poly", "--q", "9", "--poly", "1,1", "--m", "4", "--timestamp"],
        ["classes", "--n", "2", "--q", "3", "--format", "csv", "--timestamp"],
        ["sqrt-count", "--group", "gl", "--n", "2", "--q", "3", "--class", _CLASS_JSON,
         "--timestamp"],
        ["audit-squares", "--group", "gl", "--n", "2", "--q", "3", "--oracle",
         "--format", "csv", "--timestamp"],
        ["real-classes", "--n", "2", "--q", "3", "--method", "ms", "--timestamp"],
        ["oracle", "--kind", "gl", "--n", "1", "--q", "3", "--report", "s2",
         "--cache", cache, "--timestamp"],
        ["audit-squares", "--gr", "gl", "--n", "2", "--q", "3"],
        ["sqrt-count", "--q", "3", f"--class={_CLASS_JSON}"],
    ]
    refused = [
        ["-h"],
        *([verb, "--help"] for verb in cli._HANDLERS),
        [],
        ["squares"],
        ["classes", "--n", "2"],
        ["classes", "--n", "x", "--q", "3"],
        ["sqrt-count", "--group", "zz", "--q", "3", "--class", _CLASS_JSON],
        ["real-classes", "--n", "2", "--q", "3", "--threads", "2"],
    ]
    return valid, refused


def _run_counting_parses(monkeypatch, argv):
    """(exit code, stdout, stderr, calls to argparse's _parse_known_args)
    of one run; the timestamp's value is blanked."""
    inner = argparse.ArgumentParser._parse_known_args
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return inner(self, *args, **kwargs)

    out, err = io.StringIO(), io.StringIO()
    with monkeypatch.context() as m, redirect_stdout(out), redirect_stderr(err):
        m.setattr(argparse.ArgumentParser, "_parse_known_args", counted)
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    stdout = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "T"', out.getvalue())
    return code, stdout, err.getvalue(), len(calls)


def test_one_pass_parse_matches_the_full_parse_byte_for_byte(monkeypatch, tmp_path):
    valid, refused = _parse_corpus(str(tmp_path / "gl13.sqf"))
    for argv in valid + refused:
        with monkeypatch.context() as m:
            m.setattr(cli, "_parse_args", lambda a: cli.build_parser().parse_args(a))
            *full, full_calls = _run_counting_parses(monkeypatch, argv)
        *once, once_calls = _run_counting_parses(monkeypatch, argv)
        assert once == full, argv
        if argv in valid:
            assert once[0] == 0, (argv, once[2])
            assert (once_calls, full_calls) == (1, 2), argv
        else:
            assert once[0] in (0, 2) and (once[1] or once[2]), argv
