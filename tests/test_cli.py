"""CLI contract: payload shapes, exit codes, schema validation and
byte-level determinism."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest

from squarefibers.cli import run

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


def test_classify_poly_rejects_reducible():
    code, _, err = invoke(["classify-poly", "--q", "3", "--poly", "2,0,1"])
    assert code == 2
    assert "irreducible" in err


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
    import squarefibers.cli as cli

    calls = []
    original = getattr(brute_oracle, name)

    def counted(table):
        calls.append(table)
        return original(table)

    # both namespaces, so a call from inside the oracle module counts too
    monkeypatch.setattr(brute_oracle, name, counted)
    monkeypatch.setattr(cli, name, counted)
    invoke_json(["oracle", "--kind", "gl", "--n", "2", "--q", "3", "--report", report])
    assert len(calls) == 1


def test_classes_gl8_over_f3():
    # this size once raised RecursionError; the schema check is skipped for time
    code, out, err = invoke(["classes", "--n", "8", "--q", "3"])
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert payload["class_count"] == str(len(payload["classes"]))
