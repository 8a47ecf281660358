"""End-to-end tests of the command line: exit codes, payloads, JSON schema."""

import contextlib
import io
import json
import pathlib

import jsonschema
import pytest

from pmvroots import cli

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "docs" / "report-schema.json").read_text()
)


def run(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def run_json(args):
    code, out = run(args + ["--json"])
    blob = json.loads(out)
    jsonschema.validate(blob, SCHEMA)
    return code, blob


# --- exit codes -------------------------------------------------------------------


def test_exit_code_table():
    cases = [
        (["sqrt", "M(3)", "1/3"], 0),
        (["sqrt", "M(4)", "1/4"], 1),
        (["sqrtmap", "M(2)"], 1),
        (["closure", "gamma(twist3(Z))"], 2),
        (["ideals", "gamma(D/1)"], 2),
        (["closure", "prod(M(1),gamma(lex(Z/1,Z/1)))", "--kind", "sqrt"], 1),
        (["member", "M(2)", "2/3"], 0),
        (["bogus"], 3),
        (["sqrt", "M(3)"], 3),
        (["sqrt", "M(3)", "1/3", "--bound", "4"], 3),
        (["analyze", "M(3"], 3),
        (["verify-paper"], 0),
    ]
    for args, expected in cases:
        code, _ = run(args)
        assert code == expected, args
    assert cli.EXIT_CODES["ok"] == 0
    assert cli.EXIT_CODES["unsupported"] == 2
    assert cli.EXIT_CODES["error"] == 3


# --- per-verb payloads ----------------------------------------------------------------


def test_sqrt_ok_json():
    code, blob = run_json(["sqrt", "M(3)", "1/3"])
    assert code == 0
    assert blob["status"] == "ok"
    assert blob["payload"]["root"] == "2/3"


def test_sqrt_not_exists_reason():
    code, blob = run_json(["sqrt", "M(4)", "1/4"])
    assert code == 1
    assert blob["status"] == "not_exists"
    assert blob["payload"]["reason"]


def test_sqrt_approx_flag():
    _, blob = run_json(["sqrt", "M(3)", "1/3", "--approx"])
    assert abs(blob["payload"]["root_approx"] - 2 / 3) < 1e-9


def test_sqrt_bounded_check_twist3():
    code, blob = run_json(["sqrt", "gamma(twist3(Z))", "(1,-2,2)", "--bound", "4"])
    assert code == 0
    assert blob["payload"]["root"] == "(1,-1,1)"
    assert blob["payload"]["bounded_check"]["agrees"] is True
    zero_code, zero_blob = run_json(["sqrt", "gamma(twist3(Z))", "(0,0,0)", "--bound", "3"])
    assert zero_code == 1
    assert zero_blob["payload"]["bounded_check"]["agrees"] is True


def test_analyze_gamma():
    code, blob = run_json(["analyze", "gamma(twist3(Z))"])
    assert code == 0
    p = blob["payload"]
    assert p["kind"] == "group_interval"
    assert p["abelian"] is False
    assert p["unit_central"] is False
    assert p["noncentral_witness"]
    assert p["symmetric"] is False


def test_analyze_finite():
    code, blob = run_json(["analyze", "prod(M(1),M(4))"])
    assert code == 0
    p = blob["payload"]
    assert p["kind"] == "finite"
    assert p["size"] == 10
    assert sorted(p["chain_lengths"]) == [1, 4]


def test_sqrtmap_finite_and_gamma():
    code, blob = run_json(["sqrtmap", "M(1)"])
    assert code == 0
    assert blob["payload"]["strict"] is False
    assert blob["payload"]["w"] == "1"
    code2, blob2 = run_json(["sqrtmap", "gamma(D/1)"])
    assert code2 == 0
    assert blob2["payload"]["strict"] is True
    assert blob2["payload"]["formula"] == "(x + u) / 2"
    code3, blob3 = run_json(["sqrtmap", "gamma(twist3(Z))"])
    assert code3 == 1
    assert blob3["status"] == "absent"
    assert blob3["payload"]["witness"]


def test_ideals_payload():
    code, blob = run_json(["ideals", "prod(M(1),M(4))"])
    assert code == 0
    p = blob["payload"]
    assert len(p["ideals"]) == 4
    assert p["bsi"] is False
    assert p["splitting_element"] == "(1,0)"
    assert p["i2_top"] == "(1,0)"
    tops = {i["top"] for i in p["ideals"]}
    assert "(0,0)" in tops and "(1,1)" in tops


def test_closure_strict_payload():
    code, blob = run_json(["closure", "M(6)"])
    assert code == 0
    p = blob["payload"]
    assert p["kind"] == "strict"
    assert p["base"] == "Z/6"
    assert p["closed"] == "D/3"
    assert p["descriptor"] == "strict[ Z/6 -> D/3 ]"
    assert p["criterion"]["ok"] is True
    assert p["factors"][0]["root"] == "half_shift"


def test_closure_sqrt_open_problem():
    code, blob = run_json(
        ["closure", "prod(M(1),gamma(lex(Z/1,Z/1)))", "--kind", "sqrt"]
    )
    assert code == 1
    assert blob["status"] == "open_problem"
    assert "nonzero" in blob["payload"]["explanation"]
    assert blob["payload"]["factor_reports"]


def test_closure_sqrt_mixed_case():
    code, blob = run_json(["closure", "prod(M(1),M(4))", "--kind", "sqrt"])
    assert code == 0
    roots = {f["root"] for f in blob["payload"]["factors"]}
    assert roots == {"identity", "half_shift"}


def test_member_both_ways():
    code, blob = run_json(["member", "gamma(Z/4)", "3/4"])
    assert code == 0 and blob["payload"]["member"] is True
    code2, blob2 = run_json(["member", "gamma(Z/4)", "1/3"])
    assert code2 == 0 and blob2["payload"]["member"] is False
    assert blob2["payload"]["reason"]


def test_decompose_payload():
    code, blob = run_json(["decompose", "M(1)", "3/4"])
    assert code == 0
    p = blob["payload"]
    assert p["doubling_exponent"] == 2
    assert p["part_count"] == 4
    assert p["parts"] == ["1", "1", "1", "0"]
    assert p["minimal"] is True


def test_greatest_single_and_double():
    code, blob = run_json(["greatest", "M(4)", "--quantifier", "relative"])
    assert code == 0
    assert blob["payload"]["relative"]["fixpoint"] == ["0", "1"]
    code2, blob2 = run_json(["greatest", "M(4)"])
    assert code2 == 0
    assert blob2["payload"]["quantifiers_agree"] is False
    assert blob2["payload"]["ambient"]["fixpoint_is_subalgebra"] is False
    assert blob2["payload"]["relative"]["fixpoint_is_subalgebra"] is True


def test_greatest_rejects_gamma():
    code, _ = run(["greatest", "gamma(D/1)"])
    assert code == 2


def test_verify_paper_json():
    code, blob = run_json(["verify-paper"])
    assert code == 0
    p = blob["payload"]
    assert p["failed"] == 0
    assert p["passed"] == p["total"] >= 25
    assert len(blob["provenance"]) == p["total"]
    assert all(c["ok"] for c in p["checks"])


def test_text_mode_lines():
    code, out = run(["sqrt", "M(3)", "1/3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "status: ok"
    assert any(line.startswith("root: ") for line in lines)


def test_error_payload_has_message():
    code, blob = run_json(["analyze", "M(3"])
    assert code == 3
    assert blob["status"] == "error"
    assert blob["payload"]["message"]


def test_all_reports_schema_valid():
    # one sweep across every verb to keep the schema honest
    for args in (
        ["analyze", "M(6)"],
        ["analyze", "gamma(quad(-1+1*sqrt(2)))"],
        ["sqrt", "gamma(D/1)", "3/8"],
        ["sqrtmap", "gamma(twist4(Z))"],
        ["ideals", "M(3)"],
        ["closure", "gamma(twist4(Z))", "--kind", "sqrt"],
        ["member", "prod(M(1),M(2))", "(1,1/2)"],
        ["decompose", "M(6)", "5/12"],
        ["greatest", "M(2)"],
    ):
        run_json(args)


# --- one analysis per ideals request ------------------------------------------------


def test_ideals_report_is_the_same_without_precomputed_results(monkeypatch):
    targets = ["M(1)", "M(3)", "M(4)", "prod(M(1),M(2))", "prod(M(1),M(1),M(3))",
               "prod(M(2),M(4))", "interval(prod(M(1),M(4)),(1,0))"]
    passed_down = [run(["ideals", t, "--json"]) for t in targets]
    # each callee recomputes what _cmd_ideals would have passed it
    for name in ("partition_primes", "is_bsi", "nn12_element",
                 "strict_square_ideals", "decomposition_by_w"):
        monkeypatch.setattr(cli, name, lambda M, _f=getattr(cli, name), **_: _f(M))
    recomputed = [run(["ideals", t, "--json"]) for t in targets]
    assert passed_down == recomputed
    assert all(code == 0 for code, _ in passed_down)


# --- messages --------------------------------------------------------------------------


def test_carrier_messages_print_values_as_written():
    _, blob = run_json(["member", "M(3)", "5/4"])
    assert blob["payload"]["reason"] == "5/4 is not in the carrier"
    code, blob = run_json(["sqrt", "M(3)", "(1,2)"])
    assert code == 3 and blob["payload"]["message"] == "(1,2) is not in the carrier"
    _, blob = run_json(["member", "gamma(prod(Z/3,Q))", "1/2"])
    assert blob["payload"]["reason"].startswith("payload 1/2 has the wrong shape")
    code, blob = run_json(["decompose", "M(3)", "(1,2)"])
    assert code == 3 and blob["payload"]["message"] == "cannot interpret (1,2) as a rational"


def test_parse_error_columns_are_one_based():
    _, blob = run_json(["sqrt", "M(x)", "1"])
    assert blob["payload"]["message"] == "expected an integer (at column 3)"
    _, blob = run_json(["analyze", "prod(M(1),Z/3)"])
    assert blob["payload"]["message"] == "unknown algebra constructor 'Z' (at column 11)"


# --- sqrtmap on group intervals --------------------------------------------------------


@pytest.mark.parametrize("target, witness", [
    ("gamma(Z/5)", "2/5"),
    ("gamma(Z/4)", "1/4"),
    ("gamma(prod(Z/3,D/5,Q))", "(2/3,0,0)"),
    ("gamma(prod(Z/1,Z/3))", "(0,2/3)"),
    ("gamma(lex(Z/2,Z/1))", "(1/2,0)"),
    ("gamma(lex(D/1,Z/1))", "(0,1)"),
])
def test_sqrtmap_witness_has_no_root(target, witness):
    code, blob = run_json(["sqrtmap", target])
    assert (code, blob["status"]) == (1, "absent")
    assert blob["payload"]["witness"] == witness
    code, root = run_json(["sqrt", target, witness])
    assert (code, root["status"]) == (1, "not_exists")


@pytest.mark.parametrize("target", ["gamma(Z/1)", "gamma(prod(Z/1,Z/1))", "gamma(prod(Z/1,D/1))"])
def test_sqrtmap_without_a_rootless_element_is_not_absent(target):
    # every element of these intervals has a square root
    code, blob = run_json(["sqrtmap", target])
    assert (code, blob["status"]) == (2, "unsupported")


# --- pipes -----------------------------------------------------------------------------


def test_closed_pipe_ends_quietly_with_the_report_exit_code():
    import os
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pmvroots.cli", "verify-paper"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader is gone before the report is printed
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
