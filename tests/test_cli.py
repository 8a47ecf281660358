"""End-to-end tests of the command line: exit codes, payloads, JSON schema."""

import contextlib
import io
import json
import pathlib
import time

import jsonschema
import pytest

from pmvroots import cli, dsl, ideals, pmv, scalars

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


@pytest.mark.parametrize("bound", ["-1", "17"])
def test_sqrt_bound_outside_the_box_range_is_an_error(bound):
    argv = ["sqrt", "gamma(twist3(Z))", "(1,-2,2)", "--bound", bound]
    message = f"the box bound must be between 0 and 16, not {bound}"
    assert run(argv) == (3, f"status: error\nmessage: {message}\n")
    code, blob = run_json(argv)
    assert (code, blob["status"], blob["payload"]["message"]) == (3, "error", message)


@pytest.mark.parametrize("argv", [["sqrt", "M(3)", "1/3", "--bound", "99"], ["sqrt", "gamma(Z/3)", "1/3", "--bound", "3"]])
def test_sqrt_bound_on_another_group_names_the_group_before_the_range(argv):
    message = "the bounded re-verification is specific to gamma(twist3(Z))"
    assert run(argv) == (3, f"status: error\nmessage: {message}\n")


def test_sqrt_bound_16_still_answers():
    code, blob = run_json(["sqrt", "gamma(twist3(Z))", "(1,-2,2)", "--bound", "16"])
    assert code == 0
    assert blob["payload"]["bounded_check"] == {
        "agrees": True, "bound": 16, "detail": "verified against 1058 in-box dominated elements",
    }


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
    # nested products keep their nesting in r(0) and w
    for target, r0, w in (
        ("gamma(prod(prod(D/1,D/3),Q))", "((1/2,1/2),1/2)", "((0,0),0)"),
        ("gamma(prod(Z/1,prod(D/3,Q)))", "(0,(1/2,1/2))", "(1,(0,0))"),
    ):
        code4, blob4 = run_json(["sqrtmap", target])
        assert (code4, blob4["payload"]["r0"], blob4["payload"]["w"]) == (0, r0, w)


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


# --- the ideals report against the library queries ----------------------------------


def test_ideals_report_is_the_same_without_precomputed_results():
    # each query takes the algebra alone, and the report carries what it returns
    targets = ["M(1)", "M(3)", "M(4)", "prod(M(1),M(2))", "prod(M(1),M(1),M(3))",
               "prod(M(2),M(4))", "interval(prod(M(1),M(4)),(1,0))"]
    for t in targets:
        code, blob = run_json(["ideals", t])
        assert code == 0, t
        A = dsl.parse_algebra(t)
        part = ideals.partition_primes(A)
        payload = blob["payload"]
        assert payload["x1_tops"] == [pmv.format_element(p.top) for p in part.x1], t
        assert payload["x2_tops"] == [pmv.format_element(p.top) for p in part.x2], t
        assert payload["i1_top"] == pmv.format_element(ideals.ideal_top(A, part.i1)), t
        assert payload["i2_top"] == pmv.format_element(ideals.ideal_top(A, part.i2)), t
        assert payload["bsi"] == ideals.is_bsi(A), t
        assert payload["splitting_element"] == pmv.format_element(ideals.nn12_element(A)), t
        assert [i["top"] for i in payload["ideals"]] == [
            pmv.format_element(i.top) for i in ideals.enumerate_ideals(A)
        ], t


# --- messages --------------------------------------------------------------------------


def test_carrier_messages_print_values_as_written():
    _, blob = run_json(["member", "M(3)", "5/4"])
    assert blob["payload"]["reason"] == "5/4 is not in the carrier"
    code, blob = run_json(["sqrt", "M(3)", "(1,2)"])
    assert code == 3 and blob["payload"]["message"] == "(1,2) is not in the carrier"
    _, blob = run_json(["member", "gamma(prod(Z/3,Q))", "1/2"])
    assert blob["payload"]["reason"] == "payload 1/2 has the wrong shape"
    code, blob = run_json(["decompose", "M(3)", "(1,2)"])
    assert code == 3 and blob["payload"]["message"] == "payload (1,2) has the wrong shape"
    # a quadratic-lattice payload is written as the tuple the user typed,
    # also nested in a lexicographic product
    _, blob = run_json(["member", "gamma(quad(1/2*sqrt(2)))", "(2,1)"])
    assert blob["payload"]["reason"] == "(2,1) is outside the unit interval"
    _, blob = run_json(["member", "gamma(lex(Z/1,quad(1/2*sqrt(2))))", "(0,(1/2,1))"])
    assert blob["payload"]["reason"] == "(0,(1/2,1)) is not in the carrier"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sqrt", "M(3)", "1/0"], "zero denominator in 1/0 (at column 1)"),
        (["member", "gamma(Q)", "1/0"], "zero denominator in 1/0 (at column 1)"),
        (["member", "gamma(Q)", "(1,-2/00)"], "zero denominator in -2/00 (at column 4)"),
        (["analyze", "interval(prod(M(1),M(2)),(1,0/0))"], "zero denominator in 0/0 (at column 29)"),
        (["analyze", "gamma(quad(1+1/0*sqrt(2)))"], "zero denominator in +1/0 (at column 13)"),
        (["analyze", "gamma(quad(1/0+1*sqrt(2)))"], "zero denominator in 1/0 (at column 12)"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_a_zero_denominator_is_a_parse_error_at_its_column(argv, message):
    code, out = run(argv)
    assert code == 3 and out == f"status: error\nmessage: {message}\n"
    code, blob = run_json(argv)
    assert code == 3 and blob["status"] == "error" and blob["payload"]["message"] == message


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


def test_sqrtmap_finds_no_top_of_the_nilpotents_beside_a_factor_that_is_not_a_chain():
    # (0,(0,t)) is nilpotent for every t in the tail; no root procedure
    # covers the lex factor away from 0
    target, zero = "gamma(prod(Z/1,lex(Z/1,prod(Z/1,Z/1))))", "(0,(0,(0,0)))"
    reason = "the set of nilpotents has no top"
    assert run(["sqrtmap", target]) == (1, f"status: absent\nreason: {reason}\nwitness: {zero}\n")
    code, blob = run_json(["sqrtmap", target])
    assert (code, blob["status"], blob["payload"]) == (1, "absent", {"reason": reason, "witness": zero})
    code, blob = run_json(["sqrt", target, zero])
    assert (code, blob["status"], blob["payload"]["reason"]) == (1, "not_exists", "no_max_of_nilpotents")
    code, blob = run_json(["sqrt", target, "(1,(1,(0,0)))"])
    assert (code, blob["status"]) == (2, "unsupported")


# Boolean-factor intervals and one algebra per factor: M(1) for Z/1
FACTOR_TWINS = {
    "gamma(Z/1)": ["M(1)"],
    "gamma(prod(Z/1,Z/1))": ["M(1)", "M(1)"],
    "gamma(prod(Z/1,D/1))": ["M(1)", "gamma(D/1)"],
}


@pytest.mark.parametrize("target", FACTOR_TWINS)
def test_sqrtmap_without_a_rootless_element_is_not_absent(target):
    # every element of these intervals has a square root: the mapping acts
    # factor by factor, as on M(1) (identity) and on gamma(D/1) ((x + u)/2)
    code, blob = run_json(["sqrtmap", target])
    assert (code, blob["status"]) == (0, "ok")
    twins = [run_json(["sqrtmap", t])[1]["payload"] for t in FACTOR_TWINS[target]]

    def joined(parts):
        return parts[0] if len(parts) == 1 else "(" + ",".join(parts) + ")"

    payload = blob["payload"]
    assert payload["strict"] == all(t["strict"] for t in twins)
    assert payload["r0"] == joined([t["r0"] for t in twins])
    assert payload["w"] == joined([t["w"] for t in twins])
    zero = joined(["0"] * len(twins))
    assert run_json(["sqrt", target, zero])[1]["payload"]["root"] == payload["r0"]


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


# --- parse errors ----------------------------------------------------------------------


def test_a_parse_error_leaves_the_next_request_unchanged():
    requests = [["sqrt", "M(3)", "1/3", "--json"], ["closure", "M(6)", "--kind", "sqrt"],
                ["member", "gamma(Q)", "1/2"], ["verify-paper"]]
    first = [run(args) for args in requests]
    for bad in (["sqrt", "M(3)"], ["closure", "M(6)", "--kind", "bogus"], ["bogus"],
                ["sqrt", "M(3)", "1/3", "--bound", "x"], ["member", "M(3)", "1/3", "--nope"]):
        code, out = run(bad)
        assert code == 3 and out.startswith("status: error")
        assert [run(args) for args in requests] == first


# --- negative elements -----------------------------------------------------------------


@pytest.mark.parametrize("element", ["-1/2", "-1", "-0", "-3/4"])
def test_negative_elements_need_no_double_dash(element):
    code, blob = run_json(["member", "gamma(Q)", element])
    assert code == 0
    assert blob["payload"]["member"] == (element == "-0")
    assert run(["member", "gamma(Q)", element]) == run(["member", "gamma(Q)", "--", element])
    code, blob = run_json(["sqrt", "gamma(Q)", element])
    if element == "-0":
        assert (code, blob["payload"]["root"]) == (0, "1/2")
    else:
        assert (code, blob["payload"]["message"]) == (3, f"{element} is outside the unit interval")
    # after --, --json is an element, as before
    code, out = run(["sqrt", "gamma(Q)", "--", element, "--json"])
    assert (code, json.loads(out)["payload"]["message"]) == (3, "unrecognized arguments: --json")


def test_words_that_are_not_numbers_are_still_options():
    for word in ("-x", "-1/x", "-1/2/3"):
        code, blob = run_json(["member", "gamma(Q)", word])
        assert (code, blob["payload"]["message"]) == (3, "the following arguments are required: element")


# --- every argv ends in a report -------------------------------------------------------


def test_deep_nesting_is_a_parse_error():
    target = "gamma(" + "lex(Z/1," * 400 + "Z/1" + ")" * 401
    code, out = run(["analyze", target])
    assert code == 3
    assert out == "status: error\nmessage: nesting deeper than 64 levels (at column 514)\n"
    code, blob = run_json(["member", "gamma(Q)", "(" * 1000 + "1" + ")" * 1000])
    assert (code, blob["status"]) == (3, "error")


@pytest.mark.parametrize("argv, size", [
    (["analyze", "M(888888)"], 888889),
    (["member", "prod(M(7),M(7),M(7),M(3))", "0"], 2048),
])
def test_a_carrier_above_the_limit_is_refused_before_its_tables(argv, size):
    start = time.perf_counter()
    message = f"carrier has {size} elements, above the limit 1024"
    assert run(argv) == (3, f"status: error\nmessage: {message}\n")
    assert time.perf_counter() - start < 1.0


def group_product(k):
    return "gamma(prod(" + ",".join(["Z/3"] * k) + "))"


def test_a_group_skeleton_above_the_limit_is_refused_before_it_is_listed():
    code, blob = run_json(["analyze", group_product(10)])
    assert (code, len(blob["payload"]["boolean_skeleton"])) == (0, 1024)
    message = "the Boolean skeleton has 2^11 elements, above the limit 1024"
    assert run(["analyze", group_product(11)]) == (3, f"status: error\nmessage: {message}\n")


def test_a_skeleton_of_3000_factors_is_refused_at_once_in_a_bounded_child():
    import os
    import subprocess
    import sys

    # the child may hold at most 1 GiB, so a listing of 2^3000 elements ends
    # in a MemoryError there and not on the machine
    probe = (
        "import resource, time; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from pmvroots import cli; start = time.perf_counter(); "
        f"code = cli.main(['analyze', {group_product(3000)!r}]); print(code, time.perf_counter() - start)"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    *report, summary = out.stdout.splitlines()
    assert report == ["status: error", "message: the Boolean skeleton has 2^3000 elements, above the limit 1024"]
    code, seconds = summary.split()
    assert code == "3" and float(seconds) < 0.5


NUMERAL = "7" * 4400


@pytest.mark.parametrize("argv", [
    ["member", "M(3)", NUMERAL],
    ["member", "prod(M(1),M(2))", f"(0,1/{NUMERAL})"],
    ["sqrt", "gamma(Q)", f"1/{NUMERAL}"],
    ["analyze", f"gamma(Z/{NUMERAL})"],
    ["analyze", f"gamma(D/{NUMERAL})"],
    ["analyze", f"M({NUMERAL})"],
    ["analyze", f"gamma(quad(1/2*sqrt({NUMERAL})))"],
    ["analyze", f"gamma(quad({NUMERAL}+1*sqrt(2)))"],
    ["analyze", f"gamma(dquad(-1+{NUMERAL}*sqrt(2)))"],
])
def test_a_numeral_beyond_the_digit_limit_is_a_parameter_error(argv):
    assert run(argv) == (3, "status: error\nmessage: a numeral has more than 4300 digits\n")


def test_a_radicand_above_the_limit_is_refused_before_its_square_free_test():
    import os
    import subprocess
    import sys

    # trial division of the prime 10**18 + 3 would take minutes; the child's
    # timeout ends the test instead
    argv = ["analyze", "gamma(quad(1*sqrt(1000000000000000003)))"]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    probe = f"import sys; from pmvroots import cli; sys.exit(cli.main({argv!r}))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=30)
    message = "radicand 1000000000000000003 is above the limit 1000000000"
    assert (out.returncode, out.stdout) == (3, f"status: error\nmessage: {message}\n")


@pytest.mark.parametrize("radicand, code, message", [
    (999999937, 0, None),  # the largest prime under the limit
    (10**9, 3, "radicand 1000000000 must be square-free"),
    (10**9 + 1, 3, "radicand 1000000001 is above the limit 1000000000"),
])
def test_radicands_at_the_limit(radicand, code, message):
    got, blob = run_json(["analyze", f"gamma(quad(-31622+1*sqrt({radicand})))"])
    assert got == code
    assert blob["payload"].get("message") == message


def test_a_radicand_is_tested_for_square_factors_once(monkeypatch):
    # the parse checks the radicand; sums, negations and products of values
    # that carry it, as the order of the lattice reads them, do not again
    tested = []
    square_free = scalars.is_square_free
    monkeypatch.setattr(scalars, "is_square_free", lambda d: tested.append(d) or square_free(d))
    assert run(["member", "gamma(quad(-31622+1*sqrt(999999937)))", "(0,1)"]) == (
        0, "status: ok\nmember: True\nelement: (0,1)\n"
    )
    assert tested == [999999937]


def test_the_longest_chain_under_the_limit_still_builds():
    code, blob = run_json(["analyze", "M(1023)"])
    assert (code, blob["payload"]["size"]) == (0, 1024)


def test_an_unexpected_exception_is_reported_as_an_error(monkeypatch):
    def boom(text):
        raise ZeroDivisionError("forced")

    monkeypatch.setattr(cli.dsl, "parse_algebra", boom)
    code, out = run(["analyze", "M(3)"])
    assert (code, out) == (3, "status: error\nmessage: internal error: ZeroDivisionError: forced\n")
    code, blob = run_json(["sqrt", "M(3)", "1/3"])
    assert (code, blob["status"]) == (3, "error")
    assert blob["payload"]["message"] == "internal error: ZeroDivisionError: forced"


@pytest.mark.parametrize("kind", ["strict", "sqrt"])
def test_both_closures_reject_the_one_element_algebra(kind):
    argv = ["closure", "interval(M(1),0)", "--kind", kind]
    assert run(argv) == (3, "status: error\nmessage: the one-element algebra is excluded\n")
    code, blob = run_json(argv)
    assert (code, blob["status"]) == (3, "error")
    assert blob["payload"]["message"] == "the one-element algebra is excluded"


def test_a_failed_internal_check_is_reported_as_an_error(monkeypatch):
    # a wrong product makes the root check after the halving formula fail
    monkeypatch.setattr(cli.roots, "odot", lambda a, b: a)
    message = "internal check failed: the root a has a (.) a == x"
    assert run(["sqrt", "gamma(Q)", "1/2"]) == (3, f"status: error\nmessage: {message}\n")
    code, blob = run_json(["sqrt", "gamma(Q)", "1/2"])
    assert (code, blob["status"], blob["payload"]["message"]) == (3, "error", message)


# --- one-factor products ------------------------------------------------------------

QUAD = "dquad(-1+1*sqrt(2))"


@pytest.mark.parametrize(
    "argv, factor_argv",
    [
        (["analyze", "prod(M(5))"], ["analyze", "M(5)"]),
        (["member", "prod(M(5))", "1/5"], ["member", "M(5)", "1/5"]),
        (["analyze", "interval(prod(M(5)),(1))"], ["analyze", "interval(M(5),1)"]),
        (["sqrt", f"gamma(prod({QUAD}))", "((0,0))"], ["sqrt", f"gamma({QUAD})", "(0,0)"]),
        (["sqrt", f"gamma(prod(Z/5,prod({QUAD})))", "(0,(0,0))"], ["sqrt", f"gamma(prod(Z/5,{QUAD}))", "(0,(0,0))"]),
    ],
)
def test_a_product_of_one_factor_answers_as_its_factor(argv, factor_argv):
    code, out = run(argv)
    want_code, want = run(factor_argv)
    assert code == want_code == 0
    assert out.replace(argv[1], factor_argv[1]) == want


# --- nested products ----------------------------------------------------------------

NESTED = "gamma(prod(Z/1,prod(Z/2,Z/3)))"
NESTED_REPR = "ProductGroup(factors=(ScaledInt(n=1), ProductGroup(factors=(ScaledInt(n=2), ScaledInt(n=3)))))"


@pytest.mark.parametrize(
    "argv, code, report",
    [
        # a product of algebras puts each operand's top factors side by side,
        # so an inner product stays one level deep
        (["member", f"prod({NESTED},M(2))", "(1,(0,0),0)"], 0, "member: True\nelement: (1,(0,0),0)\n"),
        (["member", f"prod({NESTED},M(2))", "((1,(0,0)),0)"], 0,
         "member: False\nreason: payload ((1,(0,0)),0) has the wrong shape\n"),
        # an inner product is no chain: no skeleton is listed and no cut is made
        (["analyze", NESTED], 0,
         f"kind: group_interval\ngroup: {NESTED[6:-1]}\nlinear: False\nabelian: True\ntwo_divisible: False\n"
         "unit_central: True\nsymmetric: True\nboolean_skeleton: unsupported\n"),
        (["analyze", f"interval({NESTED},(1,(0,0)))"], 2, f"message: cannot relativize {NESTED_REPR} at (1,(0,0))\n"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_a_nested_product_keeps_its_inner_product_whole(argv, code, report):
    status = "ok" if code == 0 else "unsupported"
    assert run(argv) == (code, f"status: {status}\n{report}")
