"""Golden reports: the byte-exact output of ``cli.main`` on a fixed corpus.

Each entry of ``golden_reports.json`` holds an argv, its exit code and the
text ``cli.main`` printed.  The corpus covers the README examples and every
verb, in text and ``--json`` form, on chains, flat and nested products,
``interval(...)`` cuts and a few group intervals.  A change that alters any
report shows up here as a diff against the recorded text.

Re-record after an intended change of output with::

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from pmvroots import cli

DATA = pathlib.Path(__file__).resolve().parent / "golden_reports.json"

README = [
    ["sqrt", "M(3)", "1/3"],
    ["sqrt", "gamma(twist3(Z))", "(0,0,0)", "--bound", "3"],
    ["closure", "M(6)", "--json"],
]

FINITE = [
    "M(1)",
    "M(2)",
    "M(3)",
    "M(4)",
    "M(6)",
    "prod(M(1),M(1))",
    "prod(M(1),M(2))",
    "prod(M(2),M(3))",
    "prod(M(1),M(1),M(3))",
    "prod(prod(M(1),M(1)),M(2))",
    "prod(M(1),prod(M(2),M(1)))",
    "interval(prod(M(1),M(4)),(1,0))",
    "interval(prod(M(2),M(3)),(0,1))",
    "interval(prod(M(1),M(1),M(3)),(1,0,1))",
]

GAMMA = [
    "gamma(Z/1)",
    "gamma(Z/4)",
    "gamma(Z/5)",
    "gamma(D/3)",
    "gamma(Q)",
    "gamma(prod(Z/3,D/5,Q))",
    "gamma(prod(Z/1,Z/3))",
    "gamma(prod(Z/2,Z/3))",
    "gamma(lex(Z/1,Z/1))",
    "gamma(quad(1/2*sqrt(2)))",
    "gamma(twist3(Z))",
    "gamma(twist4(D))",
    "prod(M(1),gamma(lex(Z/1,Z/1)))",
]

ALGEBRA_VERBS = [
    ["analyze"],
    ["sqrtmap"],
    ["ideals"],
    ["closure"],
    ["closure", "--kind", "sqrt"],
    ["greatest"],
]

# (algebra, element) pairs for the element verbs sqrt, member and decompose
ELEMENTS = [
    ("M(3)", "2/3"),
    ("M(4)", "1/4"),
    ("M(6)", "1/2"),
    ("M(3)", "5/4"),
    ("M(3)", "(1,2)"),
    ("prod(M(1),M(2))", "(1,1/2)"),
    ("prod(M(2),M(3))", "(0,1/3)"),
    ("prod(prod(M(1),M(1)),M(2))", "((1,0),1)"),
    ("interval(prod(M(1),M(4)),(1,0))", "(1,0)"),
    ("gamma(Z/4)", "3/4"),
    ("gamma(Z/5)", "2/5"),
    ("gamma(D/3)", "5/12"),
    ("gamma(Q)", "1/7"),
    ("gamma(prod(Z/3,D/5,Q))", "(1/3,1,1/2)"),
    ("gamma(lex(Z/1,Z/1))", "(0,5)"),
    ("gamma(prod(Z/3,Q))", "1/2"),
    ("gamma(twist3(Z))", "(1,-2,4)"),
    ("gamma(twist4(D))", "(1/2,0,0,0)"),
]

EXTRA = [
    ["sqrt", "M(4)", "1/2", "--approx"],
    ["sqrt", "gamma(twist3(Z))", "(1,-2,-4)", "--bound", "2"],
    ["sqrt", "gamma(twist3(Z))", "(0,3,1)", "--bound", "2"],
    ["decompose", "M(3)", "5/12", "--approx"],
    ["sqrt", "gamma(Q)", "--", "-1/2"],
    ["sqrt", "M(x)", "1"],
    ["analyze", "prod(M(1),Z/3)"],
    ["greatest", "M(4)", "--quantifier", "ambient"],
    ["greatest", "prod(M(1),M(2))", "--quantifier", "relative"],
    ["verify-paper"],
]


def corpus() -> list[list[str]]:
    argvs = list(README)
    for target in FINITE + GAMMA:
        for verb in ALGEBRA_VERBS:
            argvs.append([verb[0], target, *verb[1:]])
    for target, element in ELEMENTS:
        for verb in ("sqrt", "member", "decompose"):
            argvs.append([verb, target, element])
    argvs.extend(EXTRA)
    out = []
    for argv in argvs:
        out.append(argv)
        if "--json" not in argv:
            out.append(argv + ["--json"])
    return out


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _load() -> list[dict]:
    return json.loads(DATA.read_text(encoding="utf-8"))


def _record() -> None:
    entries = []
    for argv in corpus():
        code, out = run(argv)
        entries.append({"argv": argv, "exit": code, "stdout": out})
    DATA.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} reports to {DATA.name}")


GOLDEN = _load() if DATA.is_file() else []


def test_corpus_matches_recorded_argvs():
    assert [e["argv"] for e in GOLDEN] == corpus()


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_report_is_unchanged(entry):
    code, out = run(entry["argv"])
    assert out == entry["stdout"]
    assert code == entry["exit"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    _record()
