"""The command-line grammar against the argparse parser it replaced.

``ORACLE`` is that parser, built as ``cli`` built it before: one subparser
per verb, its positionals, ``--json`` and ``--approx`` everywhere, and
``--bound``, ``--kind`` and ``--quantifier`` on their verbs.  Hypothesis
draws argvs from the property test's strategies, well-formed and mutated,
and rewrites them with ``--opt=value``, ``--``, negative numbers and options
moved before, between or after the positionals.  On each, ``cli._parse``
must give the oracle's fields, or its error message, or the usage where the
oracle prints its help.

The one listed difference is option prefixes: argparse reads a word that
starts an option name as that option (``--js`` as ``--json``, ``-hx`` as
``-h`` with ``x`` joined to it), and the new grammar reads only whole
names.  The oracle notes every word it matched by prefix, and those argvs
are left out of the comparison; ``test_option_prefixes_are_refused`` pins
the new answers.  Argvs with a second ``--`` are not drawn: argparse drops
the first ``--`` from each positional's words, so ``member M(3) -- --``
gave the element ``[]`` and an internal error
(``test_a_second_double_dash_is_an_element``).
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_cli import run, run_json
from test_cli_properties import VERBS, mutated, well_formed

from pmvroots import cli
from pmvroots.errors import DslError


class OracleParser(argparse.ArgumentParser):
    prefixed = []  # the words matched by prefix since the last clear()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = cli._NEGATIVE_NUMBER

    def error(self, message):
        raise DslError(message)

    def _get_option_tuples(self, option_string):
        found = super()._get_option_tuples(option_string)
        if found:
            self.prefixed.append(option_string)
        return found


def build_oracle() -> argparse.ArgumentParser:
    parser = OracleParser(prog="pmvroots")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, handler, *, target=True, element=False):
        p = sub.add_parser(verb)
        if target:
            p.add_argument("target")
        if element:
            p.add_argument("element")
        p.add_argument("--json", action="store_true")
        p.add_argument("--approx", action="store_true")
        p.set_defaults(handler=handler, bound=None, kind="strict", quantifier=None)
        return p

    add("analyze", cli._cmd_analyze)
    add("sqrt", cli._cmd_sqrt, element=True).add_argument("--bound", type=int, default=None)
    add("sqrtmap", cli._cmd_sqrtmap)
    add("ideals", cli._cmd_ideals)
    add("closure", cli._cmd_closure).add_argument("--kind", choices=("strict", "sqrt"), default="strict")
    add("member", cli._cmd_member, element=True)
    add("decompose", cli._cmd_decompose, element=True)
    add("greatest", cli._cmd_greatest).add_argument(
        "--quantifier", choices=("ambient", "relative"), default=None)
    add("verify-paper", cli._cmd_verify, target=False)
    return parser


ORACLE = build_oracle()
USAGE = "usage"


def oracle(argv):
    """The oracle's fields (the handlers' fields, without verb and json),
    its error message, or USAGE where it printed its help; and whether it
    matched a word by prefix."""
    OracleParser.prefixed.clear()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            ns = vars(ORACLE.parse_args(argv))
    except DslError as exc:
        return str(exc), bool(OracleParser.prefixed)
    except SystemExit as exc:
        assert exc.code == 0, argv
        return USAGE, bool(OracleParser.prefixed)
    # the old main printed JSON for the option, and for an error report,
    # where the word was a positional that no verb can parse
    prefixed = bool(OracleParser.prefixed)
    as_json = ns.pop("json") or "--json" in (ns.get("target"), ns.get("element"))
    assert prefixed or as_json == ("--json" in argv), argv
    del ns["verb"]
    return ns, prefixed


def parsed(argv):
    try:
        args = cli._parse(argv)
    except DslError as exc:
        return str(exc)
    return USAGE if args is None else vars(args)


# --- drawn argvs -----------------------------------------------------------------

VALUED = ("--bound", "--kind", "--quantifier")
# negative numbers, words that look like them, and flags
WORDS = ["-1/2", "-1", "-0", "-.5", "-3/4", "-12", "-1/x", "-1/2/3", "-x", "-", "- 1", "",
         "-h", "--help", "--json", "--approx"]


@st.composite
def argvs(draw):
    argv = draw(st.one_of(well_formed(), mutated()))
    form = draw(st.sampled_from(["plain", "equals", "flag=", "dashes", "word", "move"]))
    at = draw(st.integers(0, len(argv)))
    if form == "equals":
        i = next((i for i, w in enumerate(argv[:-1]) if w in VALUED), None)
        if i is not None:
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif form == "flag=":
        flag = draw(st.sampled_from(["--json", "--approx", "--help", "-h", "--bound", "--kind"]))
        argv.insert(at, f"{flag}={draw(st.sampled_from(['', '1', 'x', 'sqrt', '-2']))}")
    elif form == "dashes" and "--" not in argv:
        argv.insert(at, "--")
    elif form == "word":
        argv.insert(at, draw(st.sampled_from(WORDS)))
    elif form == "move" and len(argv) > 1:
        i = draw(st.integers(1, len(argv) - 1))
        words = argv[i:i + 2] if argv[i] in VALUED else argv[i:i + 1]
        del argv[i:i + len(words)]
        argv[at:at] = words
    return argv


@settings(max_examples=1500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_the_grammar_matches_the_argparse_oracle(argv):
    want, prefixed = oracle(argv)
    if prefixed:  # the listed difference
        return
    assert parsed(argv) == want, argv


# --- the cases the oracle pins ---------------------------------------------------

CASES = [
    [],
    ["--"],
    ["--", "sqrt"],
    ["--json"],
    ["bogus", "-h"],
    ["sqrt"],
    ["sqrt", "M(3)", "--bound"],
    ["sqrt", "M(3)", "1/3", "--bound", "--json"],
    ["sqrt", "M(3)", "1/3", "--bound", "--", "3"],
    ["sqrt", "M(3)", "1/3", "--bound", "-3"],
    ["sqrt", "--bound=4", "M(3)", "1/3", "--bound", "2"],
    ["sqrt", "M(3)", "1/3", "--bound="],
    ["sqrt", "M(3)", "1/3", "--bound", "x", "--bound", "3"],
    ["closure", "M(3)", "--kind", "bogus", "--nope"],
    ["closure", "M(3)", "--kind=sqrt", "--kind", "strict"],
    ["greatest", "--quantifier", "-1", "M(3)"],
    ["member", "gamma(Q)", "-x"],
    ["member", "gamma(Q)", "-1/2", "-x"],
    ["member", "M(3)", "1/3", "--json", "--"],
    ["member", "M(3)", "--json", "1/3", "--"],
    ["member", "M(3)", "1/3", "--"],
    ["member", "M(3)", "1/3", "x", "--", "y"],
    ["member", "--", "M(3)", "--json"],
    ["member", "M(3)", "--", "1/3", "--json"],
    ["verify-paper", "--"],
    ["verify-paper", "--json=1"],
    ["verify-paper", "-h=x"],
    ["--json", "sqrt", "M(3)", "1/3"],
    ["-1", "sqrt"],
    ["-h", "bogus"],
    ["sqrt", "-h"],
    ["sqrt", "M(3)", "--bound", "x", "--help"],
    ["analyze", "M(3)", "--bound", "3"],
    ["analyze", "M(3)", "--bound=3"],
    ["analyze", "M(3)", "- 1", "-"],
]


@pytest.mark.parametrize("argv", CASES, ids=map(" ".join, CASES))
def test_each_rule_matches_the_oracle(argv):
    want, prefixed = oracle(argv)
    assert not prefixed
    assert parsed(argv) == want


# --- the differences -------------------------------------------------------------


@pytest.mark.parametrize("argv, message", [
    (["sqrt", "M(3)", "1/3", "--js"], "unrecognized arguments: --js"),
    (["sqrt", "M(3)", "1/7", "--js"], "unrecognized arguments: --js"),
    (["sqrt", "M(3)", "1/3", "--appr", "--b", "3"], "unrecognized arguments: --appr --b 3"),
    (["closure", "M(3)", "--kin=sqrt"], "unrecognized arguments: --kin=sqrt"),
    (["greatest", "M(3)", "--q", "ambient"], "unrecognized arguments: --q ambient"),
    (["--he"], "the following arguments are required: verb"),
    (["analyze", "M(3)", "-hx"], "unrecognized arguments: -hx"),
    (["member", "gamma(Q)", "-h3"], "the following arguments are required: element"),
])
def test_option_prefixes_are_refused(argv, message):
    assert oracle(argv)[1]  # argparse read a prefix here
    assert run(argv) == (3, f"status: error\nmessage: {message}\n")


def test_the_js_prefix_answers_in_text_on_success_and_error():
    # argparse read --js as --json, so the first printed JSON and the second,
    # an error, text
    for element in ("1/3", "1/7"):
        code, out = run(["sqrt", "M(3)", element, "--js"])
        assert (code, out) == (3, "status: error\nmessage: unrecognized arguments: --js\n")


def test_a_second_double_dash_is_an_element():
    assert oracle(["member", "M(3)", "--", "--"])[0]["element"] == []
    assert run(["member", "M(3)", "--", "--"]) == (3, "status: error\nmessage: expected a rational number (at column 1)\n")


# --- the usage -------------------------------------------------------------------


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["sqrt", "-h"], ["closure", "M(3)", "--help"],
                                  ["verify-paper", "--help", "--bound"], ["--nope", "-h", "bogus"]])
def test_help_is_a_usage_report(argv):
    code, out = run(argv)
    assert code == 0
    assert out.startswith("status: ok\nusage: pmvroots VERB")
    code, blob = run_json(argv)
    assert (code, blob["status"]) == (0, "ok")
    verbs = blob["payload"]["verbs"]
    assert [line.split()[0] for line in verbs] == list(VERBS)
    assert "sqrt target element [--bound INT]" in verbs
    assert "closure target [--kind strict|sqrt]" in verbs
    assert "greatest target [--quantifier ambient|relative]" in verbs
    assert "verify-paper" in verbs


def test_help_after_a_bad_value_is_the_error():
    code, out = run(["sqrt", "M(3)", "--bound", "x", "-h"])
    assert (code, out) == (3, "status: error\nmessage: argument --bound: invalid int value: 'x'\n")


def test_the_verb_table_is_the_oracle_grammar():
    sub = next(a for a in ORACLE._actions if isinstance(a, argparse._SubParsersAction))
    assert list(cli._VERBS) == list(sub.choices)
    for verb, (handler, names, valued) in cli._VERBS.items():
        actions = sub.choices[verb]._actions
        assert tuple(a.dest for a in actions if not a.option_strings) == names
        options = {s for a in actions for s in a.option_strings}
        assert options == {*cli._FLAGS, *valued}
        assert sub.choices[verb].get_default("handler") is handler
