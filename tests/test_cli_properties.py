"""Every argv ends in a classified report.

Hypothesis draws well-formed and mutated command lines for every verb and
runs them through ``cli.main`` in-process.  Each run must return an exit
code in {0, 1, 2, 3}, print a ``--json`` report that validates under
``docs/report-schema.json``, never report an internal error, and let no
exception escape.

Chains ``M(n)`` are drawn with n <= 63 or n >= ``pmv.MAX_CARRIER``, where
the carrier size guard answers; inside products the chains are shorter
still.  The sizes in between are valid inputs, but their tables have up
to a million cells, so they stay out only to keep the test within its
time budget.  Numerals longer than CPython converts to an int, radicands
above ``scalars.MAX_RADICAND``, and group products of up to 20 factors,
whose Boolean skeleton the size guard refuses from 11 linear factors on,
reach the guards of those inputs.
"""

import contextlib
import io
import json
import pathlib

import jsonschema
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pmvroots import cli, pmv
from pmvroots.scalars import MAX_RADICAND

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "docs" / "report-schema.json").read_text()
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

# more digits than CPython converts to an int
LONG = st.sampled_from(["7" * 4301, "1" + "0" * 5000])
# above the carrier limit
HUGE = st.one_of(st.sampled_from([pmv.MAX_CARRIER, pmv.MAX_CARRIER + 1, 3333, 888888, 10**6]), LONG)

# --- elements --------------------------------------------------------------------

unit_fractions = st.integers(1, 12).flatmap(
    lambda n: st.integers(0, n).map(lambda k: f"{k}/{n}")
)
scalars = st.one_of(
    st.sampled_from(["0", "1"]),
    unit_fractions,
    st.integers(-3, 12).map(str),
    # denominators may be 0
    st.builds("{}/{}".format, st.integers(-4, 12), st.integers(0, 12)),
    st.sampled_from([".5", "0.5", "-0.25", "1.", "1e3", "9" * 40, "-0", "00012/0008"]),
    LONG,
    LONG.map("1/{}".format),
)
elements = st.recursive(
    scalars,
    lambda inner: st.lists(inner, min_size=1, max_size=4).map(lambda xs: f"({','.join(xs)})"),
    max_leaves=8,
)

# --- groups ----------------------------------------------------------------------

alphas = st.sampled_from(["-1+1*sqrt(2)", "1/2*sqrt(2)", "-1+1*sqrt(3)", "3-1*sqrt(5)"])
linear_groups = st.one_of(
    st.builds("Z/{}".format, st.integers(1, 12)),
    st.builds("D/{}".format, st.integers(0, 6).map(lambda k: 2 * k + 1)),
    st.just("Q"),
    st.builds("{}({})".format, st.sampled_from(["quad", "dquad"]), alphas),
)
leaf_groups = st.one_of(
    linear_groups,
    st.builds("{}({})".format, st.sampled_from(["twist3", "twist4"]), st.sampled_from("ZDQ")),
    # parameters out of range
    st.sampled_from(["Z/0", "D/2", "D/-1", "quad(1+1*sqrt(2))", "quad(sqrt(4))",
                     "dquad(1/0*sqrt(2))", "twist3(R)", "twist5(Z)"]),
    st.builds("{}{}".format, st.sampled_from(["Z/", "D/"]), LONG),
    # a power of 10 past the digit limit, with or without a dropped digit
    st.builds("quad({}*sqrt(1{}))".format, st.sampled_from(["1/2", "-1+1", "1"]), st.just("0" * 5000)),
    # a radicand above the limit, refused before its square-free test, which
    # by trial division would take minutes on a prime near 10**18
    st.builds("quad({}*sqrt({}))".format, st.sampled_from(["1/2", "-1+1", "1"]),
              st.integers(MAX_RADICAND + 1, 10**30)),
)
groups = st.recursive(
    leaf_groups,
    lambda inner: st.one_of(
        st.builds("lex({},{})".format, inner, inner),
        st.lists(inner, min_size=1, max_size=3).map(lambda fs: f"prod({','.join(fs)})"),
    ),
    max_leaves=4,
)
# wide products of linear groups: from 11 factors on, a Boolean skeleton of
# more than MAX_CARRIER elements
wide = st.integers(2, 20).flatmap(lambda k: st.lists(linear_groups, min_size=k, max_size=k)).map(
    lambda fs: f"gamma(prod({','.join(fs)}))")
gammas = st.one_of(groups.map("gamma({})".format), wide)

# --- algebras --------------------------------------------------------------------


def chain_texts(longest):
    """``M(n)`` with n <= longest, or with n so large that it is refused."""
    return st.one_of(st.integers(1, longest), HUGE).map("M({})".format)


short_chains = chain_texts(7)
factors = st.one_of(
    short_chains,
    gammas,
    st.lists(short_chains, min_size=1, max_size=2).map(lambda fs: f"prod({','.join(fs)})"),
)
products = st.lists(factors, min_size=1, max_size=3).map(lambda fs: f"prod({','.join(fs)})")
simple_algebras = st.one_of(chain_texts(63), gammas, products, wide)
algebras = st.one_of(
    simple_algebras,
    st.builds("interval({},{})".format, simple_algebras, elements),
)

# --- argvs -----------------------------------------------------------------------

VERBS = ("analyze", "sqrt", "sqrtmap", "ideals", "closure", "member", "decompose",
         "greatest", "verify-paper")
NOISE = "()/,.-+*0123456789MZDQh "


@st.composite
def well_formed(draw):
    verb = draw(st.sampled_from(VERBS))
    argv = [verb]
    if verb != "verify-paper":
        argv.append(draw(algebras))
    if verb in ("sqrt", "member", "decompose"):
        argv.append(draw(elements))
    if verb == "sqrt" and draw(st.booleans()):
        argv += ["--bound", str(draw(st.integers(-2, 18)))]
    if verb == "closure" and draw(st.booleans()):
        argv += ["--kind", draw(st.sampled_from(["strict", "sqrt"]))]
    if verb == "greatest" and draw(st.booleans()):
        argv += ["--quantifier", draw(st.sampled_from(["ambient", "relative"]))]
    if draw(st.booleans()):
        argv.append("--approx")
    if draw(st.integers(0, 3)):
        argv.append("--json")
    return argv


@st.composite
def mutated(draw):
    argv = draw(well_formed())
    i = draw(st.integers(0, len(argv) - 1))
    word = argv[i]
    op = draw(st.sampled_from(["delete", "insert", "replace", "drop", "repeat"]))
    if op == "drop":
        return argv[:i] + argv[i + 1:]
    if op == "repeat":
        return argv[: i + 1] + argv[i:]
    at = draw(st.integers(0, len(word)))
    ch = draw(st.sampled_from(NOISE))
    if op == "delete":
        word = word[:at] + word[at + 1:]
    elif op == "insert":
        word = word[:at] + ch + word[at:]
    else:
        word = word[:at] + ch + word[at + 1:]
    return argv[:i] + [word] + argv[i + 1:]


@settings(max_examples=500, deadline=2000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(well_formed(), well_formed(), well_formed(), mutated()))
def test_every_argv_ends_in_a_classified_report(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out = buf.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert "internal error" not in out, argv
    if "--json" in argv:
        report = json.loads(out)
        VALIDATOR.validate(report)
        assert cli.EXIT_CODES[report["status"]] == code, argv
    else:
        assert out.startswith("status: "), argv
