"""Tests for the textual grammar: groups, algebras, elements, commands."""

from fractions import Fraction

import pytest

from pmvroots import dsl
from pmvroots import ogroups as og
from pmvroots import pmv
from pmvroots import scalars as S
from pmvroots.errors import CarrierError, DslError, ParameterError

ALPHA = S.QuadValue.make(Fraction(-1), Fraction(1), 2)


# --- groups ---------------------------------------------------------------------


GROUP_TEXTS = [
    "Z/1",
    "Z/12",
    "D/1",
    "D/5",
    "Q",
    "quad(-1+1*sqrt(2))",
    "dquad(-1+1*sqrt(2))",
    "lex(Z/1,Z/1)",
    "lex(Z/2,D/3)",
    "lex(lex(Z/1,Z/1),Z/1)",
    "twist3(Z)",
    "twist3(D)",
    "twist4(Z)",
    "twist4(Q)",
    "prod(Z/2,D/3)",
    "prod(Z/1,lex(Z/1,Z/1))",
    "prod(Z/1,Z/1,Z/1)",
]


@pytest.mark.parametrize("text", GROUP_TEXTS)
def test_group_round_trip(text):
    d = dsl.parse_group(text)
    assert dsl.format_group(d) == text
    assert dsl.parse_group(dsl.format_group(d)) == d


def test_parse_group_spot_shapes():
    assert dsl.parse_group("Z/4") == og.ScaledInt(4)
    assert dsl.parse_group("D/3") == og.ScaledDyadic(3)
    assert dsl.parse_group("Q") == og.Rationals()
    assert dsl.parse_group("quad(-1+1*sqrt(2))") == og.QuadLattice(ALPHA, False)
    assert dsl.parse_group("dquad(-1+1*sqrt(2))") == og.QuadLattice(ALPHA, True)
    assert dsl.parse_group("twist4(D)") == og.Twist4("D")
    assert dsl.parse_group("prod(Z/2,D/3)") == og.ProductGroup(
        (og.ScaledInt(2), og.ScaledDyadic(3))
    )


@pytest.mark.parametrize(
    "text",
    ["", "Z", "Z/", "Z/x", "prod(Z/2", "prod()", "lex(Z/1)", "twist3(X)",
     "frob(Z/1)", "Z/2 trailing"],
)
def test_parse_group_rejects(text):
    with pytest.raises(DslError):
        dsl.parse_group(text)


@pytest.mark.parametrize("text", ["Z/0", "D/-3", "D/2"])
def test_parse_group_semantic_rejects(text):
    # grammatically valid scale parameters outside the family's domain
    with pytest.raises(ParameterError):
        dsl.parse_group(text)


def test_parse_group_error_positions():
    with pytest.raises(DslError) as exc:
        dsl.parse_group("Z/x")
    assert exc.value.position == 3
    assert str(exc.value) == "expected an integer (at column 3)"
    with pytest.raises(DslError) as exc2:
        dsl.parse_group("prod(Z/2")
    assert exc2.value.position == 9
    assert str(exc2.value) == "expected ')' (at column 9)"
    with pytest.raises(DslError, match=r"^unknown group constructor 'foo' \(at column 9\)$"):
        dsl.parse_group("lex(Z/1,foo)")
    with pytest.raises(DslError, match=r"^expected a scalar tag Z, D or Q \(at column 8\)$"):
        dsl.parse_group("twist3(W)")


def test_quad_syntax_vs_semantics():
    # grammatically fine, semantically out of the open unit interval
    with pytest.raises(ParameterError):
        dsl.parse_group("quad(1+1*sqrt(2))")
    with pytest.raises(ParameterError):
        dsl.parse_group("quad(1/2)")


# --- element values -----------------------------------------------------------------


def test_element_value_round_trip():
    for text, expected in [
        ("5/6", Fraction(5, 6)),
        ("0", Fraction(0)),
        ("(5/6)", Fraction(5, 6)),
        ("(1,2,3)", (Fraction(1), Fraction(2), Fraction(3))),
        ("(1/2,(0,1))", (Fraction(1, 2), (Fraction(0), Fraction(1)))),
    ]:
        assert dsl.parse_element_value(text) == expected
    v = (Fraction(1), Fraction(-2), Fraction(3))
    assert dsl.parse_element_value(dsl.format_element_value(v)) == v


def test_parse_element_validates_carrier():
    A = pmv.GammaAlgebra(og.ScaledInt(3))
    x = dsl.parse_element(A, "2/3")
    assert pmv.value_of(x) == Fraction(2, 3)
    with pytest.raises(CarrierError):
        dsl.parse_element(A, "1/2")
    T = pmv.GammaAlgebra(og.Twist3("Z"))
    y = dsl.parse_element(T, "(0,1,0)")
    assert pmv.value_of(y) == (Fraction(0), Fraction(1), Fraction(0))


def test_format_element():
    A = pmv.finite_mv_chain(4)
    assert dsl.format_element(pmv.element_of(A, Fraction(3, 4))) == "3/4"
    T = pmv.GammaAlgebra(og.Twist4("Z"))
    s = dsl.format_element(
        pmv.element_of(T, (Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
    )
    assert s == "(1,0,0,0)"


# --- algebras ------------------------------------------------------------------------


def test_algebra_round_trips():
    for text in ("M(5)", "gamma(Z/4)", "gamma(twist3(Z))", "prod(M(1),M(2))"):
        A = dsl.parse_algebra(text)
        assert dsl.format_algebra(A) == text


def test_parse_algebra_shapes():
    A = dsl.parse_algebra("M(3)")
    assert isinstance(A, pmv.FiniteAlgebra) and A.size == 4
    G = dsl.parse_algebra("gamma(D/1)")
    assert isinstance(G, pmv.GammaAlgebra) and G.desc == og.ScaledDyadic(1)
    P = dsl.parse_algebra("prod(M(1),M(2))")
    assert isinstance(P, pmv.FiniteAlgebra) and P.size == 6
    I = dsl.parse_algebra("interval(prod(M(1),M(2)),(1,0))")
    assert I.size == 2


def test_parse_algebra_rejects():
    for text in ("M()", "M(0)", "gamma()", "prod()", "M(3", "interval(M(4),1/2)"):
        with pytest.raises((DslError, ParameterError)):
            dsl.parse_algebra(text)


def test_format_algebra_mixed_product():
    lex = pmv.GammaAlgebra(og.Lex(og.ScaledInt(1), og.ScaledInt(1)))
    mixed = pmv.product([pmv.finite_mv_chain(1), lex])
    text = dsl.format_algebra(mixed)
    assert dsl.parse_algebra(text).desc == mixed.desc


def test_format_algebra_no_canonical_form():
    from pmvroots import ideals
    A = pmv.finite_mv_chain(3)
    Q, _ = ideals.quotient(A, frozenset({pmv.zero_elem(A)}))
    # the quotient relabels values, so there is no canonical text
    try:
        text = dsl.format_algebra(Q)
    except DslError:
        return
    assert dsl.parse_algebra(text).size == Q.size


# --- commands ---------------------------------------------------------------------------


def test_command_round_trip():
    for line in (
        "sqrt M(3) 1/3 --json",
        "analyze gamma(twist4(Z))",
        "closure M(6) --kind sqrt",
        "member gamma(Z/4) 3/4",
        "decompose M(1) 3/4 --json",
        "greatest M(4) --quantifier relative",
        "verify-paper --json",
        "sqrt gamma(twist3(Z)) (1,-2,2) --bound 4",
    ):
        cmd = dsl.parse_command(line)
        assert dsl.format_command(cmd) == line
        assert dsl.parse_command(dsl.format_command(cmd)) == cmd


def test_command_fields():
    cmd = dsl.parse_command("closure gamma(twist4(Z)) --kind sqrt")
    assert cmd.verb == "closure"
    assert cmd.target == "gamma(twist4(Z))"
    assert cmd.args == ()
    assert dict(cmd.flags) == {"kind": "sqrt"}


def test_command_rejects():
    for line in ("", "frobnicate M(3)", "sqrt M(3) --kind", "sqrt M(3) --nope"):
        with pytest.raises(DslError):
            dsl.parse_command(line)


def test_command_split_respects_parens():
    cmd = dsl.parse_command("sqrt prod(M(1),M(2)) (1,1/2)")
    assert cmd.target == "prod(M(1),M(2))"
    assert cmd.args == ("(1,1/2)",)
