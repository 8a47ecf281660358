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


def _nested(template, base, depth):
    text = base
    for _ in range(depth):
        text = template.format(text)
    return text


def test_nesting_deeper_than_the_limit_is_rejected_at_its_column():
    limit = dsl.MAX_DEPTH
    # each "lex(Z/1," opens one level; the parenthesis of the level past the
    # limit is at column 8 * limit + 4
    assert dsl.parse_group(_nested("lex(Z/1,{})", "Z/1", limit))
    with pytest.raises(DslError) as exc:
        dsl.parse_group(_nested("lex(Z/1,{})", "Z/1", 400))
    assert exc.value.position == 8 * limit + 4
    assert str(exc.value) == f"nesting deeper than {limit} levels (at column {8 * limit + 4})"
    # gamma( is a level too
    dsl.parse_algebra("gamma(" + _nested("lex(Z/1,{})", "Z/1", limit - 1) + ")")
    with pytest.raises(DslError, match="nesting deeper"):
        dsl.parse_algebra("gamma(" + _nested("lex(Z/1,{})", "Z/1", limit) + ")")
    assert dsl.parse_element_value(_nested("({})", "1/2", limit)) == Fraction(1, 2)
    with pytest.raises(DslError, match=rf"\(at column {limit + 1}\)$"):
        dsl.parse_element_value(_nested("({})", "1/2", 1000))
    with pytest.raises(DslError, match="nesting deeper"):
        dsl.parse_algebra(_nested("prod({})", "M(1)", limit))
    # depth is counted per level, not per parenthesis read
    wide = "(" + ",".join(["(1)"] * (2 * limit)) + ")"
    assert dsl.parse_element_value(wide) == (Fraction(1),) * (2 * limit)


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
    assert dsl.parse_element_value(S.format_value(v)) == v


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
    assert pmv.format_element(pmv.element_of(A, Fraction(3, 4))) == "3/4"
    T = pmv.GammaAlgebra(og.Twist4("Z"))
    s = pmv.format_element(
        pmv.element_of(T, (Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
    )
    assert s == "(1,0,0,0)"


# --- algebras ------------------------------------------------------------------------


def test_algebra_round_trips():
    for text in ("gamma(Z/4)", "gamma(twist3(Z))"):
        assert str(dsl.parse_algebra(text)) == text
    M = pmv.finite_mv_chain
    assert dsl.parse_algebra("M(5)") == M(5)
    assert dsl.parse_algebra("prod(M(1),M(2))") == pmv.finite_product([M(1), M(2)])


def test_parse_algebra_shapes():
    A = dsl.parse_algebra("M(3)")
    assert isinstance(A, pmv.FiniteAlgebra) and A.size == 4
    G = dsl.parse_algebra("gamma(D/1)")
    assert isinstance(G, pmv.GammaAlgebra) and G.desc == og.ScaledDyadic(1)
    P = dsl.parse_algebra("prod(M(1),M(2))")
    assert isinstance(P, pmv.FiniteAlgebra) and P.size == 6
    I = dsl.parse_algebra("interval(prod(M(1),M(2)),(1,0))")
    assert I.size == 2


def test_a_product_of_one_factor_parses_as_its_factor():
    M = pmv.finite_mv_chain
    assert dsl.parse_group("prod(Z/2)") == og.ScaledInt(2)
    assert dsl.parse_group("prod(prod(twist4(D)))") == og.Twist4("D")
    assert dsl.parse_group("prod(Z/5,prod(Q))") == og.ProductGroup((og.ScaledInt(5), og.Rationals()))
    assert dsl.parse_algebra("prod(M(5))") == M(5)
    assert dsl.parse_algebra("gamma(prod(Z/2))") == pmv.GammaAlgebra(og.ScaledInt(2))
    assert dsl.parse_algebra("prod(M(1),prod(M(2)))") == pmv.finite_product([M(1), M(2)])
    # the library constructors still build one-factor products
    assert og.ProductGroup((og.ScaledInt(2),)) != og.ScaledInt(2)
    assert pmv.finite_product([M(5)]).values != M(5).values


def test_parse_algebra_rejects():
    for text in ("M()", "M(0)", "gamma()", "prod()", "M(3", "interval(M(4),1/2)"):
        with pytest.raises((DslError, ParameterError)):
            dsl.parse_algebra(text)


def test_mixed_product_text_round_trips():
    lex = pmv.GammaAlgebra(og.Lex(og.ScaledInt(1), og.ScaledInt(1)))
    mixed = pmv.product([pmv.finite_mv_chain(1), lex])
    assert dsl.parse_algebra(str(mixed)).desc == mixed.desc
