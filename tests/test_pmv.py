"""Tests for the algebra layer: unit intervals, operations, products, intervals."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvroots import ogroups as og
from pmvroots import pmv
from pmvroots import scalars as S
from pmvroots.errors import CarrierError, ParameterError

ALPHA = S.QuadValue.make(Fraction(-1), Fraction(1), 2)


def gamma_algebras():
    return [
        pmv.GammaAlgebra(og.ScaledInt(5)),
        pmv.GammaAlgebra(og.ScaledDyadic(1)),
        pmv.GammaAlgebra(og.ScaledDyadic(3)),
        pmv.GammaAlgebra(og.Rationals()),
        pmv.GammaAlgebra(og.QuadLattice(ALPHA, False)),
        pmv.GammaAlgebra(og.Lex(og.ScaledInt(1), og.ScaledInt(1))),
        pmv.GammaAlgebra(og.Twist3("Z")),
        pmv.GammaAlgebra(og.Twist4("Z")),
        pmv.GammaAlgebra(og.ProductGroup((og.ScaledDyadic(1), og.ScaledInt(3)))),
    ]


def finite_algebras():
    M = pmv.finite_mv_chain
    return [
        M(1),
        M(2),
        M(3),
        M(4),
        pmv.finite_product([M(1), M(2)]),
        pmv.finite_product([M(2), M(3)]),
        pmv.finite_product([M(1), M(1), M(2)]),
    ]


def rand_in_interval(A, rng):
    g = og.random_element(A.desc, rng, coord_bound=4, exp_bound=4)
    p = og.g_meet(og.g_abs(g), og.unit(A.desc))
    return pmv.element_of(A, p.payload)


def elements_for(A, rng, count=20):
    if isinstance(A, pmv.FiniteAlgebra):
        return pmv.carrier(A)
    out = [pmv.zero_elem(A), pmv.one_elem(A)]
    out.extend(rand_in_interval(A, rng) for _ in range(count))
    return out


def ids_for(A):
    if isinstance(A, pmv.FiniteAlgebra):
        return f"finite{A.size}-{'x'.join(map(str, pmv.chain_lengths(A)))}"
    return type(A.desc).__name__


# --- construction and carriers -----------------------------------------------


def test_finite_chain_carrier():
    M = pmv.finite_mv_chain(4)
    assert M.size == 5
    assert sorted(pmv.value_of(x) for x in pmv.carrier(M)) == [
        Fraction(k, 4) for k in range(5)
    ]
    x = pmv.element_of(M, Fraction(3, 4))
    assert pmv.value_of(pmv.lneg(x)) == Fraction(1, 4)
    assert pmv.value_of(pmv.rneg(x)) == Fraction(1, 4)
    assert pmv.is_symmetric(M) == (True, None)


def test_finite_chain_ops_oracle():
    M = pmv.finite_mv_chain(6)
    for i in range(7):
        for j in range(7):
            x = pmv.element_of(M, Fraction(i, 6))
            y = pmv.element_of(M, Fraction(j, 6))
            assert pmv.value_of(pmv.oplus(x, y)) == min(Fraction(i + j, 6), Fraction(1))
            assert pmv.value_of(pmv.odot(x, y)) == max(Fraction(i + j - 6, 6), Fraction(0))
            assert pmv.value_of(pmv.meet(x, y)) == Fraction(min(i, j), 6)
            assert pmv.value_of(pmv.join(x, y)) == Fraction(max(i, j), 6)
            assert pmv.leq(x, y) == (i <= j)


def test_element_of_validation():
    M = pmv.finite_mv_chain(2)
    with pytest.raises((CarrierError, ParameterError)):
        pmv.element_of(M, Fraction(2, 3))
    G = pmv.GammaAlgebra(og.ScaledInt(3))
    with pytest.raises(CarrierError):
        pmv.element_of(G, Fraction(4, 3))
    with pytest.raises(CarrierError):
        pmv.element_of(G, Fraction(-1, 3))
    with pytest.raises(CarrierError):
        pmv.element_of(G, Fraction(1, 2))


def test_value_of_round_trip():
    rng = random.Random(3)
    for A in gamma_algebras() + finite_algebras():
        for x in elements_for(A, rng, 8):
            assert pmv.element_of(A, pmv.value_of(x)) == x


# --- the interval construction over a group -----------------------------------


@pytest.mark.parametrize("A", gamma_algebras(), ids=ids_for)
def test_gamma_operations_match_group_formulas(A):
    rng = random.Random(11)
    desc = A.desc
    u = og.unit(desc)
    zero = og.zero(desc)
    elems = elements_for(A, rng, 15)
    for xe in elems:
        x = og.element(desc, pmv.value_of(xe))
        assert pmv.value_of(pmv.lneg(xe)) == og.g_add(u, og.g_neg(x)).payload
        assert pmv.value_of(pmv.rneg(xe)) == og.g_add(og.g_neg(x), u).payload
        for ye in elems[:8]:
            y = og.element(desc, pmv.value_of(ye))
            assert pmv.value_of(pmv.oplus(xe, ye)) == og.g_meet(og.g_add(x, y), u).payload
            assert (
                pmv.value_of(pmv.odot(xe, ye))
                == og.g_join(og.g_add(og.g_add(x, og.g_neg(u)), y), zero).payload
            )
            assert pmv.value_of(pmv.meet(xe, ye)) == og.g_meet(x, y).payload
            assert pmv.value_of(pmv.join(xe, ye)) == og.g_join(x, y).payload
            assert pmv.leq(xe, ye) == og.g_leq(x, y)


# --- axioms ---------------------------------------------------------------------


@pytest.mark.parametrize("A", gamma_algebras() + finite_algebras(), ids=ids_for)
def test_pmv_axioms(A):
    rng = random.Random(17)
    elems = elements_for(A, rng, 12)
    zero = pmv.zero_elem(A)
    one = pmv.one_elem(A)
    assert pmv.lneg(one) == zero and pmv.rneg(one) == zero
    assert pmv.lneg(zero) == one and pmv.rneg(zero) == one
    for x in elems:
        assert pmv.oplus(x, zero) == x and pmv.oplus(zero, x) == x
        assert pmv.oplus(x, one) == one and pmv.oplus(one, x) == one
        assert pmv.rneg(pmv.lneg(x)) == x
        assert pmv.lneg(pmv.rneg(x)) == x
        assert pmv.odot(x, one) == x and pmv.odot(one, x) == x
    pairs = list(itertools.combinations(elems, 2))[:40]
    for x, y in pairs:
        # interdefinability of the product
        assert pmv.odot(x, y) == pmv.rneg(pmv.oplus(pmv.lneg(y), pmv.lneg(x)))
        # lattice operations recovered from the signature
        assert pmv.join(x, y) == pmv.oplus(x, pmv.odot(pmv.rneg(x), y))
        assert pmv.meet(x, y) == pmv.odot(x, pmv.oplus(pmv.lneg(x), y))
        assert pmv.join(x, y) == pmv.join(y, x)
        assert pmv.meet(x, y) == pmv.meet(y, x)
        # order is definable from arrow
        assert pmv.leq(x, y) == (pmv.oplus(pmv.lneg(x), y) == one)
        # De Morgan
        assert pmv.lneg(pmv.join(x, y)) == pmv.meet(pmv.lneg(x), pmv.lneg(y))
        assert pmv.rneg(pmv.join(x, y)) == pmv.meet(pmv.rneg(x), pmv.rneg(y))
        assert pmv.lneg(pmv.meet(x, y)) == pmv.join(pmv.lneg(x), pmv.lneg(y))
    triples = list(itertools.combinations(elems, 3))[:30]
    for x, y, z in triples:
        assert pmv.oplus(pmv.oplus(x, y), z) == pmv.oplus(x, pmv.oplus(y, z))
        assert pmv.odot(pmv.odot(x, y), z) == pmv.odot(x, pmv.odot(y, z))


@pytest.mark.parametrize("A", gamma_algebras() + finite_algebras(), ids=ids_for)
def test_derived_operations(A):
    rng = random.Random(19)
    elems = elements_for(A, rng, 10)
    zero = pmv.zero_elem(A)
    one = pmv.one_elem(A)
    for x in elems:
        assert pmv.distance(x, x) == zero
        assert pmv.distance(x, zero) == x
        assert pmv.arrow(x, x) == one
        assert pmv.ominus(x, zero) == x
    for x, y in itertools.combinations(elems, 2):
        assert pmv.ominus(x, y) == pmv.odot(x, pmv.lneg(y))
        assert pmv.arrow(x, y) == pmv.oplus(pmv.lneg(x), y)
        assert pmv.distance(x, y) == pmv.distance(y, x)


def test_is_boolean_elem():
    M = pmv.finite_mv_chain(4)
    flags = [pmv.is_boolean_elem(x) for x in pmv.carrier(M)]
    assert flags.count(True) == 2
    P = pmv.finite_product([pmv.finite_mv_chain(1), pmv.finite_mv_chain(2)])
    boo = sorted(pmv.value_of(b) for b in pmv.boolean_skeleton(P))
    assert boo == [
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
    ]


def test_boolean_skeleton_gamma():
    G = pmv.GammaAlgebra(og.ScaledDyadic(1))
    assert {pmv.value_of(b) for b in pmv.boolean_skeleton(G)} == {Fraction(0), Fraction(1)}
    GP = pmv.GammaAlgebra(og.ProductGroup((og.ScaledDyadic(1), og.ScaledInt(2))))
    assert len(pmv.boolean_skeleton(GP)) == 4
    GT = pmv.GammaAlgebra(og.Twist3("Z"))
    assert len(pmv.boolean_skeleton(GT)) == 2


# --- symmetry ---------------------------------------------------------------------


def test_symmetry_verdicts():
    assert pmv.is_symmetric(pmv.finite_mv_chain(5)) == (True, None)
    ok, w = pmv.is_symmetric(pmv.GammaAlgebra(og.Twist3("Z")))
    assert not ok and w is not None
    assert pmv.lneg(w) != pmv.rneg(w)
    ok4, w4 = pmv.is_symmetric(pmv.GammaAlgebra(og.Twist4("Z")))
    assert ok4 and w4 is None
    okp, _ = pmv.is_symmetric(
        pmv.GammaAlgebra(og.ProductGroup((og.ScaledInt(1), og.Twist3("Z"))))
    )
    assert not okp


def test_twist3_negation_asymmetry_values():
    A = pmv.GammaAlgebra(og.Twist3("Z"))
    x = pmv.element_of(A, (Fraction(0), Fraction(1), Fraction(0)))
    assert pmv.value_of(pmv.lneg(x)) == (Fraction(1), Fraction(-1), Fraction(-1))
    assert pmv.value_of(pmv.rneg(x)) == (Fraction(1), Fraction(-1), Fraction(0))


# --- products and decomposition ---------------------------------------------------


def test_finite_product_componentwise():
    M2 = pmv.finite_mv_chain(2)
    M3 = pmv.finite_mv_chain(3)
    P = pmv.finite_product([M2, M3])
    assert P.size == 12
    x = pmv.element_of(P, (Fraction(1, 2), Fraction(2, 3)))
    y = pmv.element_of(P, (Fraction(1), Fraction(2, 3)))
    assert pmv.value_of(pmv.oplus(x, y)) == (Fraction(1), Fraction(1))
    assert pmv.value_of(pmv.odot(x, y)) == (Fraction(1, 2), Fraction(1, 3))
    assert pmv.value_of(pmv.lneg(x)) == (Fraction(1, 2), Fraction(1, 3))


def test_product_isomorphism_and_lengths():
    M = pmv.finite_mv_chain
    A = pmv.finite_product([M(1), M(3)])
    B = pmv.finite_product([M(3), M(1)])
    assert pmv.are_isomorphic(A, B)
    assert sorted(pmv.chain_lengths(A)) == sorted(pmv.chain_lengths(B)) == [1, 3]
    C = pmv.finite_product([M(1), M(1)])
    D = pmv.finite_mv_chain(3)
    assert C.size == D.size == 4
    assert not pmv.are_isomorphic(C, D)


def test_chain_decomposition_reassembles():
    M = pmv.finite_mv_chain
    for factors in ([2, 3], [1, 4], [1, 1, 2], [5]):
        P = pmv.finite_product([M(n) for n in factors])
        dec = pmv.chain_decomposition(P)
        assert sorted(l for _, l in dec) == sorted(factors)
        total = 1
        for atom, length in dec:
            assert pmv.is_boolean_elem(atom)
            piece = pmv.interval(P, atom)
            assert pmv.are_isomorphic(piece, M(length))
            total *= length + 1
        assert total == P.size
        join_all = pmv.zero_elem(P)
        for atom, _ in dec:
            join_all = pmv.join(join_all, atom)
        assert join_all == pmv.one_elem(P)


def test_interval_requires_idempotent():
    M = pmv.finite_mv_chain(4)
    with pytest.raises(ParameterError):
        pmv.interval(M, pmv.element_of(M, Fraction(1, 2)))


def test_interval_finite():
    P = pmv.finite_product([pmv.finite_mv_chain(2), pmv.finite_mv_chain(3)])
    I = pmv.interval(P, pmv.element_of(P, (Fraction(1), Fraction(0))))
    assert I.size == 3
    assert pmv.are_isomorphic(I, pmv.finite_mv_chain(2))


def test_interval_gamma_projects_live_factors():
    G = pmv.GammaAlgebra(og.ProductGroup((og.ScaledDyadic(1), og.ScaledInt(2))))
    I = pmv.interval(G, pmv.element_of(G, (Fraction(1), Fraction(0))))
    assert isinstance(I, pmv.GammaAlgebra)
    assert I.desc == og.ScaledDyadic(1)
    x = pmv.element_of(I, Fraction(1, 4))
    assert pmv.value_of(pmv.lneg(x)) == Fraction(3, 4)


def test_to_gamma_descriptor():
    assert pmv.to_gamma_descriptor(pmv.finite_mv_chain(3)) == og.ScaledInt(3)
    P = pmv.finite_product([pmv.finite_mv_chain(1), pmv.finite_mv_chain(4)])
    desc = pmv.to_gamma_descriptor(P)
    assert isinstance(desc, og.ProductGroup)
    assert sorted(f.n for f in desc.factors) == [1, 4]


def test_gamma_finite_agreement():
    for n in (1, 2, 3, 4, 5):
        M = pmv.finite_mv_chain(n)
        G = pmv.GammaAlgebra(og.ScaledInt(n))
        mapping = {x: pmv.element_of(G, pmv.value_of(x)) for x in pmv.carrier(M)}
        ok, why = pmv.check_homomorphism(mapping, M, G, require_injective=True)
        assert ok, why


def test_check_homomorphism_rejects_bad_map():
    M = pmv.finite_mv_chain(2)
    G = pmv.GammaAlgebra(og.ScaledInt(2))
    mapping = {x: pmv.element_of(G, Fraction(1) - pmv.value_of(x)) for x in pmv.carrier(M)}
    ok, why = pmv.check_homomorphism(mapping, M, G)
    assert not ok and why


def test_format_element_and_value():
    M = pmv.finite_mv_chain(3)
    assert pmv.format_element(pmv.element_of(M, Fraction(2, 3))) == "2/3"
    P = pmv.finite_product([pmv.finite_mv_chain(1), pmv.finite_mv_chain(2)])
    s = pmv.format_element(pmv.element_of(P, (Fraction(1), Fraction(1, 2))))
    assert "1" in s and "1/2" in s


# --- property-based sampling over the dyadic interval -------------------------------


def dyadics():
    return st.integers(0, 64).map(lambda k: Fraction(k, 64))


@settings(max_examples=200, deadline=None)
@given(dyadics(), dyadics(), dyadics())
def test_dyadic_gamma_axioms_property(a, b, c):
    A = pmv.GammaAlgebra(og.ScaledDyadic(1))
    x, y, z = (pmv.element_of(A, v) for v in (a, b, c))
    assert pmv.oplus(pmv.oplus(x, y), z) == pmv.oplus(x, pmv.oplus(y, z))
    assert pmv.value_of(pmv.oplus(x, y)) == min(a + b, Fraction(1))
    assert pmv.value_of(pmv.odot(x, y)) == max(a + b - 1, Fraction(0))
    assert pmv.join(x, y) == pmv.oplus(x, pmv.odot(pmv.rneg(x), y))
    assert pmv.meet(x, y) == pmv.odot(x, pmv.oplus(pmv.lneg(x), y))


# --- finite products by index arithmetic, and the algebra hash ---------------------


def _product_by_tuples(factors):
    """The product tables built cell by cell from carrier tuples: the oracle."""
    tuples = list(itertools.product(*(range(f.size) for f in factors)))
    pos = {t: i for i, t in enumerate(tuples)}
    values = tuple(tuple(f.values[i] for f, i in zip(factors, t)) for t in tuples)
    oplus_t = tuple(
        tuple(pos[tuple(f.oplus_t[a][b] for f, a, b in zip(factors, s, t))] for t in tuples)
        for s in tuples
    )
    lneg_t = tuple(pos[tuple(f.lneg_t[a] for f, a in zip(factors, s))] for s in tuples)
    rneg_t = tuple(pos[tuple(f.rneg_t[a] for f, a in zip(factors, s))] for s in tuples)
    zero = pos[tuple(f.zero_i for f in factors)]
    one = pos[tuple(f.one_i for f in factors)]
    return values, oplus_t, lneg_t, rneg_t, zero, one


def _assert_product_matches_oracle(factors):
    P = pmv.finite_product(factors)
    values, oplus_t, lneg_t, rneg_t, zero, one = _product_by_tuples(factors)
    assert P.values == values
    assert P.oplus_t == oplus_t
    assert P.lneg_t == lneg_t
    assert P.rneg_t == rneg_t
    assert (P.zero_i, P.one_i) == (zero, one)


def _chain_sizes(limit, prod=1):
    """Every ordered sequence of chain sizes >= 2 whose product is at most ``limit``."""
    for s in range(2, limit // prod + 1):
        yield (s,)
        for rest in _chain_sizes(limit, prod * s):
            yield (s,) + rest


def test_finite_product_matches_tuple_oracle_on_all_chain_products_to_64():
    chains = {n: pmv.finite_mv_chain(n) for n in range(1, 64)}
    count = 0
    for sizes in _chain_sizes(64):
        _assert_product_matches_oracle([chains[s - 1] for s in sizes])
        count += 1
    assert count == 440


def test_finite_product_matches_tuple_oracle_on_nested_and_interval_factors():
    M = pmv.finite_mv_chain
    P12 = pmv.finite_product([M(1), M(2)])
    P13 = pmv.finite_product([M(1), M(3)])
    cut = pmv.interval(P13, pmv.element_of(P13, (Fraction(0), Fraction(1))))
    cut3 = pmv.interval(
        pmv.finite_product([M(1), M(1), M(2)]),
        pmv.element_of(
            pmv.finite_product([M(1), M(1), M(2)]), (Fraction(1), Fraction(0), Fraction(1))
        ),
    )
    for factors in (
        [P12, M(3)],
        [M(2), P12],
        [P12, P13],
        [pmv.finite_product([P12, M(1)]), M(1)],
        [cut, M(2)],
        [M(1), cut3],
        [cut, cut3],
        [cut3, P12, M(1)],
    ):
        _assert_product_matches_oracle(factors)


def test_separate_parses_give_equal_algebras_with_interchangeable_elements():
    from pmvroots import dsl

    for text in ("M(5)", "prod(M(1),M(3))", "prod(prod(M(1),M(1)),M(2))",
                 "interval(prod(M(1),M(4)),(0,1))"):
        A, B = dsl.parse_algebra(text), dsl.parse_algebra(text)
        assert A is not B
        assert A == B and hash(A) == hash(B)
        assert frozenset(pmv.carrier(A)) == frozenset(pmv.carrier(B))
        lookup = {x: pmv.value_of(x) for x in pmv.carrier(A)}
        assert all(lookup[y] == pmv.value_of(y) for y in pmv.carrier(B))
        assert pmv.oplus(pmv.one_elem(A), pmv.zero_elem(B)) == pmv.one_elem(B)


def test_distinct_algebras_of_one_size_are_unequal():
    M = pmv.finite_mv_chain
    same_size = [
        M(3),
        pmv.finite_product([M(1), M(1)]),
        M(5),
        pmv.finite_product([M(1), M(2)]),
        pmv.finite_product([M(2), M(1)]),
    ]
    for A, B in itertools.combinations(same_size, 2):
        assert A != B and B != A
        if A.size == B.size:
            assert pmv.zero_elem(A) != pmv.zero_elem(B)
            assert len({pmv.zero_elem(A), pmv.zero_elem(B)}) == 2


def _verdict_cell_by_cell(op, ln, rn, zero, one):
    """The derived tables and the axiom checks cell by cell: the oracle.

    Returns ``(odot, join, meet)`` or the message of the first failed check.
    """
    n, rng = len(op), range(len(op))
    od = tuple(tuple(rn[op[ln[j]][ln[i]]] for j in rng) for i in rng)
    jo = tuple(tuple(op[i][od[rn[i]][j]] for j in rng) for i in rng)
    me = tuple(tuple(od[i][op[ln[i]][j]] for j in rng) for i in rng)
    for i in rng:
        if op[i][zero] != i or op[zero][i] != i:
            return f"0 is not neutral at index {i}"
        if op[i][one] != one or op[one][i] != one:
            return f"1 is not absorbing at index {i}"
        if rn[ln[i]] != i or ln[rn[i]] != i:
            return f"negations are not mutually inverse at {i}"
    if ln[one] != zero or rn[one] != zero:
        return "negation of 1 must be 0"
    for i in rng:
        for j in rng:
            if rn[op[ln[i]][ln[j]]] != ln[op[rn[i]][rn[j]]]:
                return f"negation exchange fails at ({i},{j})"
            a = jo[i][j]
            if a != op[j][od[rn[j]][i]] or a != op[od[i][ln[j]]][j] or a != op[od[j][ln[i]]][i]:
                return f"join expressions disagree at ({i},{j})"
            if od[i][op[ln[i]][j]] != od[op[i][rn[j]]][j]:
                return f"meet expressions disagree at ({i},{j})"
    for i, j, k in itertools.product(rng, repeat=3):
        if op[op[i][j]][k] != op[i][op[j][k]]:
            return f"(+) is not associative at ({i},{j},{k})"
    return od, jo, me


def _checked_tables(op, ln, rn, zero, one):
    try:
        A = pmv.FiniteAlgebra(range(len(op)), op, ln, rn, zero, one)
    except ParameterError as exc:
        return str(exc)
    return A.odot_t, A.join_t, A.meet_t


def test_derived_tables_and_axiom_checks_match_the_cell_by_cell_oracle():
    verdicts = []
    # commutative tables on 4 and 5 elements with 0 neutral, 1 absorbing and
    # the chain negation, every inner cell free: each check fails somewhere
    for n in (4, 5):
        inner = [(i, j) for i in range(1, n - 1) for j in range(i, n - 1)]
        neg = [n - 1 - i for i in range(n)]
        for cells in itertools.product(range(n), repeat=len(inner)):
            op = [[max(i, j) if min(i, j) == 0 else n - 1 for j in range(n)] for i in range(n)]
            for (i, j), v in zip(inner, cells):
                op[i][j] = op[j][i] = v
            verdict = _checked_tables(op, neg, neg, 0, n - 1)
            assert verdict == _verdict_cell_by_cell(op, neg, neg, 0, n - 1), op
            verdicts.append(verdict if isinstance(verdict, str) else "ok")
    kinds = {v.split(" at ")[0] for v in verdicts}
    assert {"ok", "(+) is not associative", "join expressions disagree",
            "meet expressions disagree"} <= kinds
    # finite chains and products, with one-sided negations left equal
    for A in finite_algebras():
        assert _verdict_cell_by_cell(A.oplus_t, A.lneg_t, A.rneg_t, A.zero_i, A.one_i) == (
            A.odot_t, A.join_t, A.meet_t)
