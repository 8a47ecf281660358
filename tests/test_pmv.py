"""Tests for the algebra layer: unit intervals, operations, products, intervals."""

import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvroots import ogroups as og
from pmvroots import pmv
from pmvroots import scalars as S
from pmvroots.errors import CarrierError, MismatchError, ParameterError, ResourceLimitError

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
    d = A.desc
    g = d.random(rng, 4, 4)
    return pmv.element_of(A, d.meet(d.join(g, d.neg(g)), A.unit))  # |g| ^ u


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
    u = desc.unit()
    zero = desc.zero()
    elems = elements_for(A, rng, 15)
    for xe in elems:
        x = og.member(desc, pmv.value_of(xe))
        assert pmv.value_of(pmv.lneg(xe)) == desc.add(u, desc.neg(x))
        assert pmv.value_of(pmv.rneg(xe)) == desc.add(desc.neg(x), u)
        for ye in elems[:8]:
            y = og.member(desc, pmv.value_of(ye))
            assert pmv.value_of(pmv.oplus(xe, ye)) == desc.meet(desc.add(x, y), u)
            assert (
                pmv.value_of(pmv.odot(xe, ye))
                == desc.join(desc.add(desc.add(x, desc.neg(u)), y), zero)
            )
            assert pmv.value_of(pmv.meet(xe, ye)) == desc.meet(x, y)
            assert pmv.value_of(pmv.join(xe, ye)) == desc.join(x, y)
            assert pmv.leq(xe, ye) == (desc.cmp(x, y) in (-1, 0))


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


def arrow(x, y):
    """x -> y = x- (+) y."""
    return pmv.oplus(pmv.lneg(x), y)


def ominus(x, y):
    """MV difference x (-) y = x (.) y-."""
    return pmv.odot(x, pmv.lneg(y))


def distance(x, y):
    """Symmetric difference d(x, y) = (x (-) y) (+) (y (-) x)."""
    return pmv.oplus(ominus(x, y), ominus(y, x))


@pytest.mark.parametrize("A", gamma_algebras() + finite_algebras(), ids=ids_for)
def test_derived_operations(A):
    rng = random.Random(19)
    elems = elements_for(A, rng, 10)
    zero = pmv.zero_elem(A)
    one = pmv.one_elem(A)
    for x in elems:
        assert distance(x, x) == zero
        assert distance(x, zero) == x
        assert arrow(x, x) == one
        assert ominus(x, zero) == x
    for x, y in itertools.combinations(elems, 2):
        assert distance(x, y) == distance(y, x)
        # x <= y exactly when x -> y = 1, exactly when x (-) y = 0
        assert pmv.leq(x, y) == (arrow(x, y) == one) == (ominus(x, y) == zero)


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


def test_constructions_refuse_a_carrier_above_the_limit():
    M = pmv.finite_mv_chain
    assert pmv.MAX_CARRIER == 1024
    with pytest.raises(ResourceLimitError, match="^carrier has 1025 elements, above the limit 1024$"):
        M(1024)
    with pytest.raises(ResourceLimitError, match="^carrier has 2048 elements, above the limit 1024$"):
        pmv.finite_product([M(1)] * 11)


def are_isomorphic(A, B) -> bool:
    """Finite algebras are isomorphic exactly when their chain lengths agree."""
    return A.size == B.size and pmv.chain_lengths(A) == pmv.chain_lengths(B)


def test_product_isomorphism_and_lengths():
    M = pmv.finite_mv_chain
    A = pmv.finite_product([M(1), M(3)])
    B = pmv.finite_product([M(3), M(1)])
    assert are_isomorphic(A, B)
    assert sorted(pmv.chain_lengths(A)) == sorted(pmv.chain_lengths(B)) == [1, 3]
    C = pmv.finite_product([M(1), M(1)])
    D = pmv.finite_mv_chain(3)
    assert C.size == D.size == 4
    assert not are_isomorphic(C, D)


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
            assert are_isomorphic(piece, M(length))
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
    assert are_isomorphic(I, pmv.finite_mv_chain(2))


def test_interval_gamma_projects_live_factors():
    G = pmv.GammaAlgebra(og.ProductGroup((og.ScaledDyadic(1), og.ScaledInt(2))))
    I = pmv.interval(G, pmv.element_of(G, (Fraction(1), Fraction(0))))
    assert isinstance(I, pmv.GammaAlgebra)
    assert I.desc == og.ScaledDyadic(1)
    x = pmv.element_of(I, Fraction(1, 4))
    assert pmv.value_of(pmv.lneg(x)) == Fraction(3, 4)
    # the cut at 0 keeps no factor: the one-element algebra
    Z = pmv.interval(G, pmv.zero_elem(G))
    assert Z.size == 1 and pmv.value_of(pmv.one_elem(Z)) == Fraction(0)


def test_to_gamma_descriptor():
    assert pmv.to_gamma_descriptor(pmv.finite_mv_chain(3)) == og.ScaledInt(3)
    P = pmv.finite_product([pmv.finite_mv_chain(1), pmv.finite_mv_chain(4)])
    desc = pmv.to_gamma_descriptor(P)
    assert isinstance(desc, og.ProductGroup)
    assert sorted(f.n for f in desc.factors) == [1, 4]


def check_homomorphism(mapping, M, N, *, require_injective=False):
    """Whether ``mapping`` (finite M to N, on elements) preserves (+), both
    negations, 0 and 1, checked pair by pair: the oracle of every map the
    package builds between algebras.  ``(True, None)`` or ``(False, why)``."""
    elems = pmv.carrier(M)
    for x in elems:
        if x not in mapping:
            return False, f"map is not total: {x} missing"
    if mapping[pmv.zero_elem(M)] != pmv.zero_elem(N):
        return False, "0 is not preserved"
    if mapping[pmv.one_elem(M)] != pmv.one_elem(N):
        return False, "1 is not preserved"
    for x in elems:
        if mapping[pmv.lneg(x)] != pmv.lneg(mapping[x]):
            return False, f"left negation fails at {x}"
        if mapping[pmv.rneg(x)] != pmv.rneg(mapping[x]):
            return False, f"right negation fails at {x}"
        for y in elems:
            if mapping[pmv.oplus(x, y)] != pmv.oplus(mapping[x], mapping[y]):
                return False, f"(+) fails at ({x},{y})"
    if require_injective and len(set(mapping.values())) != len(elems):
        return False, "map is not injective"
    return True, None


def test_gamma_finite_agreement():
    for n in (1, 2, 3, 4, 5):
        M = pmv.finite_mv_chain(n)
        G = pmv.GammaAlgebra(og.ScaledInt(n))
        mapping = {x: pmv.element_of(G, pmv.value_of(x)) for x in pmv.carrier(M)}
        ok, why = check_homomorphism(mapping, M, G, require_injective=True)
        assert ok, why


def test_check_homomorphism_rejects_bad_map():
    M = pmv.finite_mv_chain(2)
    G = pmv.GammaAlgebra(og.ScaledInt(2))
    mapping = {x: pmv.element_of(G, Fraction(1) - pmv.value_of(x)) for x in pmv.carrier(M)}
    ok, why = check_homomorphism(mapping, M, G)
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


# --- finite products against the tables built from tuples, and the algebra hash ---


def _product_by_tuples(factors):
    """The product tables built cell by cell from carrier tuples: the oracle."""
    tuples = list(itertools.product(*(range(f.size) for f in factors)))
    pos = {t: i for i, t in enumerate(tuples)}
    values = tuple(tuple(f.values[i] for f, i in zip(factors, t)) for t in tuples)
    oplus_t = tuple(
        tuple(pos[tuple(f.oplus(a, b) for f, a, b in zip(factors, s, t))] for t in tuples)
        for s in tuples
    )
    lneg_t = tuple(pos[tuple(f.lneg(a) for f, a in zip(factors, s))] for s in tuples)
    rneg_t = tuple(pos[tuple(f.rneg(a) for f, a in zip(factors, s))] for s in tuples)
    zero = pos[tuple(f.zero for f in factors)]
    one = pos[tuple(f.unit for f in factors)]
    return values, oplus_t, lneg_t, rneg_t, zero, one


def _assert_product_matches_oracle(factors):
    P = pmv.finite_product(factors)
    values, oplus_t, lneg_t, rneg_t, zero, one = _product_by_tuples(factors)
    assert P.values == values
    assert tables_of(P) == (oplus_t, lneg_t, rneg_t)
    assert (P.zero, P.unit) == (zero, one)


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


def test_gamma_algebras_stay_equal_after_their_cached_values_are_read():
    for desc in (og.Twist3("Z"), og.ProductGroup((og.ScaledInt(3), og.Rationals())),
                 og.Lex(og.ScaledInt(2), og.ScaledDyadic(3))):
        A, B = pmv.GammaAlgebra(desc), pmv.GammaAlgebra(desc)
        before = hash(A)
        # A builds u, 0 and -u; B builds none of them
        assert (A.unit, A.zero, A.neg_unit) == (desc.unit(), desc.zero(), desc.neg(desc.unit()))
        assert A == B and B == A and hash(A) == hash(B) == before
        assert len({A, B}) == 1
        assert repr(A) == repr(B)
        x, y = pmv.one_elem(A), pmv.one_elem(B)
        assert x == y and hash(x) == hash(y)
        assert pmv.odot(x, pmv.zero_elem(B)) == pmv.zero_elem(A)
        assert pmv.oplus(pmv.lneg(y), x) == x and pmv.rneg(x) == pmv.zero_elem(B)


def test_a_group_interval_keeps_its_hash():
    p = (Fraction(1), Fraction(-1), Fraction(1))
    A, B = pmv.GammaAlgebra(og.Twist3("Z")), pmv.GammaAlgebra(og.Twist3("Z"))
    assert A == B and A is not B
    assert hash(pmv.Element(A, p)) == hash(pmv.Element(B, p))
    # computed on first use, and the record's hash of its one field
    assert "_hash" not in vars(pmv.GammaAlgebra(og.Rationals()))
    assert hash(A) == hash((og.Twist3("Z"),)) == vars(A)["_hash"]


def test_elements_are_frozen_values_without_a_dict():
    A = pmv.finite_mv_chain(3)
    G = pmv.GammaAlgebra(og.Twist3("Z"))
    x, g = pmv.element_of(A, Fraction(1, 3)), pmv.element_of(G, (1, -1, 1))
    assert x == pmv.element_of(A, Fraction(1, 3)) and hash(x) == hash(pmv.element_of(A, Fraction(1, 3)))
    assert x != pmv.element_of(A, Fraction(2, 3)) and g != pmv.one_elem(G)
    assert g == pmv.Element(G, (Fraction(1), Fraction(-1), Fraction(1))) and len({x, g, pmv.Element(A, 1)}) == 2
    assert repr(x) == f"Element(algebra={A!r}, payload=1)"
    assert repr(g) == "Element(algebra=GammaAlgebra(desc=Twist3(tag='Z')), payload=(1, -1, 1))"
    assert (str(x), str(g)) == ("1/3", "(1,-1,1)")
    for e in (x, g):
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.payload = 0
        assert not hasattr(e, "__dict__")


def test_elements_of_different_algebras_do_not_mix():
    for A, B in (
        (pmv.GammaAlgebra(og.ScaledInt(1)), pmv.GammaAlgebra(og.ScaledInt(2))),
        (pmv.GammaAlgebra(og.Twist3("Z")), pmv.GammaAlgebra(og.Twist3("D"))),
        (pmv.finite_mv_chain(2), pmv.GammaAlgebra(og.ScaledInt(2))),
    ):
        x, y = pmv.one_elem(A), pmv.zero_elem(B)
        for op in (pmv.oplus, pmv.odot, pmv.join, pmv.meet, pmv.leq):
            with pytest.raises(MismatchError, match="^elements of different algebras$"):
                op(x, y)


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


class CountedValue:
    """A carrier value that counts the calls of its ``__hash__``."""

    calls = 0

    def __init__(self, k):
        self.k = k

    def __eq__(self, other):
        return isinstance(other, CountedValue) and self.k == other.k

    def __hash__(self):
        CountedValue.calls += 1
        return hash(self.k)


def test_a_construction_hashes_each_carrier_value_once():
    op, neg = _chain_tables(5)
    values = [CountedValue(k) for k in range(6)]
    CountedValue.calls = 0
    A = pmv.FiniteAlgebra(values, op, neg, neg, 0, 5)
    assert CountedValue.calls == 6
    B = pmv.FiniteAlgebra(range(6), op, neg, neg, 0, 5)
    assert hash(A) == hash(B) and CountedValue.calls == 6
    # the hash leaves the values out; equality still compares them
    assert A != B and B != A
    assert A == pmv.FiniteAlgebra([CountedValue(k) for k in range(6)], op, neg, neg, 0, 5)


def derived_tables(op, ln, rn):
    """The tables of (.), v and ^ from (+) and the negations, cell by cell:
    x (.) y = (y- (+) x-)~, x v y = x (+) (x~ (.) y), x ^ y = x (.) (x- (+) y)."""
    rng = range(len(op))
    od = tuple(tuple(rn[op[ln[j]][ln[i]]] for j in rng) for i in rng)
    jo = tuple(tuple(op[i][od[rn[i]][j]] for j in rng) for i in rng)
    me = tuple(tuple(od[i][op[ln[i]][j]] for j in rng) for i in rng)
    return od, jo, me


@functools.cache
def tables_of(A):
    """The (+) table and both negation tables of a finite algebra, on carrier
    indices, from its operations; built once per algebra."""
    rng = range(A.size)
    return tuple(tuple(A.oplus(i, j) for j in rng) for i in rng), tuple(map(A.lneg, rng)), tuple(map(A.rneg, rng))


@functools.cache
def derived_tables_of(A):
    """``derived_tables`` of a finite algebra, built once per algebra."""
    return derived_tables(*tables_of(A))


def operation_tables(A):
    """The tables that ``pmv.odot``, ``join`` and ``meet`` give over the carrier."""
    elems = pmv.carrier(A)
    return tuple(
        tuple(tuple(f(x, y).payload for y in elems) for x in elems)
        for f in (pmv.odot, pmv.join, pmv.meet)
    )


def _verdict_cell_by_cell(op, ln, rn, zero, one):
    """The derived tables and the axiom checks cell by cell: the oracle.

    Returns ``(odot, join, meet)`` or the message of the first failed check.
    """
    rng = range(len(op))
    od, jo, me = derived_tables(op, ln, rn)
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
    """The derived operations' tables of the constructed algebra, or None
    when the constructor rejects the tables."""
    try:
        A = pmv.FiniteAlgebra(range(len(op)), op, ln, rn, zero, one)
    except ParameterError:
        return None
    return operation_tables(A)


def _accepted(verdict):
    """The oracle's verdict as the constructor gives it: tables or None."""
    return None if isinstance(verdict, str) else verdict


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
            verdict = _verdict_cell_by_cell(op, neg, neg, 0, n - 1)
            assert _checked_tables(op, neg, neg, 0, n - 1) == _accepted(verdict), op
            verdicts.append(verdict if isinstance(verdict, str) else "ok")
    assert len(verdicts) == 4**3 + 5**6
    # M(1) x M(1), and M(3) and M(4) each in two orders of their middle
    # elements that the chain negation reverses
    assert verdicts.count("ok") == 5
    kinds = {v.split(" at ")[0] for v in verdicts}
    assert {"(+) is not associative", "join expressions disagree",
            "meet expressions disagree"} <= kinds
    # finite chains and products, with one-sided negations left equal
    for A in finite_algebras():
        tables = (*tables_of(A), A.zero, A.unit)
        assert _verdict_cell_by_cell(*tables) == operation_tables(A)


@pytest.mark.parametrize("n", range(1, 25))
def test_every_chain_up_to_24_passes_the_cell_by_cell_oracle(n):
    A = pmv.finite_mv_chain(n)
    tables = (*tables_of(A), A.zero, A.unit)
    assert _verdict_cell_by_cell(*tables) == operation_tables(A)
    assert A.decomposition.lengths == (n,)


def _chain_tables(n):
    """(+) and the negation of M(n)."""
    rng = range(n + 1)
    return [[min(i + j, n) for j in rng] for i in rng], [n - i for i in rng]


def _malformed():
    """Tables of M(2) with one defect of shape or range each."""
    op, neg = _chain_tables(2)

    def case(name, **change):
        args = dict(values=range(3), oplus=op, lneg=neg, rneg=neg, zero=0, one=2)
        args.update(change)
        return pytest.param(args, id=name)

    def entry(v):
        return [[v, 1, 2]] + op[1:]

    return [
        case("empty carrier", values=[], oplus=[], lneg=[], rneg=[], zero=0, one=0),
        case("entry past the carrier", oplus=entry(3)),
        case("negative entry", oplus=entry(-1)),
        case("fraction entry", oplus=entry(Fraction(0))),
        case("float entry", oplus=entry(0.0)),
        case("string entry", oplus=entry("0")),
        case("None entry", oplus=entry(None)),
        case("bool entry", oplus=entry(False)),
        case("short (+) row", oplus=[[0, 1]] + op[1:]),
        case("long (+) row", oplus=[[0, 1, 2, 2]] + op[1:]),
        case("missing (+) row", oplus=op[:2]),
        case("row that is not a sequence", oplus=[0] + op[1:]),
        case("negation past the carrier", lneg=[2, 1, 3]),
        case("negative negation", rneg=[2, 1, -3]),
        case("short negation", lneg=[2, 1]),
        case("zero past the carrier", zero=3),
        case("negative zero", zero=-3),
        case("negative one", one=-1),
        case("fraction one", one=Fraction(2)),
        case("unhashable values", values=[[0], [1], [2]]),
        case("repeated values", values=[0, 1, 1]),
    ]


@pytest.mark.parametrize("args", _malformed())
def test_malformed_tables_raise_parameter_error(args):
    with pytest.raises(ParameterError):
        pmv.FiniteAlgebra(**args)


def test_the_unaltered_tables_of_the_malformed_cases_are_accepted():
    op, neg = _chain_tables(2)
    A = pmv.FiniteAlgebra(range(3), op, neg, neg, 0, 2)
    assert A.decomposition.lengths == (2,)
