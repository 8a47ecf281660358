"""Tests for ideal enumeration, prime partitions, quotients, and w-splitting."""

import inspect
import itertools
import re
from fractions import Fraction

import pytest

from pmvroots import ideals
from pmvroots import pmv
from pmvroots import roots
from pmvroots.errors import ParameterError, ResourceLimitError, UnsupportedOperationError
from pmvroots.worked_examples import w_split
from test_pmv import are_isomorphic

M = pmv.finite_mv_chain


def small_corpus():
    return [
        M(1),
        M(2),
        M(3),
        M(4),
        M(6),
        pmv.finite_product([M(1), M(1)]),
        pmv.finite_product([M(1), M(2)]),
        pmv.finite_product([M(1), M(4)]),
        pmv.finite_product([M(2), M(3)]),
        pmv.finite_product([M(1), M(1), M(2)]),
    ]


def corpus_id(A):
    return "x".join(map(str, pmv.chain_lengths(A)))


# --- power-set oracle ------------------------------------------------------------


def brute_ideals(A):
    """Every subset that contains 0 and is downward- and oplus-closed."""
    elems = pmv.carrier(A)
    zero = pmv.zero_elem(A)
    found = []
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            s = frozenset(combo)
            if zero not in s:
                continue
            if any(pmv.leq(y, x) and y not in s for x in s for y in elems):
                continue
            if any(pmv.oplus(x, y) not in s for x in s for y in s):
                continue
            found.append(s)
    return found


@pytest.mark.parametrize(
    "A",
    [M(2), M(4), pmv.finite_product([M(1), M(2)]), pmv.finite_product([M(1), M(1)])],
    ids=corpus_id,
)
def test_enumerate_ideals_matches_powerset_oracle(A):
    expected = sorted(brute_ideals(A), key=lambda s: (len(s), sorted(map(repr, s))))
    got = sorted(
        (i.members for i in ideals.enumerate_ideals(A)),
        key=lambda s: (len(s), sorted(map(repr, s))),
    )
    assert got == expected


def test_every_ideal_has_idempotent_top():
    for A in small_corpus():
        for info in ideals.enumerate_ideals(A):
            assert pmv.is_boolean_elem(info.top)
            assert info.members == frozenset(
                x for x in pmv.carrier(A) if pmv.leq(x, info.top)
            )
            assert info.is_proper == (len(info.members) < A.size)


@pytest.mark.parametrize("A", small_corpus(), ids=corpus_id)
def test_ideal_flags_match_definitions(A):
    elems = pmv.carrier(A)
    for info in ideals.enumerate_ideals(A):
        s = info.members
        normal = all(
            {pmv.oplus(x, i) for i in s} == {pmv.oplus(i, x) for i in s}
            for x in elems
        )
        prime = all(
            pmv.meet(x, y) not in s or x in s or y in s
            for x, y in itertools.combinations(elems, 2)
        )
        boolean_ideal = all(pmv.meet(x, pmv.lneg(x)) in s for x in elems)
        assert info.is_normal == normal
        assert info.is_prime == prime
        assert info.is_boolean_ideal == boolean_ideal


def test_prime_iff_quotient_linear():
    for A in small_corpus():
        for info in ideals.enumerate_ideals(A):
            if not (info.is_proper and info.is_normal):
                continue
            Q, _ = ideals.quotient(A, info.members)
            linear = all(
                pmv.leq(x, y) or pmv.leq(y, x)
                for x, y in itertools.combinations(pmv.carrier(Q), 2)
            )
            assert info.is_prime == linear


def test_boolean_flag_iff_quotient_boolean():
    for A in small_corpus():
        for info in ideals.enumerate_ideals(A):
            if not info.is_normal:
                continue
            Q, _ = ideals.quotient(A, info.members)
            assert info.is_boolean_ideal == all(
                pmv.is_boolean_elem(x) for x in pmv.carrier(Q)
            )


# --- quotients ---------------------------------------------------------------------


def test_quotient_shapes():
    P = pmv.finite_product([M(2), M(3)])
    by_top = {pmv.value_of(i.top): i for i in ideals.enumerate_ideals(P)}
    Q1, proj1 = ideals.quotient(P, by_top[(Fraction(1), Fraction(0))].members)
    assert are_isomorphic(Q1, M(3))
    Q2, _ = ideals.quotient(P, by_top[(Fraction(0), Fraction(1))].members)
    assert are_isomorphic(Q2, M(2))
    Qz, _ = ideals.quotient(P, by_top[(Fraction(0), Fraction(0))].members)
    assert are_isomorphic(Qz, P)
    Qf, _ = ideals.quotient(P, by_top[(Fraction(1), Fraction(1))].members)
    assert Qf.size == 1
    # projection is onto
    assert len(set(proj1.values())) == Q1.size


def test_quotient_rejects_a_set_that_is_not_an_ideal():
    P = pmv.finite_product([M(1), M(2)])
    Q = M(3)
    half, one = pmv.element_of(P, (Fraction(0), Fraction(1, 2))), pmv.element_of(P, (Fraction(0), Fraction(1)))
    cases = [
        (frozenset(), "the set is empty"),
        (frozenset({half}), "the join (0,1/2) of its members is not idempotent"),
        (frozenset({pmv.zero_elem(P), one}), "it misses elements below the join (0,1) of its members"),
        (frozenset({pmv.zero_elem(Q)}), "the set holds elements of another algebra"),
    ]
    for members, why in cases:
        with pytest.raises(ParameterError, match=rf"^not an ideal: {re.escape(why)}$"):
            ideals.quotient(P, members)


def test_quotient_labels_print_values_as_written():
    P = pmv.finite_product([M(1), M(2)])
    by_top = {pmv.value_of(i.top): i for i in ideals.enumerate_ideals(P)}
    Q, _ = ideals.quotient(P, by_top[(Fraction(1), Fraction(0))].members)
    assert Q.values == ("[(0,0)]", "[(0,1/2)]", "[(0,1)]")
    # a quotient of a quotient keeps the labels as they are
    Q2, _ = ideals.quotient(Q, frozenset({pmv.zero_elem(Q)}))
    assert Q2.values == ("[[(0,0)]]", "[[(0,1/2)]]", "[[(0,1)]]")


# --- prime partitions and BSI ---------------------------------------------------------


def test_partition_chain_m3():
    part = ideals.partition_primes(M(3))
    assert part.x1 == ()
    assert len(part.x2) == 1
    assert part.x2[0].members == frozenset({pmv.zero_elem(M(3))})
    assert part.i1 == frozenset(pmv.carrier(M(3)))
    assert part.i2 == frozenset({pmv.zero_elem(M(3))})


def test_partition_boolean_chain():
    part = ideals.partition_primes(M(1))
    assert len(part.x1) == 1 and part.x2 == ()
    assert part.i1 == frozenset({pmv.zero_elem(M(1))})
    assert part.i2 == frozenset(pmv.carrier(M(1)))


def test_partition_product_law():
    # I1 and I2 of a product are the products of the factor ideals
    A = pmv.finite_product([M(1), M(4)])
    part = ideals.partition_primes(A)
    i1_vals = {pmv.value_of(x) for x in part.i1}
    i2_vals = {pmv.value_of(x) for x in part.i2}
    assert i1_vals == {(Fraction(0), Fraction(k, 4)) for k in range(5)}
    assert i2_vals == {(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))}


def test_bsi_matrix():
    assert not ideals.is_bsi(M(1))
    for n in (2, 3, 4, 5, 6):
        assert ideals.is_bsi(M(n)), n
    assert ideals.is_bsi(pmv.finite_product([M(2), M(3)]))
    assert ideals.is_bsi(pmv.finite_product([M(4), M(6)]))
    assert not ideals.is_bsi(pmv.finite_product([M(1), M(4)]))
    assert not ideals.is_bsi(pmv.finite_product([M(1), M(1)]))


def test_normal_primes_rejects_degenerate():
    P = pmv.finite_product([M(1)])
    Q, _ = ideals.quotient(P, frozenset(pmv.carrier(P)))
    assert Q.size == 1
    for query in (ideals.normal_primes, ideals.partition_primes, ideals.is_bsi, ideals.nn12_element,
                  ideals.root_map_ideals):
        with pytest.raises(ParameterError):
            query(Q)


def test_ideal_queries_take_the_algebra_alone():
    # each query reads what it needs off the algebra; none is passed a
    # result its caller computed
    for query in (roots.sqrt_map, ideals.enumerate_ideals, ideals.normal_primes, ideals.partition_primes,
                  ideals.is_bsi, ideals.nn12_element, ideals.root_map_ideals):
        assert list(inspect.signature(query).parameters) == ["M"], query.__name__


# --- splitting element -------------------------------------------------------------------


def test_nn12_values():
    assert pmv.value_of(ideals.nn12_element(M(3))) == Fraction(0)
    assert pmv.value_of(ideals.nn12_element(M(1))) == Fraction(1)
    P = pmv.finite_product([M(1), M(4)])
    assert pmv.value_of(ideals.nn12_element(P)) == (Fraction(1), Fraction(0))


def test_nn12_splits_both_intersections():
    for A in small_corpus():
        a = ideals.nn12_element(A)
        part = ideals.partition_primes(A)
        assert part.i2 == frozenset(x for x in pmv.carrier(A) if pmv.leq(x, a))
        assert part.i1 == frozenset(
            x for x in pmv.carrier(A) if pmv.leq(x, pmv.lneg(a))
        )
        assert pmv.is_boolean_elem(a)


# --- strict ideals and the w-decomposition --------------------------------------------------


def test_strict_square_ideals_boolean():
    B = pmv.finite_product([M(1), M(1)])
    report = ideals.root_map_ideals(B)
    assert roots.sqrt_map(B).w == report.least_strict_top == pmv.one_elem(B)
    assert report.least_boolean_top == pmv.zero_elem(B)
    assert not report.strict_map
    assert report.i1_equals_least_boolean
    assert report.i2_equals_least_strict


def test_strict_square_ideals_needs_map():
    with pytest.raises(UnsupportedOperationError):
        ideals.root_map_ideals(M(2))


def test_w_decomposition_boolean_algebras():
    for A in (M(1), pmv.finite_product([M(1), M(1)]), pmv.finite_product([M(1), M(1), M(1)])):
        assert ideals.root_map_ideals(A).w_split == ideals.WSplit(A.size, 1, True, True, True)
        B, S, mapping, flags = w_split(A)
        assert all(flags)
        assert (B.size, S.size) == (A.size, 1)
        assert len(set(mapping.values())) == A.size


def test_w_decomposition_needs_map():
    with pytest.raises(UnsupportedOperationError):
        ideals.root_map_ideals(M(4))


# --- size guard ------------------------------------------------------------------------------


def test_max_carrier_is_the_one_size_guard_of_ideal_enumeration():
    # 2^k ideals with prod(n_i + 2) members in all: 4 and 90 on M(8) x M(7),
    # 1,024 and 3^10 on ten copies of M(1)
    assert len(ideals.enumerate_ideals(pmv.finite_product([M(8), M(7)]))) == 4
    boolean = pmv.finite_product([M(1)] * 10)
    assert boolean.size == pmv.MAX_CARRIER == 1024
    found = ideals.enumerate_ideals(boolean)
    assert len(found) == 1024 and sum(len(i.members) for i in found) == 3**10
    assert len(ideals.enumerate_ideals(M(1023))) == 2
    with pytest.raises(ResourceLimitError):
        M(1024)
    with pytest.raises(ResourceLimitError):
        pmv.finite_product([M(4), M(204)])
