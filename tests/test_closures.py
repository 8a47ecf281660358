"""Tests for strict and square-root closures, the reachability criterion,
and the doubled-decomposition."""

import random
from fractions import Fraction

import pytest

from pmvroots import closures as cl
from pmvroots import dsl
from pmvroots import ogroups as og
from pmvroots import pmv
from pmvroots import scalars as S
from pmvroots.errors import CarrierError, ParameterError, UnsupportedOperationError

ALPHA = S.QuadValue.make(Fraction(-1), Fraction(1), 2)
M = pmv.finite_mv_chain


# --- strict closure catalog -----------------------------------------------------


def test_strict_closure_scaled_int():
    cases = {1: 1, 2: 1, 3: 3, 4: 1, 6: 3, 12: 3, 5: 5, 7: 7, 40: 5}
    for n, q in cases.items():
        c = cl.strict_closure(og.ScaledInt(n))
        assert c.kind == "strict"
        (f,) = c.factors
        assert f.base == og.ScaledInt(n)
        assert f.closed == og.ScaledDyadic(q)


def test_strict_closure_fixed_families():
    for desc in (og.ScaledDyadic(1), og.ScaledDyadic(5), og.Rationals(),
                 og.QuadLattice(ALPHA, True), og.Twist4("D"), og.Twist4("Q")):
        (f,) = cl.strict_closure(desc).factors
        assert f.closed == desc


def test_strict_closure_quad_and_twist4():
    (f,) = cl.strict_closure(og.QuadLattice(ALPHA, False)).factors
    assert f.closed == og.QuadLattice(ALPHA, True)
    (g,) = cl.strict_closure(og.Twist4("Z")).factors
    assert g.closed == og.Twist4("D")


def test_strict_closure_lex_componentwise():
    (f,) = cl.strict_closure(og.Lex(og.ScaledInt(1), og.ScaledInt(6))).factors
    assert f.closed == og.Lex(og.ScaledDyadic(1), og.ScaledDyadic(3))


def test_strict_closure_product_factorwise():
    c = cl.strict_closure(
        og.ProductGroup((og.ScaledInt(2), og.ScaledInt(3), og.ScaledInt(4)))
    )
    assert [f.closed for f in c.factors] == [
        og.ScaledDyadic(1),
        og.ScaledDyadic(3),
        og.ScaledDyadic(1),
    ]
    assert c.closed_descriptor() == og.ProductGroup(
        (og.ScaledDyadic(1), og.ScaledDyadic(3), og.ScaledDyadic(1))
    )


def test_strict_closure_twist3_unsupported():
    with pytest.raises(UnsupportedOperationError):
        cl.strict_closure(og.Twist3("Z"))


def test_strict_closure_input_forms_agree():
    a = cl.strict_closure(M(6))
    b = cl.strict_closure(pmv.GammaAlgebra(og.ScaledInt(6)))
    c = cl.strict_closure(og.ScaledInt(6))
    assert a == b == c


def test_strict_closure_closed_is_two_divisible():
    for m in (M(1), M(5), pmv.finite_product([M(2), M(3)]),
              pmv.GammaAlgebra(og.Twist4("Z")),
              pmv.GammaAlgebra(og.QuadLattice(ALPHA, False))):
        c = cl.strict_closure(m)
        assert c.closed_descriptor().two_divisible


def strict_closure_idempotence_check(M) -> bool:
    """Closing twice changes nothing."""
    once = cl.strict_closure(M)
    twice = cl.strict_closure(once.closed_descriptor())
    return tuple(f.closed for f in once.factors) == tuple(f.closed for f in twice.factors)


def test_strict_closure_idempotent():
    for m in (M(1), M(6), pmv.finite_product([M(1), M(4)]),
              pmv.GammaAlgebra(og.Twist4("Z"))):
        assert strict_closure_idempotence_check(m)


def test_descriptor_text_and_json():
    c = cl.strict_closure(pmv.finite_product([M(4), M(6)]))
    text = c.to_text()
    assert text.startswith("strict[")
    assert "Z/4 -> D/1" in text and "Z/6 -> D/3" in text
    blob = c.to_json()
    assert blob["kind"] == "strict"
    assert blob["embedding"] == "coordinatewise inclusion"
    assert {f["root"] for f in blob["factors"]} == {"half_shift"}


def test_descriptor_algebras():
    c = cl.strict_closure(M(6))
    base = c.base_algebra()
    closed = c.closed_algebra()
    assert isinstance(base, pmv.GammaAlgebra) and base.desc == og.ScaledInt(6)
    assert closed.desc == og.ScaledDyadic(3)


# --- reachability criterion ---------------------------------------------------------


def catalog_pairs():
    return [
        (og.ScaledInt(1), og.ScaledDyadic(1)),
        (og.ScaledInt(6), og.ScaledDyadic(3)),
        (og.ScaledInt(7), og.ScaledDyadic(7)),
        (og.ScaledDyadic(3), og.ScaledDyadic(3)),
        (og.Rationals(), og.Rationals()),
        (og.QuadLattice(ALPHA, False), og.QuadLattice(ALPHA, True)),
        (og.Lex(og.ScaledInt(1), og.ScaledInt(1)), og.Lex(og.ScaledDyadic(1), og.ScaledDyadic(1))),
        (og.Twist4("Z"), og.Twist4("D")),
        (og.ProductGroup((og.ScaledInt(2), og.ScaledInt(3))),
         og.ProductGroup((og.ScaledDyadic(1), og.ScaledDyadic(3)))),
    ]


@pytest.mark.parametrize("base,closed", catalog_pairs(),
                         ids=lambda p: type(p).__name__ if not isinstance(p, tuple) else None)
def test_crit_positive(base, closed):
    res = cl.crit_check(base, closed, samples=40, seed=9)
    assert res.ok, res.detail
    assert res.counterexample is None
    assert res.samples_checked == 40
    assert res.max_exponent_seen >= 0


@pytest.mark.parametrize("group", [
    og.ScaledInt(1),
    og.ScaledInt(6),
    og.ScaledDyadic(3),
    og.Rationals(),
    og.QuadLattice(ALPHA, False),
    og.QuadLattice(ALPHA, True),
    og.Lex(og.ScaledInt(1), og.ScaledInt(3)),
    og.Twist4("Z"),
    og.Twist4("D"),
    og.ProductGroup((og.ScaledInt(1), og.ScaledDyadic(3))),
], ids=dsl.format_group)
def test_crit_certifies_a_group_as_its_own_closure(group):
    # every element is already in the base: exponent 0 on every sample
    res = cl.crit_check(group, group)
    assert res.ok, res.detail
    assert (res.samples_checked, res.max_exponent_seen) == (60, 0)


@pytest.mark.parametrize("target", ["M(1)", "prod(M(1),M(4))", "gamma(prod(Z/1,Z/3))"])
def test_sqrt_closure_with_a_boolean_factor_is_certified(target):
    # the identity factor Z/1 -> Z/1 of a Boolean chain is certified, not
    # refused with 0 samples
    C = cl.sqrt_closure(dsl.parse_algebra(target))
    assert cl.IDENTITY in {f.root for f in C.factors}
    res = cl.crit_check(C)
    assert res.ok, res.detail
    assert res.samples_checked == 60


def test_crit_accepts_descriptor():
    res = cl.crit_check(cl.strict_closure(M(6)))
    assert res.ok


def test_crit_planted_negative():
    res = cl.crit_check(og.ScaledInt(2), og.ScaledDyadic(3))
    assert not res.ok
    h = res.counterexample
    assert h == Fraction(1, 3)
    # genuinely unreachable: no doubling lands in (1/2)Z
    for n in range(30):
        assert not og.ScaledInt(2).contains(Fraction(2**n) * h)


def test_crit_without_certificate_reports_a_reachable_pair():
    # every dyadic already lies in Q, but no symbolic certificate covers the pair
    res = cl.crit_check(og.Rationals(), og.ScaledDyadic(1))
    assert not res.ok
    assert res.detail == "no symbolic certificate covers this base/closure pair"
    assert res.counterexample is None


def test_crit_negative_on_containment_failure():
    res = cl.crit_check(og.ScaledDyadic(1), og.ScaledDyadic(3))
    assert not res.ok
    assert res.counterexample is not None


def test_twist4_doubling_exponent_oracle():
    # 2^n-fold sums in the twisted Z^4 pick up a b*c correction in the last
    # coordinate; check the minimal exponent by direct iteration.
    base = og.Twist4("Z")
    closed = og.Twist4("D")
    h = og.member(closed, (Fraction(1, 2), Fraction(3, 4), Fraction(5, 8), Fraction(7, 16)))

    def minimal_exponent(x):
        for n in range(0, 12):
            if base.contains(closed.mul(2**n, x)):
                return n
        return None

    assert minimal_exponent(h) == 6  # dyadic_exponent(3/4 * 5/8) + 1
    simple = og.member(closed, (Fraction(1, 2), Fraction(0), Fraction(5, 8), Fraction(0)))
    assert minimal_exponent(simple) == 3
    rng = random.Random(4)
    for _ in range(25):
        n = minimal_exponent(closed.random(rng, 3, 4))
        assert n is not None
    res = cl.crit_check(base, closed, samples=50, seed=12)
    assert res.ok
    assert res.max_exponent_seen >= 1


# --- doubled decomposition ------------------------------------------------------------


def test_corrdp_spot_values():
    c1 = cl.strict_closure(M(1))
    A1 = c1.closed_algebra()
    dec = cl.corrdp_decompose(c1, pmv.element_of(A1, Fraction(3, 4)))
    assert dec.n == 2
    assert [pmv.value_of(p) for p in dec.parts] == [Fraction(1), Fraction(1), Fraction(1), Fraction(0)]
    assert dec.minimal

    c6 = cl.strict_closure(M(6))
    A6 = c6.closed_algebra()
    d0 = cl.corrdp_decompose(c6, pmv.element_of(A6, Fraction(5, 6)))
    assert d0.n == 0 and [pmv.value_of(p) for p in d0.parts] == [Fraction(5, 6)]
    d1 = cl.corrdp_decompose(c6, pmv.element_of(A6, Fraction(5, 12)))
    assert d1.n == 1
    assert [pmv.value_of(p) for p in d1.parts] == [Fraction(5, 6), Fraction(0)]


def test_corrdp_round_trip_random():
    rng = random.Random(21)
    for c in (cl.strict_closure(M(1)), cl.strict_closure(M(6))):
        A = c.closed_algebra()
        base = c.base_descriptor()
        for _ in range(120):
            v = Fraction(rng.randint(0, 2**rng.randint(0, 8)), 2**8)
            v = min(v, Fraction(1))
            if base == og.ScaledInt(6):
                v = v / 3 if rng.random() < 0.4 else v
            x = pmv.element_of(A, v)
            dec = cl.corrdp_decompose(c, x)
            assert len(dec.parts) == 2**dec.n
            total = A.desc.zero()
            for p in dec.parts:
                assert base.contains(pmv.value_of(p))
                total = A.desc.add(total, og.member(A.desc, pmv.value_of(p)))
            assert total == A.desc.mul(2**dec.n, og.member(A.desc, v))
            if dec.n > 0:
                assert not base.contains(Fraction(2 ** (dec.n - 1)) * v)
                assert dec.minimal
            else:
                assert dec.minimal


def test_corrdp_rejects_foreign_element():
    c = cl.strict_closure(M(1))
    other = pmv.GammaAlgebra(og.ScaledDyadic(3))
    with pytest.raises((CarrierError, ParameterError)):
        cl.corrdp_decompose(c, pmv.element_of(other, Fraction(1, 3)))


def test_corrdp_needs_abelian_base():
    c = cl.strict_closure(pmv.GammaAlgebra(og.Twist4("Z")))
    A = c.closed_algebra()
    x = pmv.element_of(A, (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)))
    with pytest.raises((ParameterError, UnsupportedOperationError)):
        cl.corrdp_decompose(c, x)


# --- square roots inside a closure -------------------------------------------------------


def test_closure_sqrt_scalar():
    c = cl.strict_closure(M(6))
    A = c.closed_algebra()
    x = pmv.element_of(A, Fraction(5, 6))
    r = cl.closure_sqrt(c, x)
    assert pmv.value_of(r) == Fraction(11, 12)
    assert pmv.odot(r, r) == x


def test_closure_sqrt_mixed_product():
    d = cl.sqrt_closure(pmv.finite_product([M(1), M(4)]))
    A = d.closed_algebra()
    # factor order follows the skeleton atoms: the 4-chain factor first
    x = pmv.element_of(A, (Fraction(3, 4), Fraction(1)))
    r = cl.closure_sqrt(d, x)
    assert pmv.value_of(r) == (Fraction(7, 8), Fraction(1))
    assert pmv.odot(r, r) == x
    z = pmv.element_of(A, (Fraction(0), Fraction(0)))
    rz = cl.closure_sqrt(d, z)
    assert pmv.value_of(rz) == (Fraction(1, 2), Fraction(0))


def test_closure_sqrt_random_round_trip():
    rng = random.Random(33)
    c = cl.strict_closure(M(1))
    A = c.closed_algebra()
    for _ in range(100):
        v = Fraction(rng.randint(0, 256), 256)
        x = pmv.element_of(A, v)
        r = cl.closure_sqrt(c, x)
        assert pmv.odot(r, r) == x
        assert pmv.value_of(r) == (v + 1) / 2


# --- square-root closure case analysis ------------------------------------------------------


def test_sqrt_closure_boolean_identity():
    for m in (M(1), pmv.finite_product([M(1), M(1)])):
        d = cl.sqrt_closure(m)
        assert isinstance(d, cl.ClosureDescriptor)
        assert d.kind == "sqrt"
        for f in d.factors:
            assert f.root == cl.IDENTITY
            assert f.base == f.closed == og.ScaledInt(1)


def test_sqrt_closure_strict_case():
    for m, expected in (
        (M(3), [og.ScaledDyadic(3)]),
        (M(5), [og.ScaledDyadic(5)]),
        (pmv.finite_product([M(2), M(3)]), [og.ScaledDyadic(1), og.ScaledDyadic(3)]),
        (pmv.finite_product([M(4), M(6)]), [og.ScaledDyadic(1), og.ScaledDyadic(3)]),
    ):
        d = cl.sqrt_closure(m)
        assert isinstance(d, cl.ClosureDescriptor)
        assert d.kind == "sqrt"
        assert sorted((f.closed for f in d.factors), key=repr) == sorted(expected, key=repr)
        assert {f.root for f in d.factors} == {cl.HALF_SHIFT}
        # agrees with the strict closure in this case
        strict = cl.strict_closure(m)
        assert sorted((f.closed for f in d.factors), key=repr) == sorted(
            (f.closed for f in strict.factors), key=repr
        )


def test_sqrt_closure_mixed_case():
    d = cl.sqrt_closure(pmv.finite_product([M(1), M(4)]))
    assert isinstance(d, cl.ClosureDescriptor)
    roots = {(repr(f.base), f.root) for f in d.factors}
    assert (repr(og.ScaledInt(1)), cl.IDENTITY) in roots
    assert (repr(og.ScaledInt(4)), cl.HALF_SHIFT) in roots


def test_sqrt_closure_gamma_families():
    (f,) = cl.sqrt_closure(pmv.GammaAlgebra(og.Twist4("Z"))).factors
    assert f.closed == og.Twist4("D")
    (q,) = cl.sqrt_closure(pmv.GammaAlgebra(og.QuadLattice(ALPHA, False))).factors
    assert q.closed == og.QuadLattice(ALPHA, True)
    with pytest.raises(UnsupportedOperationError):
        cl.sqrt_closure(pmv.GammaAlgebra(og.Twist3("Z")))


def test_sqrt_closure_lex_is_strict_case():
    lex = pmv.GammaAlgebra(og.Lex(og.ScaledInt(1), og.ScaledInt(1)))
    d = cl.sqrt_closure(lex)
    assert isinstance(d, cl.ClosureDescriptor)
    (f,) = d.factors
    assert f.closed == og.Lex(og.ScaledDyadic(1), og.ScaledDyadic(1))


def test_sqrt_closure_open_problem_value():
    lex = pmv.GammaAlgebra(og.Lex(og.ScaledInt(1), og.ScaledInt(1)))
    mixed = pmv.product([M(1), lex])
    out = cl.sqrt_closure(mixed)
    assert isinstance(out, cl.OpenProblem)
    assert "nonzero" in out.explanation
    assert out.factor_reports


# --- the finite case analysis as the oracle of the group path --------------------------


def sqrt_closure_by_partition(A):
    """Cases (i)-(iii) decided on the carrier: prime partition, splitting element.

    Chains below a stay as they are (Boolean), the others close strictly:
    a = 1 in case (i), 0 in case (ii), the splitting element in case (iii).
    """
    from pmvroots import ideals

    part = ideals.partition_primes(A)
    zero_only = frozenset({pmv.zero_elem(A)})
    if part.i1 == zero_only:
        case, a = "i", pmv.one_elem(A)
    elif part.i2 == zero_only:
        case, a = "ii", pmv.zero_elem(A)
    else:
        case, a = "iii", ideals.nn12_element(A)
    out = []
    for atom, n in pmv.chain_decomposition(A):
        if pmv.leq(atom, a):
            assert n == 1, "the atoms below the splitting element bound Boolean intervals"
            out.append(cl.FactorClosure(og.ScaledInt(1), og.ScaledInt(1), cl.IDENTITY))
        else:
            closed = og.ScaledDyadic(S.odd_part(n))
            out.append(cl.FactorClosure(og.ScaledInt(n), closed, cl.HALF_SHIFT))
    return case, cl.ClosureDescriptor("sqrt", tuple(out))


def chain_multisets(limit, least=1):
    """Non-decreasing chain lengths whose product has at most ``limit`` elements."""
    yield ()
    for n in range(least, limit):
        for rest in chain_multisets(limit // (n + 1), n):
            yield (n,) + rest


SMALL_CHAIN_PRODUCTS = [m for m in chain_multisets(32) if m]


def test_chain_multisets_cover_every_product_up_to_32():
    assert len(SMALL_CHAIN_PRODUCTS) == 77


@pytest.mark.parametrize("lengths", SMALL_CHAIN_PRODUCTS, ids=str)
def test_sqrt_closure_matches_the_partition_oracle(lengths):
    A = pmv.finite_product([M(n) for n in lengths])
    _, expected = sqrt_closure_by_partition(A)
    assert cl.sqrt_closure(A) == expected


# reordered, nested and interval(...)-cut presentations
PRESENTATIONS = [
    "prod(M(4),M(1))",
    "prod(M(1),M(3),M(1))",
    "prod(M(2),prod(M(1),M(1)))",
    "prod(prod(M(3),M(1)),M(2))",
    "interval(prod(M(1),M(4)),(1,0))",  # case (i): only the Boolean chain is kept
    "interval(prod(M(1),M(4)),(0,1))",  # case (ii): only the 4-chain is kept
    "interval(prod(M(1),M(1),M(3)),(1,0,1))",  # case (iii)
    "interval(prod(M(2),M(1),M(1)),(1,1,1))",  # case (iii), the whole algebra
    "interval(prod(M(1),M(2),M(3)),(0,1,1))",  # case (ii)
]


@pytest.mark.parametrize("text", PRESENTATIONS)
def test_sqrt_closure_matches_the_oracle_on_other_presentations(text):
    A = dsl.parse_algebra(text)
    _, expected = sqrt_closure_by_partition(A)
    assert cl.sqrt_closure(A) == expected


def test_oracle_presentations_hit_every_case():
    cases = {sqrt_closure_by_partition(dsl.parse_algebra(t))[0] for t in PRESENTATIONS}
    assert cases == {"i", "ii", "iii"}


def test_sqrt_closure_degenerate_rejected():
    from pmvroots import ideals
    P = pmv.finite_product([M(1)])
    Q, _ = ideals.quotient(P, frozenset(pmv.carrier(P)))
    with pytest.raises(ParameterError):
        cl.sqrt_closure(Q)


def test_both_closures_reject_the_one_element_algebra_alike():
    A = dsl.parse_algebra("interval(M(1),0)")
    assert A.size == 1
    for closure in (cl.strict_closure, cl.sqrt_closure):
        with pytest.raises(ParameterError, match="^the one-element algebra is excluded$"):
            closure(A)


def test_minimal_two_divisible_certificate():
    report = cl.minimal_two_divisible_check(samples=25, seed=3)
    assert report["axis_halving_chains_in_closure"]
    assert report["decomposition_identity_ok"]
    assert report["criterion_ok"]
    assert report["minimal"]
