"""Tests for the ordered-group layer: the payload laws of each descriptor
(arithmetic, order, halving, units) and the module functions on payloads."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvroots import dsl
from pmvroots import ogroups as og
from pmvroots import pmv
from pmvroots import scalars as S
from pmvroots.errors import CarrierError, InternalError, PmvError

ALPHA = S.QuadValue.make(Fraction(-1), Fraction(1), 2)  # sqrt(2) - 1


def all_descriptors():
    return [
        og.ScaledInt(1),
        og.ScaledInt(4),
        og.ScaledDyadic(1),
        og.ScaledDyadic(3),
        og.Rationals(),
        og.QuadLattice(ALPHA, False),
        og.QuadLattice(ALPHA, True),
        og.Lex(og.ScaledInt(1), og.ScaledInt(1)),
        og.Lex(og.ScaledInt(2), og.ScaledDyadic(1)),
        og.Twist3("Z"),
        og.Twist3("D"),
        og.Twist4("Z"),
        og.Twist4("Q"),
        og.ProductGroup((og.ScaledInt(2), og.ScaledInt(3))),
        og.ProductGroup((og.ScaledDyadic(1), og.Lex(og.ScaledInt(1), og.ScaledInt(1)))),
    ]


def desc_id(desc):
    return type(desc).__name__ + repr(getattr(desc, "n", getattr(desc, "q", "")))


def sample(desc, rng, count=40):
    return [desc.random(rng, 5, 4) for _ in range(count)]


def leq(desc, p, q):
    c = desc.cmp(p, q)
    return c is not None and c <= 0


def box3(radius):
    rng = range(-radius, radius + 1)
    return [tuple(map(Fraction, t)) for t in itertools.product(rng, repeat=3)]


def box4(radius):
    rng = range(-radius, radius + 1)
    return [tuple(map(Fraction, t)) for t in itertools.product(rng, repeat=4)]


# --- group axioms -----------------------------------------------------------


@pytest.mark.parametrize("desc", all_descriptors(), ids=desc_id)
def test_group_axioms_random(desc):
    rng = random.Random(7)
    elems = sample(desc, rng, 25)
    z = desc.zero()
    for x in elems:
        assert desc.add(x, z) == x
        assert desc.add(z, x) == x
        assert desc.add(x, desc.neg(x)) == z
        assert desc.add(desc.neg(x), x) == z
    for x, y, w in zip(elems, elems[1:], elems[2:]):
        assert desc.add(desc.add(x, y), w) == desc.add(x, desc.add(y, w))


def test_abelian_flags_and_witnesses():
    rng = random.Random(13)
    for desc in all_descriptors():
        elems = sample(desc, rng, 30)
        found_noncomm = any(
            desc.add(x, y) != desc.add(y, x)
            for x, y in itertools.combinations(elems, 2)
        )
        if desc.abelian:
            assert not found_noncomm
        else:
            assert found_noncomm, f"{desc} marked non-abelian but no witness found"


def test_twist3_cocycle_formula():
    desc = og.Twist3("Z")
    for p in box3(2):
        for q in box3(1):
            got = desc.add(og.member(desc, p), og.member(desc, q))
            expected = (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])
            assert got == expected


def test_twist4_cocycle_formula():
    desc = og.Twist4("Z")
    for p in box4(1):
        for q in box4(1):
            got = desc.add(og.member(desc, p), og.member(desc, q))
            expected = (p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3] + p[1] * q[2])
            assert got == expected


def test_twist_negation_formulas():
    t3 = og.Twist3("Z")
    for p in box3(2):
        got = t3.neg(og.member(t3, p))
        assert got == (-p[0], -p[1], -p[2] + p[0] * p[1])
        assert t3.add(og.member(t3, p), og.member(t3, got)) == t3.zero()
    t4 = og.Twist4("Z")
    for p in box4(1):
        got = t4.neg(og.member(t4, p))
        assert got == (-p[0], -p[1], -p[2], -p[3] + p[1] * p[2])
        assert t4.add(og.member(t4, p), og.member(t4, got)) == t4.zero()


def _leaf_types(payload):
    return [type(c) for c in _leaves(payload)]


def test_mul_matches_repeated_addition():
    rng = random.Random(19)
    for desc in all_descriptors():
        for x in sample(desc, rng, 4):
            acc = desc.zero()
            for k in range(2**8 + 1):
                got = desc.mul(k, x)
                assert got == acc, (desc, x, k)
                # int coordinates for Z-tagged twisted groups, Fractions otherwise
                assert _leaf_types(got) == _leaf_types(acc), (desc, k)
                acc = desc.add(acc, x)


def binary_mul(desc, k, x):
    """The k-fold sum, k >= 0, by the binary method: about log2(k) additions."""
    acc = None
    while k:
        if k & 1:
            acc = x if acc is None else desc.add(acc, x)
        k >>= 1
        if k:
            x = desc.add(x, x)
    return desc.zero() if acc is None else acc


def test_mul_matches_the_binary_method_at_large_k():
    rng = random.Random(23)
    for desc in all_descriptors():
        for x in sample(desc, rng, 4):
            for k in (2**40, 2**40 + 3, 3**30, 2**33, 5**20 + 1):
                got, want = desc.mul(k, x), binary_mul(desc, k, x)
                assert got == want, (desc, x, k)
                assert _leaf_types(got) == _leaf_types(want), (desc, k)


def test_mul_makes_no_group_addition(monkeypatch):
    calls = []
    laws = [c for c in vars(og).values() if isinstance(c, type) and issubclass(c, og.GroupDescriptor)]
    for cls in [c for c in laws if "add" in vars(c)]:
        add = vars(cls)["add"]
        monkeypatch.setattr(cls, "add", lambda self, p, q, add=add: calls.append(1) or add(self, p, q))
    for desc in all_descriptors():
        u = desc.unit()
        for k in (0, 1, 2, 3, 2**8, 2**8 + 1):
            desc.mul(k, u)
    assert not calls
    og.Rationals().add(Fraction(1), Fraction(2))
    assert calls  # the patch took


# --- order and lattice laws -------------------------------------------------


def test_linear_flags():
    for desc in all_descriptors():
        assert desc.linear == (not isinstance(desc, og.ProductGroup))


@pytest.mark.parametrize("desc", all_descriptors(), ids=desc_id)
def test_order_translation_invariance(desc):
    rng = random.Random(23)
    elems = sample(desc, rng, 15)
    for x, y in itertools.combinations(elems, 2):
        if leq(desc, x, y):
            for a in elems[:5]:
                assert leq(desc, desc.add(a, x), desc.add(a, y))
                assert leq(desc, desc.add(x, a), desc.add(y, a))


@pytest.mark.parametrize("desc", all_descriptors(), ids=desc_id)
def test_meet_join_are_bounds(desc):
    rng = random.Random(29)
    elems = sample(desc, rng, 12)
    for x, y in itertools.combinations(elems, 2):
        m = desc.meet(x, y)
        j = desc.join(x, y)
        assert leq(desc, m, x) and leq(desc, m, y)
        assert leq(desc, x, j) and leq(desc, y, j)
        # greatest lower / least upper among sampled candidates
        for c in elems:
            if leq(desc, c, x) and leq(desc, c, y):
                assert leq(desc, c, m)
            if leq(desc, x, c) and leq(desc, y, c):
                assert leq(desc, j, c)


def test_cmp_trichotomy_linear():
    rng = random.Random(31)
    for desc in all_descriptors():
        if not desc.linear:
            continue
        elems = sample(desc, rng, 15)
        for x, y in itertools.combinations(elems, 2):
            c = desc.cmp(x, y)
            assert c in (-1, 0, 1)
            assert (c == 0) == (x == y)
            assert leq(desc, x, y) == (c <= 0)


def test_product_incomparable_pairs():
    desc = og.ProductGroup((og.ScaledInt(1), og.ScaledInt(1)))
    x = og.member(desc, (Fraction(1), Fraction(0)))
    y = og.member(desc, (Fraction(0), Fraction(1)))
    assert desc.cmp(x, y) is None
    assert not leq(desc, x, y) and not leq(desc, y, x)
    assert desc.meet(x, y) == desc.zero()
    assert desc.join(x, y) == og.member(desc, (Fraction(1), Fraction(1)))


def test_lex_order_oracle():
    desc = og.Lex(og.ScaledInt(1), og.ScaledInt(1))
    vals = [tuple(map(Fraction, t)) for t in itertools.product(range(-2, 3), repeat=2)]
    for p in vals:
        for q in vals:
            expected = p[0] < q[0] or (p[0] == q[0] and p[1] <= q[1])
            assert leq(desc, og.member(desc, p), og.member(desc, q)) == expected


def test_twist3_order_oracle():
    # The twisted order compares (a, b) lexicographically and then the
    # last coordinate; verify against the positive-cone description by
    # checking translation-invariant comparison on a box.
    desc = og.Twist3("Z")
    for p in box3(1):
        for q in box3(1):
            d = desc.add(og.member(desc, q), desc.neg(og.member(desc, p)))
            expected = (
                d[0] > 0
                or (d[0] == 0 and d[1] > 0)
                or (d[0] == 0 and d[1] == 0 and d[2] >= 0)
            )
            assert leq(desc, og.member(desc, p), og.member(desc, q)) == expected


def test_quad_lattice_order_oracle():
    desc = og.QuadLattice(ALPHA, False)
    coords = [tuple(map(Fraction, t)) for t in itertools.product(range(-3, 4), repeat=2)]
    for p in coords:
        for q in coords:
            lhs = S.QuadValue.make(p[0]) + ALPHA.scale(p[1])
            rhs = S.QuadValue.make(q[0]) + ALPHA.scale(q[1])
            assert leq(desc, og.member(desc, p), og.member(desc, q)) == (lhs <= rhs)


# --- units, halving, bounds ---------------------------------------------------


def test_unit_centrality():
    for desc in all_descriptors():
        central, witness = og.is_unit_central(desc)
        if isinstance(desc, og.Twist3):
            assert not central and witness is not None
            u = desc.unit()
            assert desc.add(u, witness) != desc.add(witness, u)
        else:
            assert central and witness is None


def test_noncentral_witness_through_composites():
    # only a lexicographic head carries the unit, so a twisted tail stays central
    t3 = og.Twist3("Z")
    cases = [
        (og.Lex(t3, og.ScaledInt(1)), "((0,1,0),0)"),
        (og.Lex(og.ScaledInt(1), t3), None),
        (og.ProductGroup((og.ScaledInt(1), t3, og.Twist3("D"))), "(0,(0,1,0),(0,0,0))"),
        (og.ProductGroup((og.Lex(t3, og.Rationals()), t3)), "(((0,1,0),0),(0,0,0))"),
    ]
    for desc, expected in cases:
        central, witness = og.is_unit_central(desc)
        assert (central, None if witness is None else S.format_value(witness)) == (expected is None, expected)
        assert not desc.abelian


def test_twist3_noncentral_unit_value():
    desc = og.Twist3("Z")
    u = desc.unit()
    w = og.member(desc, (0, 1, 0))
    assert desc.add(u, w) == (1, 1, 1)
    assert desc.add(w, u) == (1, 1, 0)


def test_two_divisibility_table():
    expectations = {
        og.ScaledInt(1): False,
        og.ScaledInt(4): False,
        og.ScaledDyadic(3): True,
        og.Rationals(): True,
        og.QuadLattice(ALPHA, False): False,
        og.QuadLattice(ALPHA, True): True,
        og.Lex(og.ScaledInt(1), og.ScaledInt(1)): False,
        og.Lex(og.ScaledDyadic(1), og.ScaledDyadic(3)): True,
        og.Twist3("Z"): False,
        og.Twist3("D"): True,
        og.Twist4("Z"): False,
        og.Twist4("D"): True,
        og.Twist4("Q"): True,
        og.ProductGroup((og.ScaledDyadic(1), og.ScaledInt(2))): False,
        og.ProductGroup((og.ScaledDyadic(1), og.Rationals())): True,
    }
    for desc, expected in expectations.items():
        assert desc.two_divisible == expected, desc


def test_try_halve_soundness_random():
    rng = random.Random(37)
    for desc in all_descriptors():
        for x in sample(desc, rng, 20):
            h = og.try_halve(desc, x)
            if h is not None:
                assert desc.add(h, h) == x
            if desc.two_divisible:
                assert h is not None


def test_try_halve_completeness_twist3_box():
    desc = og.Twist3("Z")
    candidates = [og.member(desc, p) for p in box3(3)]
    for p in box3(2):
        x = og.member(desc, p)
        h = og.try_halve(desc, x)
        brute = [c for c in candidates if desc.add(c, c) == x]
        if h is None:
            assert not brute, f"halver missed {p}: {brute[0]}"
        else:
            assert desc.add(h, h) == x
            assert h in brute


def test_try_halve_completeness_twist4_box():
    desc = og.Twist4("Z")
    candidates = [og.member(desc, p) for p in box4(2)]
    for p in box4(1):
        x = og.member(desc, p)
        h = og.try_halve(desc, x)
        brute = [c for c in candidates if desc.add(c, c) == x]
        if h is None:
            assert not brute
        else:
            assert h in brute


def test_twist3_halving_spot_values():
    desc = og.Twist3("Z")
    assert og.try_halve(desc, og.member(desc, (2, -2, 3))) == (1, -1, 2)
    assert og.try_halve(desc, og.member(desc, (2, -2, 4))) is None


def test_strong_unit_bound_property():
    rng = random.Random(41)
    for desc in all_descriptors():
        u = desc.unit()
        assert og.strong_unit_bound(desc, desc.zero()) >= 1
        for x in sample(desc, rng, 15):
            n = og.strong_unit_bound(desc, x)
            assert n >= 1
            assert leq(desc, desc.neg(desc.mul(n, u)), x)
            assert leq(desc, x, desc.mul(n, u))


def test_strong_unit_bound_spot_value():
    desc = og.Twist3("Z")
    assert og.strong_unit_bound(desc, og.member(desc, (2, -5, 9))) == 3


def test_strong_unit_bound_beyond_float_range():
    for alpha in (ALPHA, S.QuadValue.make(0, Fraction(1, 2), 2)):
        desc = og.QuadLattice(alpha, False)
        assert og.strong_unit_bound(desc, og.member(desc, (10**400, 0))) == 10**400
        y = og.member(desc, (0, 10**400))
        assert og.strong_unit_bound(desc, y) == alpha.scale(10**400).floor() + 1


@pytest.mark.parametrize(
    "law, broken, call",
    [
        ("halve", lambda self, p: p, lambda d: og.try_halve(d, Fraction(3))),
        # 1 commutes with u, so it cannot witness a non-central unit
        ("witness", lambda self: Fraction(1), og.is_unit_central),
        ("bound", lambda self, p: 1, lambda d: og.strong_unit_bound(d, Fraction(7, 2))),
    ],
)
def test_each_payload_function_checks_its_result(monkeypatch, law, broken, call):
    desc = og.Rationals()
    call(desc)  # the intact laws pass the check
    monkeypatch.setattr(og.Rationals, law, broken)
    with pytest.raises(InternalError, match="internal check failed"):
        call(desc)


# --- carriers, formatting, sampling -------------------------------------------


def test_carrier_validation():
    with pytest.raises(CarrierError):
        og.member(og.ScaledInt(4), Fraction(1, 3))
    with pytest.raises(CarrierError):
        og.member(og.ScaledDyadic(3), Fraction(1, 5))
    with pytest.raises(CarrierError):
        og.member(og.QuadLattice(ALPHA, False), (Fraction(1, 2), Fraction(0)))
    with pytest.raises(CarrierError):
        og.member(og.Twist3("Z"), (Fraction(1, 2), Fraction(0), Fraction(0)))
    with pytest.raises(CarrierError):
        og.member(og.Twist3("Z"), (1, 2))
    assert og.member(og.ScaledInt(4), Fraction(3, 4)) == Fraction(3, 4)
    assert og.member(og.ScaledDyadic(3), Fraction(5, 6)) == Fraction(5, 6)


def test_integer_twisted_carriers_hold_ints_by_value():
    t3, t4 = og.Twist3("Z"), og.Twist4("Z")
    assert t3.contains((1, 2, 3))
    assert t3.contains((Fraction(1), Fraction(2), Fraction(3)))
    assert not t3.contains((1, Fraction(1, 2), 0))
    assert not t3.contains((1.0, 0, 0))
    assert not t3.contains((True, 0, 0))
    with pytest.raises(CarrierError, match=r"^\(1,1/2,0\) is not in the carrier$"):
        og.member(t3, (1, Fraction(1, 2), 0))
    for desc, raw in ((t3, (1, -2, 3)), (t4, (1, -2, 3, -4))):
        x = og.member(desc, tuple(map(Fraction, raw)))
        y = og.member(desc, raw)
        assert x == y and hash(x) == hash(y)
        for g in (x, desc.zero(), desc.unit(), desc.add(x, y), desc.neg(x), desc.mul(5, x)):
            assert all(type(c) is int for c in g), g


def _leaves(payload):
    if isinstance(payload, tuple):
        for c in payload:
            yield from _leaves(c)
    else:
        yield payload


def _assert_exact(payload):
    """Every leaf scalar is an int that is not a bool, or a Fraction."""
    for c in _leaves(payload):
        assert type(c) is int or isinstance(c, Fraction), (payload, type(c).__name__)


@pytest.mark.parametrize("desc", all_descriptors(), ids=desc_id)
def test_every_operation_keeps_payloads_exact(desc):
    rng = random.Random(53)
    A = pmv.GammaAlgebra(desc)
    xs = sample(desc, rng, 12)
    for x, y in zip(xs, xs[1:]):
        _assert_exact(x)
        # every double has its half, which must not pass through a float
        assert og.try_halve(desc, desc.add(x, x)) == x
        results = [og.member(desc, x), desc.add(x, y), desc.neg(x),
                   desc.mul(3, x), desc.mul(2, x), desc.mul(2**8 + 1, x),
                   desc.mul(2**8, x), og.try_halve(desc, x)]
        for g in results:
            if g is not None:
                _assert_exact(g)
        # into [0, u], then the algebra operations
        a, b = (pmv.element_of(A, desc.join(desc.meet(g, A.unit), A.zero)) for g in (x, y))
        for z in (a, b, pmv.odot(a, b), pmv.oplus(a, b)):
            _assert_exact(z.payload)


def test_odd_integer_twisted_coordinates_have_no_half():
    desc = og.Twist3("Z")
    for raw in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 2, 0), (-4, 6, 5)):
        assert og.try_halve(desc, og.member(desc, raw)) is None, raw
    half = og.try_halve(desc, og.member(desc, (-4, 6, -10)))
    assert half == (-2, 3, -2) and all(type(c) is int for c in half)


def test_contains_matches_member():
    rng = random.Random(43)
    for desc in all_descriptors():
        for x in sample(desc, rng, 10):
            assert desc.contains(x)
            assert og.member(desc, x) == x


FAMILIES = {og.ScaledInt, og.ScaledDyadic, og.Rationals, og.QuadLattice, og.Lex,
            og.Twist3, og.Twist4, og.ProductGroup}


def test_the_descriptors_cover_every_family():
    assert {type(d) for d in all_descriptors()} == FAMILIES


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(all_descriptors() + [og.Twist4("D"), og.Twist3("Q")]), st.integers(0, 2**32 - 1))
def test_random_draws_are_members(desc, seed):
    # the reachability certificate takes this for granted on identity factors
    rng = random.Random(seed)
    for _ in range(10):
        assert desc.contains(desc.random(rng, 3, 5))


@pytest.mark.parametrize("desc", all_descriptors(), ids=desc_id)
def test_random_is_the_integer_draw_made_a_payload(desc):
    drawn, sampled = random.Random(5), random.Random(5)
    for bound, exp in [(3, 5), (5, 4), (8, 6)] * 10:
        got, want = desc.from_draw(desc.draw(drawn, bound, exp)), desc.random(sampled, bound, exp)
        assert (got, _leaf_types(got)) == (want, _leaf_types(want))
        assert drawn.getstate() == sampled.getstate()


# --- properties of the module functions, over every family --------------------

DESCRIPTORS = all_descriptors()
payload_draws = given(st.sampled_from(DESCRIPTORS), st.randoms(use_true_random=False))


@settings(max_examples=150, deadline=None)
@payload_draws
def test_member_validates_exactly_the_carrier(desc, rng):
    p = desc.random(rng, 6, 5)
    assert og.member(desc, p) == p
    # a half outside the carrier is refused with the message that names it
    h = desc.halve(p)
    if desc.contains(h):
        assert og.member(desc, h) == h
    else:
        with pytest.raises(CarrierError, match=r"is not in the carrier$"):
            og.member(desc, h)


@settings(max_examples=150, deadline=None)
@payload_draws
def test_try_halve_is_the_carrier_half(desc, rng):
    p = desc.random(rng, 6, 5)
    assert og.try_halve(desc, desc.add(p, p)) == p
    h = og.try_halve(desc, p)
    if h is None:
        assert not desc.two_divisible and not desc.contains(desc.halve(p))
    else:
        assert desc.contains(h) and desc.add(h, h) == p


@settings(max_examples=150, deadline=None)
@payload_draws
def test_is_unit_central_agrees_with_the_drawn_elements(desc, rng):
    central, witness = og.is_unit_central(desc)
    u = desc.unit()
    assert central == (witness is None)
    assert central or not desc.abelian
    if central:
        p = desc.random(rng, 6, 5)
        assert desc.add(u, p) == desc.add(p, u)
    else:
        assert desc.contains(witness) and desc.add(u, witness) != desc.add(witness, u)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DESCRIPTORS), st.randoms(use_true_random=False), st.integers(1, 40))
def test_strong_unit_bound_bounds_both_signs(desc, rng, k):
    p = desc.random(rng, 6, 5)
    n = og.strong_unit_bound(desc, p)
    nu = desc.mul(n, desc.unit())
    assert n >= 1 and leq(desc, desc.neg(nu), p) and leq(desc, p, nu)
    assert og.strong_unit_bound(desc, desc.neg(p)) == n
    # |k u| = k u <= n u forces k <= n
    assert og.strong_unit_bound(desc, desc.mul(k, desc.unit())) >= k


# Each family's behaviour, one row per descriptor of all_descriptors(), as
# the families behaved when every law was an isinstance switch:
# (unit, zero, linear, abelian, two-divisible, non-centrality witness,
#  the first 3 draws of desc.random(rng, 8, 6) at seed 99, their strong unit
#  bounds, member(desc, 1/2), member(desc, (1,2,3))), payloads written
# with scalars.format_value.  The last two were re-recorded when every
# family came to report a payload of the wrong shape as one CarrierError
# that names the value; the quadratic lattices' payloads, once written
# m+n*alpha, were re-recorded as the tuples (m,n) that the DSL reads.
PINNED = [
    ('1', '0', True, True, False, None, ('4', '4', '-2'), (4, 4, 2), 'CarrierError: 1/2 is not in the carrier', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('1', '0', True, True, False, None, ('19/4', '4', '-7/4'), (5, 4, 2), '1/2', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('1', '0', True, True, True, None, ('33/8', '-5/2', '-1/2'), (5, 3, 1), '1/2', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('1', '0', True, True, True, None, ('1/12', '14/3', '-19/6'), (1, 5, 4), '1/2', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('1', '0', True, True, True, None, ('-8/7', '-5/2', '-1/4'), (2, 3, 1), '1/2', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('(1,0)', '(0,0)', True, True, False, None, ('(4,4)', '(-2,-3)', '(-1,-1)'), (6, 4, 2), 'CarrierError: payload 1/2 has the wrong shape', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('(1,0)', '(0,0)', True, True, True, None, ('(33/8,-5/2)', '(-1/2,-11/2)', '(17/4,-83/16)'), (4, 3, 3), 'CarrierError: payload 1/2 has the wrong shape', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('(1,0)', '(0,0)', True, True, False, None, ('(4,4)', '(-2,-3)', '(-1,-1)'), (5, 3, 2), 'CarrierError: payload 1/2 has the wrong shape', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('(1,0)', '(0,0)', True, True, False, None, ('(9/2,-13/8)', '(-5/2,-1/2)', '(-4,-335/64)'), (6, 4, 5), 'CarrierError: payload 1/2 has the wrong shape', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('(1,0,0)', '(0,0,0)', True, False, False, '(0,1,0)', ('(4,4,-2)', '(-3,-1,-1)', '(-4,-6,0)'), (5, 4, 5), 'CarrierError: payload 1/2 has the wrong shape', '(1,2,3)'),
    ('(1,0,0)', '(0,0,0)', True, False, True, '(0,1,0)', ('(33/8,-5/2,-1/2)', '(-11/2,17/4,-83/16)', '(61/8,5,-35/32)'), (5, 6, 8), 'CarrierError: payload 1/2 has the wrong shape', '(1,2,3)'),
    ('(1,0,0,0)', '(0,0,0,0)', True, False, False, None, ('(4,4,-2,-3)', '(-1,-1,-4,-6)', '(0,4,8,-6)'), (5, 2, 1), 'CarrierError: payload 1/2 has the wrong shape', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('(1,0,0,0)', '(0,0,0,0)', True, False, True, None, ('(-8/7,-5/2,-1/4,8)', '(0,1/6,65/9,15/2)', '(21/4,5,-5/2,1/6)'), (2, 1, 6), 'CarrierError: payload 1/2 has the wrong shape', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('(1,1)', '(0,0)', False, True, False, None, ('(9/2,0)', '(-2,14/3)', '(-5/2,-10/3)'), (5, 5, 4), 'CarrierError: payload 1/2 has the wrong shape', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('(1,(1,0))', '(0,(0,0))', False, True, False, None, ('(33/8,(-2,-3))', '(-1/2,(-4,-6))', '(17/4,(8,-6))'), (5, 5, 9), 'CarrierError: payload 1/2 has the wrong shape', 'CarrierError: payload (1,2,3) has the wrong shape'),
]


def outcome(desc, raw):
    try:
        return S.format_value(og.member(desc, raw))
    except PmvError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_each_family_is_pinned():
    descs = all_descriptors()
    assert len(descs) == len(PINNED)
    for desc, row in zip(descs, PINNED):
        central, witness = og.is_unit_central(desc)
        assert central == (witness is None)
        got = (
            S.format_value(desc.unit()), S.format_value(desc.zero()),
            desc.linear, desc.abelian, desc.two_divisible,
            None if witness is None else S.format_value(witness),
        )
        assert got == row[:6], desc
        assert (outcome(desc, Fraction(1, 2)), outcome(desc, (1, 2, 3))) == row[8:], desc


def test_descriptor_equality_hash_and_repr():
    assert og.Twist3("Z") == og.Twist3() and hash(og.Twist3("Z")) == hash(og.Twist3())
    assert og.Twist3("Z") != og.Twist4("Z")
    assert repr(og.Twist3("Z")) == "Twist3(tag='Z')"
    assert repr(og.ScaledInt(2)) == "ScaledInt(n=2)"
    assert repr(og.Lex(og.Rationals(), og.ScaledDyadic(3))) == "Lex(head=Rationals(), tail=ScaledDyadic(q=3))"
    assert repr(og.ProductGroup([og.ScaledInt(1)])) == "ProductGroup(factors=(ScaledInt(n=1),))"
    assert og.ProductGroup([og.ScaledInt(1)]) == og.ProductGroup((og.ScaledInt(1),))
    assert og.ScaledInt(1) != og.ScaledDyadic(1)
    assert len({og.ScaledInt(1), og.ScaledInt(1), og.ScaledDyadic(1), og.Twist3(), og.Twist4()}) == 4


def test_random_draws_reproducible():
    for desc, row in zip(all_descriptors(), PINNED):
        a = [desc.random(random.Random(99), 8, 6) for _ in range(5)]
        b = [desc.random(random.Random(99), 8, 6) for _ in range(5)]
        assert a == b
        rng = random.Random(99)
        draws = [desc.random(rng, 8, 6) for _ in range(3)]
        assert tuple(S.format_value(x) for x in draws) == row[6], desc
        assert tuple(og.strong_unit_bound(desc, x) for x in draws) == row[7], desc


def draw_scalar_by_randint(tag, rng, bound, exp, scale=1):
    """The draw as it was made before, through ``randint``: the oracle."""
    d = scale if tag == "Z" else scale << rng.randint(0, exp) if tag == "D" else rng.randint(1, 12)
    return rng.randint(-bound * d, bound * d), d


def draws_by_randint(scalars, rng, bound, exp):
    return [draw_scalar_by_randint(tag, rng, bound, exp, scale) for tag, scale in scalars]


# the flat draw's ranges: m in [-bound * d, bound * d] of width 1 (bound 0),
# 13 (d = 6), 2**64 + 1 (d = 2**63) and beyond 64 bits (a scale of 10**30
# times 2**exp); the dyadic exponent 0..exp of width 1 (exp 0), 2, 6 and
# 2**6 (exp 63); the denominator 1..12 of width 12
DRAW_SCALARS = [("Z", 1), ("Z", 6), ("Z", 2**63), ("D", 1), ("D", 7), ("D", 10**30), ("Q", 1)]
DRAW_BOUNDS = [(0, 0), (1, 0), (1, 1), (3, 5), (8, 6), (1, 63)]


def test_the_draw_helper_repeats_randint():
    widths = {2 * bound * scale + 1 for bound, _ in DRAW_BOUNDS for tag, scale in DRAW_SCALARS if tag == "Z"}
    widths |= {exp + 1 for _, exp in DRAW_BOUNDS} | {12}
    assert {1, 2, 6, 12, 13, 64, 2**64 + 1} <= widths
    for seed in range(300):
        ours, ref = random.Random(seed), random.Random(seed)
        for bound, exp in DRAW_BOUNDS:
            scalars = DRAW_SCALARS[seed % 7:] + DRAW_SCALARS[:seed % 7]
            got = og.draw_scalars(scalars, ours, bound, exp)
            assert got == draws_by_randint(scalars, ref, bound, exp), (seed, bound, exp)
        assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("bound, exp", [(3, 5), (4, 4), (0, 0), (8, 6)])
def test_every_family_draws_as_with_randint(bound, exp):
    # the flat draw against randint, one scalar after another in payload order
    descs = all_descriptors() + [og.ScaledInt(10**12), og.ScaledDyadic(10**9 + 7)]
    for desc in descs:
        for seed in range(40):
            ours, ref = random.Random(seed), random.Random(seed)
            assert desc.draw(ours, bound, exp) == draws_by_randint(desc.scalars(), ref, bound, exp), (desc, seed)
            assert ours.getstate() == ref.getstate()


def test_format_strings():
    assert S.format_value(Fraction(1, 2)) == "1/2"
    assert S.format_value((1, -2, 3)) == "(1,-2,3)"
    assert S.format_value((Fraction(1, 2), Fraction(1))) == "(1/2,1)"


def format_by_family(desc, p):
    """Each family's own ``format`` law, as the descriptors had it before
    ``scalars.format_value`` wrote every payload: the oracle of
    ``format_value``.  The quadratic lattices wrote m+n*alpha, a form that
    the DSL cannot read and that is gone, so they have no branch here."""
    if isinstance(desc, (og.Lex, og.ProductGroup)):
        return "(" + ",".join(format_by_family(f, a) for f, a in zip(desc.parts, p)) + ")"
    if isinstance(desc, (og.Twist3, og.Twist4)):
        return "(" + ",".join(S.format_rational(c) for c in p) + ")"
    assert isinstance(desc, (og.ScaledInt, og.ScaledDyadic, og.Rationals)), desc
    return S.format_rational(p)


def has_quad(desc):
    if isinstance(desc, (og.Lex, og.ProductGroup)):
        return any(map(has_quad, desc.parts))
    return isinstance(desc, og.QuadLattice)


QUAD_NESTED = [
    og.Lex(og.QuadLattice(ALPHA, False), og.Twist3("Z")),
    og.ProductGroup((og.ScaledInt(2), og.Lex(og.ScaledInt(1), og.QuadLattice(ALPHA, True)))),
]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from([d for d in DESCRIPTORS if not has_quad(d)]), st.randoms(use_true_random=False))
def test_format_value_writes_payloads_as_each_family_did(desc, rng):
    p = desc.random(rng, 6, 5)
    assert S.format_value(p) == format_by_family(desc, p)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(DESCRIPTORS + QUAD_NESTED), st.randoms(use_true_random=False))
def test_written_payloads_read_back(desc, rng):
    # every family, the quadratic lattices included, nested or not
    p = desc.random(rng, 6, 5)
    assert desc.normalize(dsl.parse_element_value(S.format_value(p))) == p


@settings(max_examples=100, deadline=None)
@given(st.integers(-200, 200), st.integers(-200, 200), st.integers(1, 10))
def test_scaled_int_is_plain_arithmetic(a, b, n):
    desc = og.ScaledInt(n)
    x = og.member(desc, Fraction(a, n))
    y = og.member(desc, Fraction(b, n))
    assert desc.add(x, y) == Fraction(a + b, n)
    assert leq(desc, x, y) == (a <= b)
    assert desc.meet(x, y) == min(Fraction(a, n), Fraction(b, n))


# --- the twisted order and the carriers against their coordinate loops --------
#
# The twisted families compare payloads as tuples and test membership by
# mapping one predicate of the scalar tag over the coordinates; these oracles
# are the coordinate loops they replaced.

TWISTED = [cls(tag) for cls in (og.Twist3, og.Twist4) for tag in og.SCALAR_TAGS]


def loop_cmp(p, q):
    """The first coordinate that differs decides."""
    for a, b in zip(p, q):
        if a != b:
            return 1 if a > b else -1
    return 0


def loop_join(p, q):
    return p if loop_cmp(p, q) >= 0 else q


def loop_meet(p, q):
    return p if loop_cmp(p, q) <= 0 else q


def tag_member(tag, x):
    if tag == "Z":
        return x.denominator == 1
    if tag == "D":
        return x.denominator & (x.denominator - 1) == 0
    return True


def loop_contains(desc, p):
    """Membership as each family tested it coordinate by coordinate."""
    if isinstance(desc, og.ScaledInt):
        return isinstance(p, Fraction) and (p * desc.n).denominator == 1
    if isinstance(desc, og.QuadLattice):
        tag = "D" if desc.dyadic else "Z"
        return isinstance(p, tuple) and len(p) == 2 and all(
            isinstance(c, Fraction) and tag_member(tag, c) for c in p)
    return isinstance(p, tuple) and len(p) == desc.arity and all(
        (type(c) is int or isinstance(c, Fraction)) and tag_member(desc.tag, c) for c in p)


def retyped(c):
    """The same value as the other exact kind: an int as a Fraction, an
    integral Fraction as an int; any other Fraction stays."""
    if type(c) is int:
        return Fraction(c)
    return c.numerator if c.denominator == 1 else c


def scalars(tag):
    """Small coordinates of the tag's ring, as ints and as Fractions, so
    that equal values and ties are frequent."""
    ints = st.integers(-4, 4)
    kinds = [ints, ints.map(Fraction)]
    if tag != "Z":
        dens = st.sampled_from((1, 2, 4)) if tag == "D" else st.integers(1, 6)
        kinds.append(st.builds(Fraction, ints, dens))
    return st.one_of(kinds)


@st.composite
def twisted_pairs(draw):
    """A twisted family and two payloads whose first ``keep`` coordinates
    agree in value, each kept as it is or retyped."""
    desc = draw(st.sampled_from(TWISTED))
    scalar = scalars(desc.tag)
    p = tuple(draw(scalar) for _ in range(desc.arity))
    keep = draw(st.integers(0, desc.arity))
    head = [retyped(c) if draw(st.booleans()) else c for c in p[:keep]]
    return desc, p, tuple(head + [draw(scalar) for _ in range(desc.arity - keep)])


@settings(max_examples=600, deadline=None, derandomize=True)
@given(twisted_pairs())
def test_the_twisted_order_is_the_coordinate_loop(case):
    desc, p, q = case
    assert desc.contains(p) and desc.contains(q)
    assert desc.cmp(p, q) == loop_cmp(p, q)
    assert desc.cmp(q, p) == loop_cmp(q, p)
    # the same object, so a tie returns p with its own coordinate kinds
    assert desc.join(p, q) is loop_join(p, q)
    assert desc.meet(p, q) is loop_meet(p, q)


def test_the_twisted_order_pins_ties_of_mixed_kinds():
    desc = og.Twist4("Z")
    p, q = (1, Fraction(2), 3, 4), (Fraction(1), 2, Fraction(3), Fraction(4))
    assert desc.cmp(p, q) == loop_cmp(p, q) == 0
    assert desc.join(p, q) is p and desc.meet(p, q) is p
    assert desc.join(q, p) is q and desc.meet(q, p) is q


class SubFraction(Fraction):
    pass


class SubInt(int):
    pass


CARRIERS = TWISTED + [og.QuadLattice(ALPHA, False), og.QuadLattice(ALPHA, True),
                      og.ScaledInt(1), og.ScaledInt(4), og.ScaledInt(6)]
ATOMS = st.one_of(
    st.integers(-9, 9),
    st.booleans(),
    st.fractions(max_denominator=12),
    st.floats(allow_nan=False),
    st.text(max_size=2),
    st.none(),
)


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(st.sampled_from(CARRIERS), st.one_of(ATOMS, st.lists(ATOMS, max_size=5),
                                            st.lists(ATOMS, max_size=5).map(tuple)))
def test_carrier_membership_is_the_coordinate_loop(desc, raw):
    assert desc.contains(raw) == loop_contains(desc, raw)


def test_carrier_membership_pins_the_edge_kinds():
    for desc in CARRIERS:
        arity = getattr(desc, "arity", 2)
        for raw in ((True,) * arity, (1.0,) * arity, (0,) * arity, (Fraction(1, 2),) * arity,
                    (Fraction(0),) * (arity + 1), [Fraction(0)] * arity, Fraction(1, 4), 3, True, "0",
                    (Fraction(1, 3),) * arity, (SubFraction(1, 2),) * arity, (SubInt(1),) * arity,
                    (Fraction(0),) * (arity - 1) + (True,), (1,) * (arity - 1) + (Fraction(3, 4),)):
            assert desc.contains(raw) == loop_contains(desc, raw), (desc, raw)
    assert not og.QuadLattice(ALPHA, False).contains((0, 0))
    assert og.ScaledInt(6).contains(Fraction(5, 3)) and not og.ScaledInt(6).contains(Fraction(1, 4))


# Membership as the twisted families and the quadratic lattices tested it
# before it read the coordinates' types and denominators in one pass: one
# predicate per scalar tag, mapped over the coordinates.
IN_TAG = {
    "Z": lambda c: type(c) is int or isinstance(c, Fraction) and c.denominator == 1,
    "D": lambda c: type(c) is int or isinstance(c, Fraction) and c.denominator & (c.denominator - 1) == 0,
    "Q": lambda c: type(c) is int or isinstance(c, Fraction),
}


def in_tag_contains(desc, p):
    if isinstance(desc, og.QuadLattice):
        return (isinstance(p, tuple) and len(p) == 2 and all(map(isinstance, p, (Fraction, Fraction)))
                and all(map(IN_TAG["D" if desc.dyadic else "Z"], p)))
    return isinstance(p, tuple) and len(p) == desc.arity and all(map(IN_TAG[desc.tag], p))


EXACT_ATOMS = st.one_of(
    st.integers(-9, 9),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 6, 8, 12))),
    st.builds(SubFraction, st.integers(-9, 9), st.sampled_from((1, 2, 3))),
)
ODD_ATOMS = st.one_of(st.booleans(), st.floats(-4, 4), st.integers(-9, 9).map(SubInt), st.none())


@st.composite
def drawn_payloads(draw):
    """A carrier, and a tuple of about its arity whose coordinates are
    mostly exact scalars; some are bools, floats, int subclasses or None."""
    desc = draw(st.sampled_from(TWISTED + [og.QuadLattice(ALPHA, False), og.QuadLattice(ALPHA, True)]))
    arity = getattr(desc, "arity", 2) + draw(st.sampled_from((0, 0, 0, 0, -1, 1)))
    atoms = st.one_of(EXACT_ATOMS, ODD_ATOMS) if draw(st.booleans()) else EXACT_ATOMS
    return desc, tuple(draw(atoms) for _ in range(arity))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(drawn_payloads())
def test_carrier_membership_is_the_tag_predicate(case):
    desc, p = case
    assert desc.contains(p) == in_tag_contains(desc, p)
