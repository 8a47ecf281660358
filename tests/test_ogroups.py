"""Tests for the ordered-group layer: arithmetic, order, halving, units."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvroots import ogroups as og
from pmvroots import pmv
from pmvroots import scalars as S
from pmvroots.errors import CarrierError, PmvError

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


def sample(desc, rng, count=40):
    return [og.random_element(desc, rng, coord_bound=5, exp_bound=4) for _ in range(count)]


def box3(radius):
    rng = range(-radius, radius + 1)
    return [tuple(map(Fraction, t)) for t in itertools.product(rng, repeat=3)]


def box4(radius):
    rng = range(-radius, radius + 1)
    return [tuple(map(Fraction, t)) for t in itertools.product(rng, repeat=4)]


# --- group axioms -----------------------------------------------------------


@pytest.mark.parametrize("desc", all_descriptors(), ids=lambda d: type(d).__name__ + repr(getattr(d, "n", getattr(d, "q", ""))))
def test_group_axioms_random(desc):
    rng = random.Random(7)
    elems = sample(desc, rng, 25)
    z = og.zero(desc)
    for x in elems:
        assert og.g_add(x, z) == x
        assert og.g_add(z, x) == x
        assert og.g_add(x, og.g_neg(x)) == z
        assert og.g_add(og.g_neg(x), x) == z
    for x, y, w in zip(elems, elems[1:], elems[2:]):
        assert og.g_add(og.g_add(x, y), w) == og.g_add(x, og.g_add(y, w))
        assert og.g_sub(x, y) == og.g_add(x, og.g_neg(y))


def test_abelian_flags_and_witnesses():
    rng = random.Random(13)
    for desc in all_descriptors():
        flag = og.is_abelian(desc)
        elems = sample(desc, rng, 30)
        found_noncomm = any(
            og.g_add(x, y) != og.g_add(y, x)
            for x, y in itertools.combinations(elems, 2)
        )
        if flag:
            assert not found_noncomm
        else:
            assert found_noncomm, f"{desc} marked non-abelian but no witness found"


def test_twist3_cocycle_formula():
    desc = og.Twist3("Z")
    for p in box3(2):
        for q in box3(1):
            got = og.g_add(og.element(desc, p), og.element(desc, q)).payload
            expected = (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])
            assert got == expected


def test_twist4_cocycle_formula():
    desc = og.Twist4("Z")
    for p in box4(1):
        for q in box4(1):
            got = og.g_add(og.element(desc, p), og.element(desc, q)).payload
            expected = (p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3] + p[1] * q[2])
            assert got == expected


def test_twist_negation_formulas():
    t3 = og.Twist3("Z")
    for p in box3(2):
        got = og.g_neg(og.element(t3, p)).payload
        assert got == (-p[0], -p[1], -p[2] + p[0] * p[1])
        assert og.g_add(og.element(t3, p), og.element(t3, got)) == og.zero(t3)
    t4 = og.Twist4("Z")
    for p in box4(1):
        got = og.g_neg(og.element(t4, p)).payload
        assert got == (-p[0], -p[1], -p[2], -p[3] + p[1] * p[2])
        assert og.g_add(og.element(t4, p), og.element(t4, got)) == og.zero(t4)


def _leaf_types(payload):
    return [type(c) for c in _leaves(payload)]


def test_mul_int_matches_repeated_addition():
    rng = random.Random(19)
    for desc in all_descriptors():
        for x in sample(desc, rng, 4):
            acc = og.zero(desc)
            for k in range(2**8 + 1):
                for got, want in ((og.mul_int(k, x), acc), (og.mul_int(-k, x), og.g_neg(acc))):
                    assert got == want, (desc, x.payload, k)
                    # int coordinates for Z-tagged twisted groups, Fractions otherwise
                    assert _leaf_types(got.payload) == _leaf_types(want.payload), (desc, k)
                acc = og.g_add(acc, x)


def binary_mul_int(k, x):
    """The k-fold sum by the binary method: about log2(k) additions."""
    if k < 0:
        return og.g_neg(binary_mul_int(-k, x))
    acc = None
    while k:
        if k & 1:
            acc = x if acc is None else og.g_add(acc, x)
        k >>= 1
        if k:
            x = og.g_add(x, x)
    return og.zero(x.desc) if acc is None else acc


def test_mul_int_matches_the_binary_method_at_large_k():
    rng = random.Random(23)
    for desc in all_descriptors():
        for x in sample(desc, rng, 4):
            for k in (2**40, 2**40 + 3, 3**30, -(2**33), -(5**20) - 1):
                got, want = og.mul_int(k, x), binary_mul_int(k, x)
                assert got == want, (desc, x.payload, k)
                assert _leaf_types(got.payload) == _leaf_types(want.payload), (desc, k)


def test_mul_int_makes_no_group_addition(monkeypatch):
    calls = []
    add = og.g_add
    monkeypatch.setattr(og, "g_add", lambda x, y: calls.append(1) or add(x, y))
    for desc in all_descriptors():
        x = og.unit(desc)
        for k in (0, 1, 2, 3, 2**8, 2**8 + 1, -(2**8)):
            og.mul_int(k, x)
    assert not calls


# --- order and lattice laws -------------------------------------------------


def test_linear_flags():
    for desc in all_descriptors():
        expected = not isinstance(desc, og.ProductGroup)
        assert og.is_linear(desc) == expected


@pytest.mark.parametrize("desc", all_descriptors(), ids=lambda d: type(d).__name__ + repr(getattr(d, "n", getattr(d, "q", ""))))
def test_order_translation_invariance(desc):
    rng = random.Random(23)
    elems = sample(desc, rng, 15)
    for x, y in itertools.combinations(elems, 2):
        if og.g_leq(x, y):
            for a in elems[:5]:
                assert og.g_leq(og.g_add(a, x), og.g_add(a, y))
                assert og.g_leq(og.g_add(x, a), og.g_add(y, a))


@pytest.mark.parametrize("desc", all_descriptors(), ids=lambda d: type(d).__name__ + repr(getattr(d, "n", getattr(d, "q", ""))))
def test_meet_join_are_bounds(desc):
    rng = random.Random(29)
    elems = sample(desc, rng, 12)
    for x, y in itertools.combinations(elems, 2):
        m = og.g_meet(x, y)
        j = og.g_join(x, y)
        assert og.g_leq(m, x) and og.g_leq(m, y)
        assert og.g_leq(x, j) and og.g_leq(y, j)
        # greatest lower / least upper among sampled candidates
        for c in elems:
            if og.g_leq(c, x) and og.g_leq(c, y):
                assert og.g_leq(c, m)
            if og.g_leq(x, c) and og.g_leq(y, c):
                assert og.g_leq(j, c)
        assert og.g_abs(x) == og.g_join(x, og.g_neg(x))


def test_cmp_trichotomy_linear():
    rng = random.Random(31)
    for desc in all_descriptors():
        if not og.is_linear(desc):
            continue
        elems = sample(desc, rng, 15)
        for x, y in itertools.combinations(elems, 2):
            c = og.g_cmp(x, y)
            assert c in (-1, 0, 1)
            assert (c == 0) == (x == y)
            assert og.g_leq(x, y) == (c <= 0)


def test_product_incomparable_pairs():
    desc = og.ProductGroup((og.ScaledInt(1), og.ScaledInt(1)))
    x = og.element(desc, (Fraction(1), Fraction(0)))
    y = og.element(desc, (Fraction(0), Fraction(1)))
    assert og.g_cmp(x, y) is None
    assert not og.g_leq(x, y) and not og.g_leq(y, x)
    assert og.g_meet(x, y) == og.zero(desc)
    assert og.g_join(x, y) == og.element(desc, (Fraction(1), Fraction(1)))


def test_lex_order_oracle():
    desc = og.Lex(og.ScaledInt(1), og.ScaledInt(1))
    vals = [tuple(map(Fraction, t)) for t in itertools.product(range(-2, 3), repeat=2)]
    for p in vals:
        for q in vals:
            expected = p[0] < q[0] or (p[0] == q[0] and p[1] <= q[1])
            assert og.g_leq(og.element(desc, p), og.element(desc, q)) == expected


def test_twist3_order_oracle():
    # The twisted order compares (a, b) lexicographically and then the
    # last coordinate; verify against the positive-cone description by
    # checking translation-invariant comparison on a box.
    desc = og.Twist3("Z")
    for p in box3(1):
        for q in box3(1):
            d = og.g_sub(og.element(desc, q), og.element(desc, p)).payload
            expected = (
                d[0] > 0
                or (d[0] == 0 and d[1] > 0)
                or (d[0] == 0 and d[1] == 0 and d[2] >= 0)
            )
            assert og.g_leq(og.element(desc, p), og.element(desc, q)) == expected


def test_quad_lattice_order_oracle():
    desc = og.QuadLattice(ALPHA, False)
    coords = [tuple(map(Fraction, t)) for t in itertools.product(range(-3, 4), repeat=2)]
    for p in coords:
        for q in coords:
            lhs = S.QuadValue.make(p[0]) + ALPHA.scale(p[1])
            rhs = S.QuadValue.make(q[0]) + ALPHA.scale(q[1])
            assert og.g_leq(og.element(desc, p), og.element(desc, q)) == (lhs <= rhs)


# --- units, halving, bounds ---------------------------------------------------


def test_unit_centrality():
    for desc in all_descriptors():
        central, witness = og.is_unit_central(desc)
        if isinstance(desc, og.Twist3):
            assert not central and witness is not None
            u = og.unit(desc)
            assert og.g_add(u, witness) != og.g_add(witness, u)
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
        assert (central, None if witness is None else str(witness)) == (expected is None, expected)
        assert not og.is_abelian(desc)


def test_twist3_noncentral_unit_value():
    desc = og.Twist3("Z")
    u = og.unit(desc)
    w = og.element(desc, (0, 1, 0))
    assert og.g_add(u, w).payload == (1, 1, 1)
    assert og.g_add(w, u).payload == (1, 1, 0)


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
        assert og.is_two_divisible(desc) == expected, desc


def test_try_halve_soundness_random():
    rng = random.Random(37)
    for desc in all_descriptors():
        for x in sample(desc, rng, 20):
            h = og.try_halve(x)
            if h is not None:
                assert og.g_add(h, h) == x
            if og.is_two_divisible(desc):
                assert h is not None


def test_try_halve_completeness_twist3_box():
    desc = og.Twist3("Z")
    candidates = [og.element(desc, p) for p in box3(3)]
    for p in box3(2):
        x = og.element(desc, p)
        h = og.try_halve(x)
        brute = [c for c in candidates if og.g_add(c, c) == x]
        if h is None:
            assert not brute, f"halver missed {p}: {brute[0].payload}"
        else:
            assert og.g_add(h, h) == x
            assert h in brute


def test_try_halve_completeness_twist4_box():
    desc = og.Twist4("Z")
    candidates = [og.element(desc, p) for p in box4(2)]
    for p in box4(1):
        x = og.element(desc, p)
        h = og.try_halve(x)
        brute = [c for c in candidates if og.g_add(c, c) == x]
        if h is None:
            assert not brute
        else:
            assert h in brute


def test_twist3_halving_spot_values():
    desc = og.Twist3("Z")
    h = og.try_halve(og.element(desc, (2, -2, 3)))
    assert h is not None and h.payload == (1, -1, 2)
    assert og.try_halve(og.element(desc, (2, -2, 4))) is None


def test_strong_unit_bound_property():
    rng = random.Random(41)
    for desc in all_descriptors():
        u = og.unit(desc)
        assert og.strong_unit_bound(og.zero(desc)) >= 1
        for x in sample(desc, rng, 15):
            n = og.strong_unit_bound(x)
            assert n >= 1
            assert og.g_leq(og.g_neg(og.mul_int(n, u)), x)
            assert og.g_leq(x, og.mul_int(n, u))


def test_strong_unit_bound_spot_value():
    desc = og.Twist3("Z")
    assert og.strong_unit_bound(og.element(desc, (2, -5, 9))) == 3


def test_strong_unit_bound_beyond_float_range():
    for alpha in (ALPHA, S.QuadValue.make(0, Fraction(1, 2), 2)):
        x = og.element(og.QuadLattice(alpha, False), (10**400, 0))
        assert og.strong_unit_bound(x) == 10**400
        y = og.element(og.QuadLattice(alpha, False), (0, 10**400))
        assert og.strong_unit_bound(y) == alpha.scale(10**400).floor() + 1


# --- carriers, formatting, sampling -------------------------------------------


def test_carrier_validation():
    with pytest.raises(CarrierError):
        og.element(og.ScaledInt(4), Fraction(1, 3))
    with pytest.raises(CarrierError):
        og.element(og.ScaledDyadic(3), Fraction(1, 5))
    with pytest.raises(CarrierError):
        og.element(og.QuadLattice(ALPHA, False), (Fraction(1, 2), Fraction(0)))
    with pytest.raises(CarrierError):
        og.element(og.Twist3("Z"), (Fraction(1, 2), Fraction(0), Fraction(0)))
    with pytest.raises(CarrierError):
        og.element(og.Twist3("Z"), (1, 2))
    assert og.element(og.ScaledInt(4), Fraction(3, 4)).payload == Fraction(3, 4)
    assert og.element(og.ScaledDyadic(3), Fraction(5, 6)).payload == Fraction(5, 6)


def test_integer_twisted_carriers_hold_ints_by_value():
    t3, t4 = og.Twist3("Z"), og.Twist4("Z")
    assert og.contains(t3, (1, 2, 3))
    assert og.contains(t3, (Fraction(1), Fraction(2), Fraction(3)))
    assert not og.contains(t3, (1, Fraction(1, 2), 0))
    assert not og.contains(t3, (1.0, 0, 0))
    assert not og.contains(t3, (True, 0, 0))
    with pytest.raises(CarrierError, match=r"^\(1,1/2,0\) is not in the carrier$"):
        og.element(t3, (1, Fraction(1, 2), 0))
    for desc, raw in ((t3, (1, -2, 3)), (t4, (1, -2, 3, -4))):
        x = og.element(desc, tuple(map(Fraction, raw)))
        y = og.element(desc, raw)
        assert x == y and hash(x) == hash(y)
        for g in (x, og.zero(desc), og.unit(desc), og.g_add(x, y), og.g_neg(x),
                  og.mul_int(5, x), og.mul_int(-3, x)):
            assert all(type(c) is int for c in g.payload), g.payload


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


@pytest.mark.parametrize("desc", all_descriptors(), ids=lambda d: type(d).__name__ + repr(getattr(d, "n", getattr(d, "q", ""))))
def test_every_operation_keeps_payloads_exact(desc):
    rng = random.Random(53)
    A = pmv.GammaAlgebra(desc)
    xs = sample(desc, rng, 12)
    for x, y in zip(xs, xs[1:]):
        _assert_exact(x.payload)
        # every double has its half, which must not pass through a float
        assert og.try_halve(og.g_add(x, x)) == x
        results = [og.element(desc, x.payload), og.g_add(x, y), og.g_neg(x),
                   og.mul_int(3, x), og.mul_int(-2, x), og.mul_int(2**8 + 1, x),
                   og.mul_int(-(2**8), x), og.try_halve(x)]
        for g in results:
            if g is not None:
                _assert_exact(g.payload)
        # into [0, u], then the algebra operations
        a, b = (pmv.element_of(A, og.g_join(og.g_meet(g, A.unit), A.zero).payload) for g in (x, y))
        for z in (a, b, pmv.odot(a, b), pmv.oplus(a, b)):
            _assert_exact(z.payload)


def test_odd_integer_twisted_coordinates_have_no_half():
    desc = og.Twist3("Z")
    for raw in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 2, 0), (-4, 6, 5)):
        assert og.try_halve(og.element(desc, raw)) is None, raw
    half = og.try_halve(og.element(desc, (-4, 6, -10))).payload
    assert half == (-2, 3, -2) and all(type(c) is int for c in half)


def test_contains_matches_element():
    rng = random.Random(43)
    for desc in all_descriptors():
        for x in sample(desc, rng, 10):
            assert og.contains(desc, x.payload)


# Each family's behaviour, one row per descriptor of all_descriptors(), as
# the families behaved when every law was an isinstance switch:
# (unit, zero, linear, abelian, two-divisible, non-centrality witness,
#  the first 3 random_element draws at seed 99, their strong unit bounds,
#  element(desc, 1/2), element(desc, (1,2,3))).  The last two were
# re-recorded when every family came to report a payload of the wrong
# shape as one CarrierError that names the value.
PINNED = [
    ('1', '0', True, True, False, None, ('4', '4', '-2'), (4, 4, 2), 'CarrierError: 1/2 is not in the carrier', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('1', '0', True, True, False, None, ('19/4', '4', '-7/4'), (5, 4, 2), '1/2', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('1', '0', True, True, True, None, ('33/8', '-5/2', '-1/2'), (5, 3, 1), '1/2', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('1', '0', True, True, True, None, ('1/12', '14/3', '-19/6'), (1, 5, 4), '1/2', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('1', '0', True, True, True, None, ('-8/7', '-5/2', '-1/4'), (2, 3, 1), '1/2', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('1', '0', True, True, False, None, ('4+4*alpha', '-2-3*alpha', '-1-1*alpha'), (6, 4, 2), 'CarrierError: payload 1/2 has the wrong shape', 'CarrierError: payload (1,2,3) has the wrong shape'),
    ('1', '0', True, True, True, None, ('33/8-5/2*alpha', '-1/2-11/2*alpha', '17/4-83/16*alpha'), (4, 3, 3), 'CarrierError: payload 1/2 has the wrong shape', 'CarrierError: payload (1,2,3) has the wrong shape'),
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
        return str(og.element(desc, raw))
    except PmvError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_each_family_is_pinned():
    descs = all_descriptors()
    assert len(descs) == len(PINNED)
    for desc, row in zip(descs, PINNED):
        central, witness = og.is_unit_central(desc)
        assert central == (witness is None)
        got = (
            str(og.unit(desc)), str(og.zero(desc)),
            og.is_linear(desc), og.is_abelian(desc), og.is_two_divisible(desc),
            None if witness is None else str(witness),
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


def test_random_element_reproducible():
    for desc, row in zip(all_descriptors(), PINNED):
        a = [og.random_element(desc, random.Random(99)) for _ in range(5)]
        b = [og.random_element(desc, random.Random(99)) for _ in range(5)]
        assert a == b
        rng = random.Random(99)
        draws = [og.random_element(desc, rng) for _ in range(3)]
        assert tuple(str(x) for x in draws) == row[6], desc
        assert tuple(og.strong_unit_bound(x) for x in draws) == row[7], desc


def test_format_payload_strings():
    assert og.format_payload(og.ScaledInt(2), Fraction(1, 2)) == "1/2"
    t3 = og.format_payload(og.Twist3("Z"), (Fraction(1), Fraction(-2), Fraction(3)))
    assert "1" in t3 and "-2" in t3 and "3" in t3


@settings(max_examples=100, deadline=None)
@given(st.integers(-200, 200), st.integers(-200, 200), st.integers(1, 10))
def test_scaled_int_is_plain_arithmetic(a, b, n):
    desc = og.ScaledInt(n)
    x = og.element(desc, Fraction(a, n))
    y = og.element(desc, Fraction(b, n))
    assert og.g_add(x, y).payload == Fraction(a + b, n)
    assert og.g_leq(x, y) == (a <= b)
    assert og.g_meet(x, y).payload == min(Fraction(a, n), Fraction(b, n))
