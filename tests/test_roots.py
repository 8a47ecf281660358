"""Tests for square roots: per-element, mappings, identities, greatest subalgebras."""

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import pytest

from pmvroots import dsl
from pmvroots import ogroups as og
from pmvroots import pmv
from pmvroots import roots
from pmvroots import scalars as S
from pmvroots.errors import (
    CarrierError,
    InternalError,
    MismatchError,
    ParameterError,
    PmvError,
    UnsupportedOperationError,
)
from test_closures import GRID, PROFILE_GRID

ALPHA = S.QuadValue.make(Fraction(-1), Fraction(1), 2)
M = pmv.finite_mv_chain


def finite_corpus():
    return [
        M(1),
        M(2),
        M(3),
        M(4),
        M(5),
        M(6),
        M(7),
        M(8),
        pmv.finite_product([M(1), M(2)]),
        pmv.finite_product([M(1), M(4)]),
        pmv.finite_product([M(2), M(3)]),
        pmv.finite_product([M(1), M(1)]),
        pmv.finite_product([M(1), M(1), M(2)]),
    ]


def brute_sqrt(A, x):
    """Independent exhaustive oracle: the greatest a with a*a = x dominating
    every y with y*y <= x, or None."""
    sq_le = [y for y in pmv.carrier(A) if pmv.leq(pmv.odot(y, y), x)]
    for a in pmv.carrier(A):
        if pmv.odot(a, a) != x:
            continue
        if all(pmv.leq(y, a) for y in sq_le):
            return a
    return None


# --- finite roots against the exhaustive oracle --------------------------------


@pytest.mark.parametrize("A", finite_corpus(), ids=lambda a: "x".join(map(str, pmv.chain_lengths(a))))
def test_element_sqrt_matches_brute_oracle(A):
    for x in pmv.carrier(A):
        expected = brute_sqrt(A, x)
        got = roots.element_sqrt(A, x)
        if expected is None:
            assert got.status == "not_exists", pmv.value_of(x)
            assert got.value is None
            assert got.reason
        else:
            assert got.status == "exists", pmv.value_of(x)
            assert got.value == expected
            # defining property re-checked directly
            assert pmv.odot(got.value, got.value) == x


def sqrt_element_finite_on_elements(M, x):
    """The exhaustive search as ``roots.sqrt_element_finite`` made it on boxed
    elements, before it searched carrier indices: its oracle."""
    if not isinstance(M, pmv.FiniteAlgebra):
        raise UnsupportedOperationError("the exhaustive procedure needs a finite algebra")
    squares = [(y, pmv.odot(y, y)) for y in pmv.carrier(M)]
    dominated = [y for y, s in squares if pmv.leq(s, x)]
    candidates = [a for a, s in squares if s == x]
    if not candidates:
        return roots.SqrtResult("not_exists", reason=og.NO_CANDIDATE)
    best, best_misses = None, None
    for a in candidates:
        misses = [y for y in dominated if not pmv.leq(y, a)]
        if not misses:
            return roots.SqrtResult("exists", a)
        if best_misses is None or len(misses) < len(best_misses):
            best, best_misses = a, misses
    return roots.SqrtResult("not_exists", reason=roots.SQ2_VIOLATED, witness=best_misses[0],
                            note=f"candidate {best} does not dominate {best_misses[0]}")


def chain_shapes(limit=64, least=1, size=1):
    """The chain lengths n_1 <= n_2 <= ... of every product of chains with at
    most ``limit`` elements."""
    for n in range(least, limit):
        if size * (n + 1) > limit:
            return
        yield (n,)
        for rest in chain_shapes(limit, n, size * (n + 1)):
            yield (n,) + rest


SEARCH_SHAPES = [(n,) for n in range(1, 13)] + [s for s in chain_shapes() if len(s) > 1]


@pytest.mark.parametrize("shape", SEARCH_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_the_index_search_matches_the_element_search(shape):
    A = M(shape[0]) if len(shape) == 1 else pmv.finite_product([M(n) for n in shape])
    for x in pmv.carrier(A):
        got, want = roots.sqrt_element_finite(A, x), sqrt_element_finite_on_elements(A, x)
        assert (got.status, got.reason, got.value, got.witness, got.note) == (
            want.status, want.reason, want.value, want.witness, want.note), (shape, x)


def test_the_search_covers_every_small_chain_product():
    assert len(SEARCH_SHAPES) == 12 + 134 and (1, 1, 1, 1, 1, 1) in SEARCH_SHAPES and (3, 15) in SEARCH_SHAPES


def test_the_search_refuses_an_element_of_another_algebra():
    for A, B in ((M(3), M(4)), (M(2), pmv.finite_product([M(1), M(1)]))):
        with pytest.raises(MismatchError):
            roots.sqrt_element_finite(A, pmv.one_elem(B))
        with pytest.raises(MismatchError):
            sqrt_element_finite_on_elements(A, pmv.one_elem(B))
    with pytest.raises(UnsupportedOperationError):
        roots.sqrt_element_finite(pmv.GammaAlgebra(og.ScaledInt(2)), pmv.one_elem(M(2)))


def test_chain_closed_form_oracle():
    # On the n-chain, j/n has a root iff j = 0 (root floor(n/2)/n) or n + j
    # is even (root (n + j) / 2n).
    for n in range(1, 13):
        A = M(n)
        for j in range(n + 1):
            r = roots.element_sqrt(A, pmv.element_of(A, Fraction(j, n)))
            if j == 0:
                assert r.status == "exists"
                assert pmv.value_of(r.value) == Fraction(n // 2, n)
            elif (n + j) % 2 == 0:
                assert r.status == "exists"
                assert pmv.value_of(r.value) == Fraction(n + j, 2 * n)
            else:
                assert r.status == "not_exists"


def test_failure_reason_constants():
    r = roots.element_sqrt(M(4), pmv.element_of(M(4), Fraction(1, 4)))
    assert r.status == "not_exists" and r.reason == og.NO_CANDIDATE
    z = roots.sqrt_zero(pmv.GammaAlgebra(og.Twist3("Z")))
    assert z.status == "not_exists" and z.reason == og.NO_MAX
    assert z.note == "nilpotents (0,p,q) are unbounded in p"



# --- one root rule for both algebra kinds ---------------------------------------
#
# The finite route once stated a chain's root in ``roots._chain_root``, and
# ``ScaledInt`` answered 0 itself and left the base class's halving rule to
# the rest; ``og.chain_root`` replaced both, and the replaced routes are the
# oracles here.


def test_chain_root_matches_the_exhaustive_search_on_every_chain():
    for n in range(1, 41):
        A = M(n)
        for x in pmv.carrier(A):
            r = roots.sqrt_element_finite(A, x)
            k = pmv.value_of(x) * n
            assert og.chain_root(n, k) == (pmv.value_of(r.value) * n if r.exists else None), (n, k)


def test_the_scaled_int_root_is_the_halving_rule_above_zero():
    for n in range(1, 65):
        desc = og.ScaledInt(n)
        for k in range(1, n + 1):
            p = Fraction(k, n)
            assert desc.root(p) == og.GroupDescriptor.root(desc, p), (n, k)


def test_the_scaled_int_rootless_element_is_the_parity_formula():
    for n in range(1, 65):
        k = 1 + n % 2
        assert og.ScaledInt(n).rootless() == (Fraction(k, n) if k <= n else None), n


@pytest.mark.parametrize("kind, target", [(pmv.FiniteAlgebra, "M(4)"), (pmv.GammaAlgebra, "gamma(Z/4)")])
def test_the_root_check_covers_both_algebra_kinds(monkeypatch, kind, target):
    A = dsl.parse_algebra(target)
    x = dsl.parse_element(A, "1/2")
    right = roots.element_sqrt(A, x).value
    wrong = A.lneg(right.payload)  # 1/4, whose square is 0
    monkeypatch.setattr(kind, "root", lambda algebra, p: (wrong, None, None))
    with pytest.raises(InternalError, match="the root a has a"):
        roots.element_sqrt(A, x)


# --- interval algebras over groups ------------------------------------------------


def test_gamma_even_chain_agreement():
    for n in (1, 2, 3, 4, 5, 6):
        F_alg = M(2 * n)
        G_alg = pmv.GammaAlgebra(og.ScaledInt(2 * n))
        for x in pmv.carrier(F_alg):
            v = pmv.value_of(x)
            rf = roots.sqrt_element_finite(F_alg, x)
            rg = roots.element_sqrt(G_alg, pmv.element_of(G_alg, v))
            assert rf.status == rg.status
            if rf.status == "exists":
                assert pmv.value_of(rf.value) == pmv.value_of(rg.value)


def test_dyadic_gamma_halving_formula():
    A = pmv.GammaAlgebra(og.ScaledDyadic(1))
    rng = random.Random(5)
    for _ in range(200):
        v = Fraction(rng.randint(0, 256), 256)
        r = roots.element_sqrt(A, pmv.element_of(A, v))
        assert r.status == "exists"
        assert pmv.value_of(r.value) == (v + 1) / 2
    z = roots.sqrt_zero(A)
    assert z.status == "exists"
    assert pmv.value_of(z.value) == Fraction(1, 2)
    # strict: r(0) equals its own complement
    assert pmv.lneg(z.value) == z.value


def test_quad_lattice_roots():
    A = pmv.GammaAlgebra(og.QuadLattice(ALPHA, False))
    # x = 4*alpha - 1 is the square of 2*alpha, and the halved candidate
    # stays in the lattice
    x = pmv.element_of(A, (Fraction(-1), Fraction(4)))
    r = roots.element_sqrt(A, x)
    assert r.status == "exists"
    assert pmv.value_of(r.value) == (Fraction(0), Fraction(2))
    # x = alpha has no candidate: (alpha + 1)/2 leaves Z + Z*alpha
    r2 = roots.element_sqrt(A, pmv.element_of(A, (Fraction(0), Fraction(1))))
    assert r2.status == "not_exists"
    # zero has no root: the nilpotents are dense below 1/2 with no maximum
    z = roots.sqrt_zero(A)
    assert z.status == "not_exists"


def test_twist3_spot_roots():
    A = pmv.GammaAlgebra(og.Twist3("Z"))
    r = roots.element_sqrt(A, pmv.element_of(A, (Fraction(1), Fraction(-2), Fraction(2))))
    assert r.status == "exists"
    assert pmv.value_of(r.value) == (Fraction(1), Fraction(-1), Fraction(1))
    sq = pmv.odot(r.value, r.value)
    assert pmv.value_of(sq) == (Fraction(1), Fraction(-2), Fraction(2))
    bad = roots.element_sqrt(A, pmv.element_of(A, (Fraction(1), Fraction(-1), Fraction(2))))
    assert bad.status == "not_exists" and bad.reason == og.NO_CANDIDATE


def test_twist3_bounded_check_agreement():
    A = pmv.GammaAlgebra(og.Twist3("Z"))
    samples = [
        (0, 0, 0),
        (0, 0, 2),
        (0, 1, -1),
        (1, -2, 2),
        (1, -1, 2),
        (1, 0, 0),
        (0, 2, 1),
    ]
    for t in samples:
        x = pmv.element_of(A, tuple(map(Fraction, t)))
        report = roots.twist3_bounded_check(A, x, bound=4)
        assert report["agrees"], (t, report)
        assert report["bound"] == 4


@pytest.mark.parametrize("target, element", [("M(3)", "1/3"), ("gamma(Z/3)", "1/3"), ("gamma(twist3(D))", "(0,0,0)")])
def test_the_box_check_refuses_another_group_before_it_reads_the_bound(target, element):
    A = dsl.parse_algebra(target)
    x = dsl.parse_element(A, element)
    for bound in (3, 99):
        with pytest.raises(ParameterError, match=r"^the bounded re-verification is specific to gamma\(twist3\(Z\)\)$"):
            roots.twist3_bounded_check(A, x, bound=bound)


def twist3_bounded_check_oracle(A, x, bound):
    """The box re-verification as first written: every operation from scratch.

    Each box element is squared again wherever it is used, and the box is
    filtered through 0 <= y <= 1 after element_of has built it.
    """
    res = roots.element_sqrt(A, x)
    box = []
    for b in range(-bound, bound + 1):
        for c in range(-bound, bound + 1):
            for h in (0, 1):
                try:
                    box.append(pmv.element_of(A, (Fraction(h), Fraction(b), Fraction(c))))
                except Exception:
                    pass
    box = [y for y in box if pmv.leq(pmv.zero_elem(A), y) and pmv.leq(y, pmv.one_elem(A))]
    candidates = [a for a in box if pmv.odot(a, a) == x]
    agree = True
    detail = ""
    if res.exists:
        a = res.value
        dominated = [y for y in box if pmv.leq(pmv.odot(y, y), x)]
        bad = [y for y in dominated if not pmv.leq(y, a)]
        agree = pmv.odot(a, a) == x and not bad
        detail = f"verified against {len(dominated)} in-box dominated elements"
    elif res.reason == og.NO_CANDIDATE:
        agree = not candidates
        detail = f"no in-box candidate among {len(box)} elements"
    else:
        nil = [y for y in box if pmv.odot(y, y) == pmv.zero_elem(A)]
        wider = []
        for b in range(-bound - 1, bound + 2):
            for c in range(-bound - 1, bound + 2):
                try:
                    w = pmv.element_of(A, (Fraction(0), Fraction(b), Fraction(c)))
                except Exception:
                    continue
                if (pmv.leq(pmv.zero_elem(A), w) and pmv.leq(w, pmv.one_elem(A))
                        and pmv.odot(w, w) == pmv.zero_elem(A)):
                    wider.append(w)
        agree = all(any(pmv.leq(y, w) and y != w for w in wider) for y in nil)
        detail = "every in-box nilpotent is exceeded in the enlarged box"
    return {"agrees": agree, "result": res, "detail": detail, "bound": bound}


def _assert_bounded_check_matches_oracle(A, x, bound):
    got = roots.twist3_bounded_check(A, x, bound=bound)
    want = twist3_bounded_check_oracle(A, x, bound)
    assert {k: got[k] for k in ("agrees", "detail", "bound")} == {
        k: want[k] for k in ("agrees", "detail", "bound")
    }, pmv.value_of(x)
    assert got["result"] == want["result"]


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
def test_twist3_bounded_check_matches_the_oracle_on_every_in_box_element(bound):
    A = pmv.GammaAlgebra(og.Twist3("Z"))
    seen = 0
    for h, b, c in itertools.product((0, 1), range(-bound, bound + 1), range(-bound, bound + 1)):
        try:
            x = pmv.element_of(A, (Fraction(h), Fraction(b), Fraction(c)))
        except CarrierError:
            continue
        _assert_bounded_check_matches_oracle(A, x, bound)
        seen += 1
    # (0, b > 0, c), (0, 0, c >= 0), (1, b < 0, c) and (1, 0, c <= 0)
    assert seen == 2 * bound * (2 * bound + 1) + 2 * (bound + 1)


@pytest.mark.parametrize("payload, reason", [
    ((1, -6, 4), None),  # a root: head 1, even coordinates
    ((0, 3, -2), og.NO_CANDIDATE),  # head 0, squares to 0
    ((1, -3, 5), og.NO_CANDIDATE),  # head 1, an odd coordinate
    ((0, 0, 0), og.NO_MAX),  # zero
])
def test_twist3_bounded_check_matches_the_oracle_at_bound_11(payload, reason):
    A = pmv.GammaAlgebra(og.Twist3("Z"))
    x = pmv.element_of(A, tuple(map(Fraction, payload)))
    assert roots.element_sqrt(A, x).reason == reason
    _assert_bounded_check_matches_oracle(A, x, 11)


@pytest.mark.parametrize("bound", range(roots.MAX_BOX_BOUND + 1))
def test_twist3_bounded_check_matches_the_oracle_at_every_bound(bound):
    A = pmv.GammaAlgebra(og.Twist3("Z"))
    # one payload per verdict: a root, both kinds of no candidate, zero
    for payload in ((1, -6, 4), (0, 3, -2), (1, -3, 5), (0, 0, 0)):
        _assert_bounded_check_matches_oracle(A, pmv.element_of(A, payload), bound)


# coordinates beyond 64 bits, as the benchmark draws them
WIDE = 2**70 + 12345
DEEP = -(3**45)


@pytest.mark.parametrize("payload, reason", [
    ((1, -6, 4), None),
    ((1, -2 * WIDE - 2, 2 * DEEP), None),
    ((0, 3, -2), og.NO_CANDIDATE),
    ((0, WIDE + 1, DEEP), og.NO_CANDIDATE),
    ((1, -3, 5), og.NO_CANDIDATE),
    ((0, 0, 0), og.NO_MAX),
])
def test_twist3_bounded_check_matches_the_oracle_at_the_cap(payload, reason):
    A = pmv.GammaAlgebra(og.Twist3("Z"))
    x = pmv.element_of(A, payload)
    assert roots.element_sqrt(A, x).reason == reason
    _assert_bounded_check_matches_oracle(A, x, roots.MAX_BOX_BOUND)


@pytest.mark.parametrize("bound", [0, 1, 5, 16])
def test_twist3_box_is_built_from_the_order(bound):
    A = pmv.GammaAlgebra(og.Twist3("Z"))
    box = roots._twist3_box(A, roots._upper_pairs(bound))
    for p in box:
        assert pmv.element_of(A, p).payload == p
    size = 2 * bound * (2 * bound + 1) + 2 * (bound + 1)
    assert len(box) == len(set(box)) == size
    # no point of the cube that lies in [0, u] is left out
    inside = set()
    for p in itertools.product((0, 1), range(-bound, bound + 1), range(-bound, bound + 1)):
        try:
            pmv.element_of(A, p)
        except CarrierError:
            continue
        inside.add(p)
    assert set(box) == inside
    # the enlarged box of the nilpotent verdict is the head-0 part of the box
    # at bound + 1: the box's head-0 points and the rim
    rim = roots._twist3_box(A, roots._rim_pairs(bound + 1), heads=(0,))
    wider = [p for p in roots._twist3_box(A, roots._upper_pairs(bound + 1)) if p[0] == 0]
    assert len(rim) == len(set(rim)) == 4 * (bound + 1)
    assert sorted([p for p in box if p[0] == 0] + rim) == sorted(wider)
    for payload in ((0, 3, -2), (1, -3, 5)):
        report = roots.twist3_bounded_check(A, pmv.element_of(A, payload), bound=bound)
        assert report["detail"] == f"no in-box candidate among {size} elements"


def twist3_bounded_check_by_rebuilding(A, x, bound):
    """The box re-verification as it was before the rim: the nilpotent
    verdict builds, checks and squares the whole enlarged box."""
    res = roots.element_sqrt(A, x)
    xp, zero = x.payload, A.zero
    box = roots._twist3_box(A, roots._upper_pairs(bound))
    squares = [A.odot(p, p) for p in box]
    if res.exists:
        a = res.value.payload
        dominated = [p for p, sq in zip(box, squares) if A.leq(sq, xp)]
        bad = [p for p in dominated if not A.leq(p, a)]
        agree = A.odot(a, a) == xp and not bad
        detail = f"verified against {len(dominated)} in-box dominated elements"
    elif res.reason == og.NO_CANDIDATE:
        agree = xp not in squares
        detail = f"no in-box candidate among {len(box)} elements"
    else:
        nil = [p for p, sq in zip(box, squares) if sq == zero]
        enlarged = roots._twist3_box(A, roots._upper_pairs(bound + 1), heads=(0,))
        wider = [w for w in enlarged if A.odot(w, w) == zero]
        top, wider_top = reduce(A.join, nil), reduce(A.join, wider)
        agree = A.leq(top, wider_top) and top != wider_top
        detail = "every in-box nilpotent is exceeded in the enlarged box"
    return {"agrees": agree, "result": res, "detail": detail, "bound": bound}


@pytest.mark.parametrize("bound", range(roots.MAX_BOX_BOUND + 1))
def test_twist3_bounded_check_squares_only_the_rim_of_the_enlarged_box(monkeypatch, bound):
    A = pmv.GammaAlgebra(og.Twist3("Z"))
    # every branch: a root, both kinds of no candidate and the nilpotent
    # verdict, on elements inside and outside the box
    payloads = [(1, -6, 4), (1, -2 * bound - 2, 2), (0, 3, -2), (0, bound + 1, 0), (1, -3, 5), (0, 0, 0)]
    for payload in payloads:
        x = pmv.element_of(A, payload)
        assert roots.twist3_bounded_check(A, x, bound) == twist3_bounded_check_by_rebuilding(A, x, bound)
    squared = []
    odot = pmv.GammaAlgebra.odot
    monkeypatch.setattr(pmv.GammaAlgebra, "odot", lambda alg, p, q: squared.append(p) or odot(alg, p, q))
    report = roots.twist3_bounded_check(A, pmv.element_of(A, (0, 0, 0)), bound)
    assert report["result"].reason == og.NO_MAX
    # the box once, then the 4 (bound + 1) rim points, each once
    box = 2 * bound * (2 * bound + 1) + 2 * (bound + 1)
    assert len(squared) == box + 4 * (bound + 1) and len(set(squared)) == len(squared)


@pytest.mark.parametrize("bound", [-1, 17])
def test_twist3_bounded_check_rejects_a_bound_outside_the_range(bound):
    A = pmv.GammaAlgebra(og.Twist3("Z"))
    x = pmv.element_of(A, (Fraction(0), Fraction(0), Fraction(0)))
    with pytest.raises(ParameterError, match=f"between 0 and 16, not {bound}"):
        roots.twist3_bounded_check(A, x, bound=bound)


def test_twist3_bounded_check_accepts_the_ends_of_the_range():
    A = pmv.GammaAlgebra(og.Twist3("Z"))
    x = pmv.element_of(A, (Fraction(1), Fraction(-2), Fraction(2)))
    assert roots.MAX_BOX_BOUND == 16
    for bound in (0, roots.MAX_BOX_BOUND):
        _assert_bounded_check_matches_oracle(A, x, bound)


def test_twist3_bounded_check_lets_internal_errors_through(monkeypatch):
    A = pmv.GammaAlgebra(og.Twist3("Z"))
    x = pmv.element_of(A, (Fraction(1), Fraction(-2), Fraction(2)))
    odot = pmv.GammaAlgebra.odot

    def faulty(algebra, p, q):
        if p == (1, 0, 0):
            raise TypeError("internal fault")
        return odot(algebra, p, q)

    monkeypatch.setattr(pmv.GammaAlgebra, "odot", faulty)
    with pytest.raises(TypeError, match="internal fault"):
        roots.twist3_bounded_check(A, x, bound=1)


# --- the root rules against the dispatch they replaced ------------------------------
#
# ``element_sqrt`` on a group interval once picked each family's procedure
# with a type switch, and ``sqrt_zero`` found the top of the nilpotents with
# a second one; the descriptors' ``root`` methods replaced both.


def zero_root_payload(desc):
    """The root of 0 as the second switch found it: u/2 when u halves,
    floor(n/2)/n on (1/n)Z, factor by factor on a product, else None."""
    half = og.try_halve(desc, desc.unit())
    if half is not None:
        return half
    if isinstance(desc, og.ScaledInt):
        return Fraction(desc.n // 2, desc.n)
    if isinstance(desc, og.ProductGroup):
        parts = [zero_root_payload(f) for f in desc.factors]
        return None if any(p is None for p in parts) else tuple(parts)
    return None


def zero_root_by_switch(A):
    payload = zero_root_payload(A.desc)
    if payload is None:
        return roots.SqrtResult("not_exists", reason=og.NO_MAX, note="the nilpotent set is upward unbounded")
    return roots.SqrtResult("exists", pmv.Element(A, payload))


TWIST3_NOTE = (
    "elements with first coordinate 0 square to 0 and stay below any (1,s,t); "
    "squares of (1,p,q) compare lexicographically with (1,2s,2t), so the halved "
    "candidate dominates every square below x regardless of coordinate size"
)


def sqrt_by_switch(A, x):
    """``element_sqrt`` on a group interval as the switch over the families
    decided it, each procedure checking its own root; at 0, where no
    procedure covered the group, the answer of the second switch."""
    desc, p = A.desc, x.payload
    if desc == og.Twist3("Z"):
        if p == A.zero:
            return roots.SqrtResult("not_exists", reason=og.NO_MAX, note="nilpotents (0,p,q) are unbounded in p")
        if p[0] == 0:
            return roots.SqrtResult("not_exists", reason=og.NO_CANDIDATE, note="only 0 and head-1 pairs are squares")
        if p[1] % 2 == 0 and p[2] % 2 == 0:
            a = pmv.element_of(A, (1, p[1] // 2, p[2] // 2))
            assert pmv.odot(a, a) == x
            return roots.SqrtResult("exists", a, note=TWIST3_NOTE)
        return roots.SqrtResult("not_exists", reason=og.NO_CANDIDATE, note="head-1 squares have even coordinates")
    if isinstance(desc, og.Twist3):
        if p == A.zero:
            return zero_root_by_switch(A)
        if p == A.unit:
            return roots.SqrtResult("exists", pmv.one_elem(A))
        raise UnsupportedOperationError("general roots over twisted Z^3 carriers are only decided for the integer tag")
    central, _ = og.is_unit_central(desc)
    if central and desc.linear:
        if p == A.zero:
            return zero_root_by_switch(A)
        h = og.try_halve(desc, desc.add(p, A.unit))
        if h is None:
            return roots.SqrtResult("not_exists", reason=og.NO_CANDIDATE)
        a = pmv.Element(A, h)
        assert pmv.odot(a, a) == x
        return roots.SqrtResult("exists", a)
    if isinstance(desc, og.ProductGroup):
        parts = []
        for f, c in zip(desc.factors, p):
            sub = pmv.GammaAlgebra(f)
            r = sqrt_by_switch(sub, pmv.Element(sub, c))
            if not r.exists:
                return roots.SqrtResult("not_exists", reason=r.reason, note=f"factor {f!r}: {r.note or r.reason}")
            parts.append(r.value.payload)
        a = pmv.Element(A, tuple(parts))
        assert pmv.odot(a, a) == x
        return roots.SqrtResult("exists", a)
    if p == A.zero:
        return zero_root_by_switch(A)
    raise UnsupportedOperationError(f"no root procedure covers {desc!r}")


def answer(procedure, A, x):
    """The result of ``procedure`` with the repr of its root (which tells an
    int coordinate from an integral Fraction), or the type and message of
    its refusal."""
    try:
        r = procedure(A, x)
    except PmvError as exc:
        return type(exc), str(exc)
    return r, repr(r.value and r.value.payload)


# a lexicographic product that is not a chain, one whose unit is not
# central, and prod(Z/1,lex(Z/1,prod(Z/1,Z/1))), whose nilpotents have no top
ROOT_GRID = GRID + list(PROFILE_GRID) + [
    og.Lex(og.ScaledDyadic(1), og.ProductGroup((og.ScaledInt(1), og.ScaledInt(1)))),
    og.Lex(og.Twist3("Z"), og.ScaledDyadic(1)),
    og.ProductGroup((og.ScaledInt(1), og.Lex(og.ScaledInt(1), og.ProductGroup((og.ScaledInt(1), og.ScaledInt(1)))))),
]


def points(desc, rng, draws=4):
    """0, u and the absolute values of seeded draws of ``desc``, clamped
    into [0, u]."""
    zero, unit = desc.zero(), desc.unit()
    drawn = (desc.random(rng, 1, 5) for _ in range(draws))
    return [zero, unit, *(desc.meet(desc.join(p, desc.neg(p)), unit) for p in drawn)]


def test_each_root_rule_matches_the_switch():
    rng = random.Random(29)
    for desc in ROOT_GRID:
        A = pmv.GammaAlgebra(desc)
        for p in points(desc, rng):
            x = pmv.Element(A, p)
            assert answer(roots.element_sqrt, A, x) == answer(sqrt_by_switch, A, x), (desc, p)


def test_sqrt_zero_answers_as_the_root_of_zero():
    # sqrt_zero is the root rule at 0, so a product's note names the factor
    # without a top of its nilpotents, and twist3(Z) gives its own note;
    # existence, value (with its repr) and reason are those of the second
    # switch on every group, chain or not
    for desc in ROOT_GRID:
        A = pmv.GammaAlgebra(desc)
        got, want = roots.sqrt_zero(A), zero_root_by_switch(A)
        assert got == roots.element_sqrt(A, pmv.zero_elem(A)), desc
        assert (got.status, got.value, got.reason) == (want.status, want.value, want.reason), desc
        assert repr(got.value and got.value.payload) == repr(want.value and want.value.payload), desc


@pytest.mark.parametrize("text", ["lex(twist3(D),D/1)", "lex(twist3(D),prod(D/1,D/1))",
                                  "lex(twist3(Q),lex(D/1,twist3(D)))"])
def test_the_root_of_zero_tops_the_nilpotents_where_the_unit_is_not_central(text):
    # the base rule answers u/2 at 0; with a non-central unit, y (.) y = 0
    # still forces y <= u/2 (the lex head is linear, and equal heads force
    # tail(y) <= 0), so every drawn nilpotent of [0, u] lies below the root.
    # The head's first scalar is set to 0, 1/4, 1/2, 3/4 or 1, so most draws
    # lie in [0, u], and its other two scalars to 0 in a third of the draws,
    # so many nilpotents share the root's head and differ in the tail
    desc = dsl.parse_group(text)
    A = pmv.GammaAlgebra(desc)
    assert desc.witness() is not None
    root = roots.element_sqrt(A, pmv.zero_elem(A)).value.payload
    rng = random.Random(31)
    inside, nilpotent, at_root_head = 0, 0, 0
    for _ in range(2000):
        draw = desc.draw(rng, 1, 2)
        draw[0] = rng.choice([(0, 1), (1, 4), (1, 2), (1, 2), (3, 4), (1, 1)])
        if rng.randrange(3) == 0:
            draw[1] = draw[2] = (0, 1)
        p = desc.from_draw(draw)
        if not (A.leq(A.zero, p) and A.leq(p, A.unit)):
            continue
        inside += 1
        if A.odot(p, p) == A.zero:
            nilpotent += 1
            at_root_head += p[0] == root[0]
            assert A.leq(p, root), (text, p)
    assert inside > 1500 and nilpotent > 700 and at_root_head > 40, (inside, nilpotent, at_root_head)


# --- square-root mappings ------------------------------------------------------------


def test_sqrt_map_exists_iff_boolean():
    for A in finite_corpus():
        smap = roots.sqrt_map(A)
        boolean = all(pmv.is_boolean_elem(x) for x in pmv.carrier(A))
        assert (smap is not None) == boolean
        if smap is not None:
            assert not smap.strict
            assert smap.r0 == pmv.zero_elem(A)
            assert smap.w == pmv.one_elem(A)
            for x in pmv.carrier(A):
                assert smap.mapping[x] == x


def test_sqrt_map_none_has_concrete_failure():
    A = M(2)
    assert roots.sqrt_map(A) is None
    missing = [
        x for x in pmv.carrier(A) if roots.element_sqrt(A, x).status == "not_exists"
    ]
    assert [pmv.value_of(x) for x in missing] == [Fraction(1, 2)]


def test_sqrt_boolean_offsets():
    P = pmv.finite_product([M(1), M(4)])
    b = pmv.element_of(P, (Fraction(1), Fraction(0)))
    r = roots.sqrt_boolean(P, b)
    assert r.status == "exists"
    assert pmv.value_of(r.value) == (Fraction(1), Fraction(1, 2))
    z = roots.sqrt_zero(P)
    assert r.value == pmv.oplus(b, z.value)
    assert roots.element_sqrt(P, b).value == r.value


# --- identity battery ------------------------------------------------------------------


@dataclass
class IdentityStat:
    checked: int = 0
    violations: list[str] = field(default_factory=list)


def sqrt_identities_check(A: pmv.Algebra, pairs) -> dict[str, IdentityStat]:
    """Evaluate the root identities of the paper on the given element pairs.

    Each identity is checked only where its guards hold (the roots it
    mentions exist); the returned stats count the instances actually
    exercised and list every violation.
    """
    stats = {
        name: IdentityStat()
        for name in (
            "neg_arrow",
            "join",
            "meet",
            "oplus",
            "odot",
            "square",
            "double",
            "monotone",
            "bound",
            "zero_bound",
        )
    }
    r0 = roots.sqrt_zero(A)
    commutative = isinstance(A, pmv.FiniteAlgebra) or A.desc.abelian

    def record(name, ok, msg):
        stats[name].checked += 1
        if not ok:
            stats[name].violations.append(msg)

    if r0.exists:
        z = r0.value
        record(
            "zero_bound",
            pmv.leq(z, pmv.meet(pmv.lneg(z), pmv.rneg(z))),
            f"sqrt(0)={z} exceeds the meet of its negations",
        )
    for x, y in pairs:
        rx = roots.element_sqrt(A, x)
        ry = roots.element_sqrt(A, y)
        if rx.exists and r0.exists:
            rn = roots.element_sqrt(A, pmv.lneg(x))
            record(
                "neg_arrow",
                rn.exists and rn.value == pmv.oplus(pmv.lneg(rx.value), r0.value),
                f"sqrt(neg {x}) != sqrt({x}) -> sqrt(0)",
            )
            record(
                "bound",
                pmv.leq(rx.value, pmv.meet(pmv.oplus(x, r0.value), pmv.oplus(r0.value, x))),
                f"sqrt({x}) escapes the additive bound",
            )
        if rx.exists and ry.exists:
            rj = roots.element_sqrt(A, pmv.join(x, y))
            record(
                "join",
                rj.exists and rj.value == pmv.join(rx.value, ry.value),
                f"sqrt({x} v {y}) != sqrt({x}) v sqrt({y})",
            )
            rm = roots.element_sqrt(A, pmv.meet(x, y))
            record(
                "meet",
                rm.exists and rm.value == pmv.meet(rx.value, ry.value),
                f"sqrt({x} ^ {y}) != sqrt({x}) ^ sqrt({y})",
            )
            if pmv.leq(x, y):
                record("monotone", pmv.leq(rx.value, ry.value), f"sqrt not monotone at {x} <= {y}")
            if commutative and r0.exists:
                ro = roots.element_sqrt(A, pmv.oplus(x, y))
                record(
                    "oplus",
                    ro.exists
                    and ro.value == pmv.oplus(pmv.odot(rx.value, pmv.lneg(r0.value)), ry.value),
                    f"additive identity fails at ({x},{y})",
                )
                rp = roots.element_sqrt(A, pmv.odot(x, y))
                record(
                    "odot",
                    rp.exists and rp.value == pmv.join(pmv.odot(rx.value, ry.value), r0.value),
                    f"multiplicative identity fails at ({x},{y})",
                )
        if r0.exists:
            rs = roots.element_sqrt(A, pmv.odot(x, x))
            record(
                "square",
                rs.exists and rs.value == pmv.join(x, r0.value),
                f"sqrt({x} (.) {x}) != {x} v sqrt(0)",
            )
            rd = roots.element_sqrt(A, pmv.oplus(x, x))
            record("double", rd.exists, f"sqrt({x} (+) {x}) does not exist")
    return stats


EXPECTED_IDENTITY_KEYS = {
    "neg_arrow",
    "join",
    "meet",
    "oplus",
    "odot",
    "square",
    "double",
    "monotone",
    "bound",
    "zero_bound",
}


def test_identities_exhaustive_even_chains():
    for n in (1, 2, 3, 4):
        A = M(2 * n)
        pairs = list(itertools.product(pmv.carrier(A), repeat=2))
        stats = sqrt_identities_check(A, pairs)
        assert set(stats) == EXPECTED_IDENTITY_KEYS
        for name, stat in stats.items():
            # an identity is only exercised on pairs where the needed roots
            # exist, so the counter tracks applicable pairs
            assert stat.checked > 0, name
            assert not stat.violations, (name, stat.violations[:3])


def test_identities_dyadic_samples():
    A = pmv.GammaAlgebra(og.ScaledDyadic(1))
    rng = random.Random(7)
    pairs = [
        (
            pmv.element_of(A, Fraction(rng.randint(0, 128), 128)),
            pmv.element_of(A, Fraction(rng.randint(0, 128), 128)),
        )
        for _ in range(150)
    ]
    stats = sqrt_identities_check(A, pairs)
    for name, stat in stats.items():
        assert not stat.violations, name


# --- greatest square-root subalgebras ----------------------------------------------------


def test_greatest_sqrt_stages_even_chain():
    g = roots.greatest_sqrt_subalgebra(M(4), "ambient")
    stage_values = [sorted(pmv.value_of(x) for x in s) for s in g.stages]
    assert stage_values[0] == [Fraction(0), Fraction(1, 2), Fraction(1)]
    assert stage_values[1] == [Fraction(0), Fraction(1)]
    assert stage_values[-1] == [Fraction(1)]
    assert not g.fixpoint_is_subalgebra

    rel = roots.greatest_sqrt_subalgebra(M(4), "relative")
    assert sorted(pmv.value_of(x) for x in rel.fixpoint) == [Fraction(0), Fraction(1)]
    assert rel.fixpoint_is_subalgebra


def test_greatest_sqrt_boolean_is_everything():
    B = pmv.finite_product([M(1), M(1)])
    for quantifier in ("ambient", "relative"):
        g = roots.greatest_sqrt_subalgebra(B, quantifier)
        assert len(g.fixpoint) == B.size
        assert g.fixpoint_is_subalgebra


def test_greatest_sqrt_stages_shrink():
    for A in (M(2), M(6), pmv.finite_product([M(1), M(2)])):
        for quantifier in ("ambient", "relative"):
            g = roots.greatest_sqrt_subalgebra(A, quantifier)
            sizes = [len(s) for s in g.stages]
            assert sizes == sorted(sizes, reverse=True)
            assert pmv.one_elem(A) in g.fixpoint
            assert len(g.subalgebra_flags) == len(g.stages)


def test_dispatcher_consistency_finite_vs_generic():
    for A in (M(3), M(6), pmv.finite_product([M(1), M(2)])):
        for x in pmv.carrier(A):
            a = roots.element_sqrt(A, x)
            b = roots.sqrt_element_finite(A, x)
            assert a.status == b.status
            assert a.value == b.value
