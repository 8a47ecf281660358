"""Tests for strict and square-root closures, the reachability criterion,
and the doubled-decomposition."""

import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvroots import closures as cl
from pmvroots import dsl
from pmvroots import ogroups as og
from pmvroots import pmv
from pmvroots import roots
from pmvroots import scalars as S
from pmvroots.errors import CarrierError, ParameterError, PmvError, UnsupportedOperationError
from pmvroots.records import Record
from test_cli import run_json
from test_ogroups import all_descriptors, draw_scalar_by_randint

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
    assert c.closed == og.ProductGroup(
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
        assert c.closed.two_divisible


def strict_closure_idempotence_check(M) -> bool:
    """Closing twice changes nothing."""
    once = cl.strict_closure(M)
    twice = cl.strict_closure(once.closed)
    return tuple(f.closed for f in once.factors) == tuple(f.closed for f in twice.factors)


def test_strict_closure_idempotent():
    for m in (M(1), M(6), pmv.finite_product([M(1), M(4)]),
              pmv.GammaAlgebra(og.Twist4("Z"))):
        assert strict_closure_idempotence_check(m)


def test_descriptor_text_and_json():
    c = cl.strict_closure(pmv.finite_product([M(4), M(6)]))
    text = c.to_json()["descriptor"]
    assert text.startswith("strict[")
    assert "Z/4 -> D/1" in text and "Z/6 -> D/3" in text
    blob = c.to_json()
    assert blob["kind"] == "strict"
    assert blob["embedding"] == "coordinatewise inclusion"
    assert {f["root"] for f in blob["factors"]} == {"half_shift"}


def test_descriptor_algebras():
    c = cl.strict_closure(M(6))
    base = c.base_algebra
    closed = c.closed_algebra
    assert isinstance(base, pmv.GammaAlgebra) and base.desc == og.ScaledInt(6)
    assert closed.desc == og.ScaledDyadic(3)
    # each is built once per descriptor, on its group, which is built once
    # too; fields, equality and hash are unchanged
    assert c.base_algebra is base and c.closed_algebra is closed
    assert base.desc is c.base and closed.desc is c.closed
    assert c == cl.strict_closure(M(6)) and hash(c) == hash(cl.strict_closure(M(6)))
    assert repr(c) == repr(cl.strict_closure(M(6)))


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


# --- the integer certificate against the Fraction procedure ------------------------


def is_dyadic(x):
    """True when the denominator of ``x`` is a power of two."""
    d = x.denominator
    return d & (d - 1) == 0


def dyadic_exponent(x):
    """Least k >= 0 with x * 2**k integral; x must be dyadic."""
    if not is_dyadic(x):
        raise ValueError(f"{x} is not a dyadic rational")
    return x.denominator.bit_length() - 1


def claimed_exponent(base, closed, payload):
    """The symbolic certificate on a Fraction payload: an n with 2**n * h
    in the base, or None."""
    if base == closed:
        return 0
    if isinstance(base, og.ScaledInt) and isinstance(closed, og.ScaledDyadic):
        if S.odd_part(base.n) != closed.q:
            return None
        scaled = payload * closed.q
        return dyadic_exponent(scaled) if is_dyadic(scaled) else None
    if isinstance(base, og.QuadLattice) and isinstance(closed, og.QuadLattice):
        if base.alpha != closed.alpha or not closed.dyadic:
            return None
        if not all(is_dyadic(c) for c in payload):
            return None
        return max(dyadic_exponent(c) for c in payload)
    if isinstance(base, og.Lex) and isinstance(closed, og.Lex):
        e1 = claimed_exponent(base.head, closed.head, payload[0])
        e2 = claimed_exponent(base.tail, closed.tail, payload[1])
        return None if e1 is None or e2 is None else max(e1, e2)
    if isinstance(base, og.Twist4) and isinstance(closed, og.Twist4):
        if not (base.tag == "Z" and closed.tag == "D"):
            return None
        exps = [dyadic_exponent(c) for c in payload]
        bc = payload[1] * payload[2]
        return max(*exps, (dyadic_exponent(bc) + 1) if bc else 0)
    if isinstance(base, og.ProductGroup) and isinstance(closed, og.ProductGroup):
        es = [claimed_exponent(b, c, p) for b, c, p in zip(base.factors, closed.factors, payload)]
        return None if any(e is None for e in es) else max(es)
    return None


def containment_counterexample(base, closed):
    if isinstance(base, (og.ScaledInt, og.ScaledDyadic)):
        probe = Fraction(1, base.n if isinstance(base, og.ScaledInt) else base.q)
        if not closed.contains(probe):
            return probe
    if isinstance(base, og.ProductGroup) and isinstance(closed, og.ProductGroup):
        if len(base.factors) == len(closed.factors):
            for i, (b, c) in enumerate(zip(base.factors, closed.factors)):
                inner = containment_counterexample(b, c)
                if inner is not None:
                    return tuple(inner if j == i else f.zero() for j, f in enumerate(base.factors))
    return None


def criterion_counterexample(base, closed):
    if isinstance(closed, og.ScaledDyadic):
        return Fraction(1, closed.q)
    if isinstance(base, og.ProductGroup) and isinstance(closed, og.ProductGroup):
        for b, c in zip(base.factors, closed.factors):
            if claimed_exponent(b, c, c.unit()) is None:
                inner = criterion_counterexample(b, c)
                return tuple(inner if f is c else f.zero() for f in closed.factors)
    return closed.unit()


def fraction_crit_check(base, closed, samples=60, seed=2):
    """The certificate computed on Fractions: each sample is drawn with
    ``closed.random``, given its claimed exponent n, and 2**n * h is formed
    with ``closed.mul`` and tested with ``base.contains``.  Returns (ok,
    detail, counterexample, samples_checked, max_exponent_seen)."""
    bad = containment_counterexample(base, closed)
    if bad is not None:
        return False, f"{S.format_value(bad)} lies in the base group but not in the claimed closure", bad, 0, 0
    if claimed_exponent(base, closed, closed.unit()) is None:
        h = criterion_counterexample(base, closed)
        d = h
        for _ in range(41):
            if base.contains(d):
                return False, "no symbolic certificate covers this base/closure pair", None, 0, 0
            d = closed.add(d, d)
        return False, f"no doubling of {S.format_value(h)} lands in the base group", h, 0, 0
    rng = random.Random(seed)
    max_seen = 0
    for _ in range(samples):
        h = closed.random(rng, 3, 5)
        n = claimed_exponent(base, closed, h)
        if n is None:
            return False, f"certificate has no exponent for {S.format_value(h)}", h, 0, 0
        if not base.contains(closed.mul(2**n, h)):
            return False, f"2^{n} * {S.format_value(h)} is not in the base group", h, 0, 0
        max_seen = max(max_seen, n)
    return True, "every sampled element reached the base group under doubling", None, samples, max_seen


def crit_outcome(base, closed, **kw):
    res = cl.crit_check(base, closed, **kw)
    return res.ok, res.detail, res.counterexample, res.samples_checked, res.max_exponent_seen


def assert_matches_the_oracle(base, closed, **kw):
    got, want = crit_outcome(base, closed, **kw), fraction_crit_check(base, closed, **kw)
    # repr also tells an int coordinate from an integral Fraction
    assert (got, repr(got[2])) == (want, repr(want[2])), (base, closed)


def test_dyadic_exponent_oracle():
    rng = random.Random(3)
    for _ in range(300):
        e = rng.randint(0, 10)
        num = rng.randint(-80, 80)
        x = Fraction(num, 2**e)
        # smallest k with (2**k) * x integral
        k = 0
        while (x * 2**k).denominator != 1:
            k += 1
        assert is_dyadic(x)
        assert dyadic_exponent(x) == k


def test_dyadic_exponent_rejects_non_dyadic():
    for x in (Fraction(1, 3), Fraction(5, 6), Fraction(-2, 7)):
        assert not is_dyadic(x)
        with pytest.raises(ValueError):
            dyadic_exponent(x)


def golden_closure_pairs():
    """The (base, closed) pair of every closure that a golden ``closure``
    argv builds."""
    blob = json.loads((pathlib.Path(__file__).parent / "golden_reports.json").read_text(encoding="utf-8"))
    pairs = {}
    for case in blob:
        argv = case["argv"]
        if argv[:1] != ["closure"] or len(argv) < 2 or argv[1].startswith("-"):
            continue
        closure = cl.sqrt_closure if "sqrt" in argv else cl.strict_closure
        try:
            C = closure(dsl.parse_algebra(argv[1]))
        except PmvError:
            continue
        if isinstance(C, cl.ClosureDescriptor):
            pairs[(C.base, C.closed)] = None
    return list(pairs)


def test_the_certificate_matches_the_oracle_on_the_golden_closures():
    pairs = golden_closure_pairs()
    assert len(pairs) >= 20
    for base, closed in pairs:
        assert_matches_the_oracle(base, closed)


# 19 descriptors of every family and shape; the 361 ordered pairs include
# bases and closures of different families and products of different lengths
# (the text prod(Q) parses as Q, so the one-factor products are built directly)
GRID = [dsl.parse_group(t) for t in (
    "Z/1", "Z/6", "D/1", "D/3", "Q", "quad(1/2*sqrt(2))", "dquad(1/2*sqrt(2))",
    "lex(Z/1,Z/3)", "lex(D/1,D/3)", "twist3(Z)", "twist3(D)", "twist4(Z)", "twist4(D)",
    "twist4(Q)", "prod(Z/2,Z/3)", "prod(D/1,D/3)", "prod(Q,Q)",
)] + [og.ProductGroup((og.Rationals(),)), og.ProductGroup((og.Twist4("D"),))]


def test_crit_check_on_any_pair_of_descriptors_raises_no_untyped_error():
    outcomes = set()
    for base, closed in itertools.product(GRID, repeat=2):
        try:
            outcomes.add(cl.crit_check(base, closed).ok)
        except PmvError:
            outcomes.add("typed error")
    assert True in outcomes and False in outcomes


def test_the_certificate_matches_the_oracle_on_every_pair_of_descriptors():
    for base, closed in itertools.product(GRID, repeat=2):
        assert_matches_the_oracle(base, closed)


def test_a_product_of_the_wrong_length_fails_on_its_first_draw():
    one_factor = og.ProductGroup((og.ScaledInt(2),))
    for base, closed in [(GRID[17], GRID[16]), (GRID[16], GRID[17]), (one_factor, GRID[15])]:
        res = cl.crit_check(base, closed, seed=7)
        first = closed.random(random.Random(7), 3, 5)
        assert not res.ok and res.detail.endswith(f"* {S.format_value(first)} is not in the base group")
        assert (res.counterexample, repr(res.counterexample)) == (first, repr(first))


CERTIFIED_LEAVES = [
    (og.ScaledInt(1), og.ScaledDyadic(1)),
    (og.ScaledInt(6), og.ScaledDyadic(3)),
    (og.ScaledInt(12), og.ScaledDyadic(3)),
    (og.ScaledInt(5), og.ScaledDyadic(5)),
    (og.ScaledInt(3), og.ScaledInt(3)),
    (og.ScaledDyadic(3), og.ScaledDyadic(3)),
    (og.Rationals(), og.Rationals()),
    (og.QuadLattice(ALPHA, False), og.QuadLattice(ALPHA, True)),
    (og.QuadLattice(ALPHA, True), og.QuadLattice(ALPHA, True)),
    (og.QuadLattice(ALPHA, False), og.QuadLattice(ALPHA, False)),
    (og.Twist4("Z"), og.Twist4("D")),
    (og.Twist4("D"), og.Twist4("D")),
    (og.Twist4("Z"), og.Twist4("Z")),
    (og.Twist3("Z"), og.Twist3("Z")),
]
UNCERTIFIED_LEAVES = [
    (og.ScaledInt(6), og.ScaledDyadic(1)),
    (og.Rationals(), og.ScaledDyadic(1)),
    (og.Twist4("Z"), og.Twist4("Q")),
    (og.Twist3("Z"), og.Twist3("D")),
]
# mostly certified leaves, so that most drawn pairs reach the samples
LEAF_PAIRS = CERTIFIED_LEAVES * 4 + UNCERTIFIED_LEAVES


def _lex_pair(head, tail):
    return og.Lex(head[0], tail[0]), og.Lex(head[1], tail[1])


def _product_pair(pairs, skew):
    """Factorwise pairs; skew 1 gives the closure one more factor, -1 the base."""
    bases, closeds = [b for b, _ in pairs], [c for _, c in pairs]
    if skew == 1:
        closeds.append(closeds[0])
    elif skew == -1:
        bases.append(bases[0])
    return og.ProductGroup(bases), og.ProductGroup(closeds)


closure_pairs = st.recursive(
    st.sampled_from(LEAF_PAIRS),
    lambda inner: st.one_of(
        st.builds(_lex_pair, st.sampled_from(LEAF_PAIRS), inner),
        st.builds(_product_pair, st.lists(inner, min_size=1, max_size=3),
                  st.sampled_from([0, 0, 0, 1, -1])),
    ),
    max_leaves=5,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(closure_pairs, st.integers(0, 2**16), st.integers(0, 80))
def test_the_certificate_matches_the_oracle_on_drawn_pairs(pair, seed, samples):
    base, closed = pair
    assert_matches_the_oracle(base, closed, samples=samples, seed=seed)


def checks_something(base, closed):
    """Whether ``crit_check`` certifies draws on this pair: a certificate
    covers it, the base lies in the closed group, and the plan is not the
    identity, which draws nothing."""
    plan = closed.doubling_plan(base)
    return plan not in (None, ([], [], True)) and base.missing_from(closed) is None


def certified_draws(monkeypatch, base, closed, samples, seed):
    """``crit_check``'s result, the number of draw streams it opened and, for
    each draw it certified, the payload and the rng state just after it."""
    streams, seen = [], []
    scalar_draws, certify = og.scalar_draws, og.certify

    def opening(scalars, rng, bound, exp):
        streams.append(rng)
        return scalar_draws(scalars, rng, bound, exp)

    def certifying(*args):
        seen.append((closed.from_draw(args[-1]), streams[-1].getstate()))
        return certify(*args)

    monkeypatch.setattr(og, "scalar_draws", opening)
    monkeypatch.setattr(og, "certify", certifying)
    res = cl.crit_check(base, closed, samples=samples, seed=seed)
    monkeypatch.undo()
    return res, len(streams), seen


def assert_certifies_what_random_draws(monkeypatch, base, closed, samples=25, seed=31):
    # the draws are the successive closed.random(rng, 3, 5) payloads, with
    # the same rng state after each, up to the first that fails
    res, streams, seen = certified_draws(monkeypatch, base, closed, samples, seed)
    name = f"{dsl.format_group(base)} -> {dsl.format_group(closed)}"
    assert streams == 1 and seen, name
    assert len(seen) == samples if res.ok else same(res.counterexample, seen[-1][0]), name
    rng = random.Random(seed)
    want = [(closed.random(rng, 3, 5), rng.getstate()) for _ in seen]
    assert all(same(p, q) and s == t for (p, s), (q, t) in zip(seen, want)), name


@pytest.mark.parametrize("pair", [p for p in dict.fromkeys(list(itertools.product(GRID, repeat=2)) + catalog_pairs())
                                  if checks_something(*p)],
                         ids=lambda p: f"{dsl.format_group(p[0])}->{dsl.format_group(p[1])}")
def test_the_certificate_draws_what_random_draws(monkeypatch, pair):
    assert_certifies_what_random_draws(monkeypatch, *pair)


def test_a_mixed_plan_draws_every_scalar(monkeypatch):
    # identity factors beside checked ones: their scalars are drawn too, so
    # the stream is the one closed.random draws
    pairs = [p for p in profile_closure_pairs() if checks_something(*p)]
    mixed = [(b, c) for b, c in pairs if any(f == g for f, g in zip(b.flat(), c.flat()))]
    assert (len(pairs), len(mixed)) == (513, 376)
    for base, closed in pairs:
        assert_certifies_what_random_draws(monkeypatch, base, closed, samples=5)


def test_an_identity_pair_is_certified_without_group_arithmetic(monkeypatch):
    calls = []
    laws = [c for c in vars(og).values() if isinstance(c, type) and issubclass(c, og.GroupDescriptor)]
    for cls in laws:
        for name in ("contains", "mul"):
            if name in vars(cls):
                law = vars(cls)[name]
                monkeypatch.setattr(cls, name, lambda self, *a, law=law, name=name: calls.append(name) or law(self, *a))
    # and without a draw: no draw stream is opened and no random bit is read
    scalar_draws, getrandbits = og.scalar_draws, random.Random.getrandbits
    monkeypatch.setattr(og, "scalar_draws", lambda *a: calls.append("draw") or scalar_draws(*a))
    monkeypatch.setattr(random.Random, "getrandbits", lambda self, k: calls.append("bits") or getrandbits(self, k))
    for group in GRID:
        for samples in (60, 0):
            res = cl.crit_check(group, group, samples=samples)
            assert (res.ok, res.samples_checked, res.max_exponent_seen) == (True, samples, 0)
    assert not calls
    og.Rationals().contains(Fraction(1))
    og.Twist4("Z").mul(2, (1, 0, 0, 0))
    og.Rationals().draw(random.Random(0), 3, 5)
    assert calls[:3] == ["contains", "mul", "draw"] and set(calls[3:]) == {"bits"}  # the patches took


# --- doubled decomposition ------------------------------------------------------------


def test_corrdp_spot_values():
    c1 = cl.strict_closure(M(1))
    A1 = c1.closed_algebra
    dec = cl.corrdp_decompose(c1, pmv.element_of(A1, Fraction(3, 4)))
    assert dec.n == 2
    assert [pmv.value_of(p) for p in dec.parts] == [Fraction(1), Fraction(1), Fraction(1), Fraction(0)]
    assert dec.minimal

    c6 = cl.strict_closure(M(6))
    A6 = c6.closed_algebra
    d0 = cl.corrdp_decompose(c6, pmv.element_of(A6, Fraction(5, 6)))
    assert d0.n == 0 and [pmv.value_of(p) for p in d0.parts] == [Fraction(5, 6)]
    d1 = cl.corrdp_decompose(c6, pmv.element_of(A6, Fraction(5, 12)))
    assert d1.n == 1
    assert [pmv.value_of(p) for p in d1.parts] == [Fraction(5, 6), Fraction(0)]


def test_corrdp_round_trip_random():
    rng = random.Random(21)
    for c in (cl.strict_closure(M(1)), cl.strict_closure(M(6))):
        A = c.closed_algebra
        base = c.base
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
    A = c.closed_algebra
    x = pmv.element_of(A, (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)))
    with pytest.raises((ParameterError, UnsupportedOperationError)):
        cl.corrdp_decompose(c, x)


# --- square roots inside a closure -------------------------------------------------------


def closure_sqrt(C: cl.ClosureDescriptor, x: pmv.Element) -> pmv.Element:
    """The square root mapping of the closed algebra of ``C``, factor by
    factor: half-shift factors use (x + u)/2, identity factors (Boolean
    parts of a square-root closure) leave coordinates unchanged."""
    closed_alg = C.closed_algebra
    if x.algebra != closed_alg:
        raise ParameterError("element does not live in the closed algebra")
    payloads = [x.payload] if len(C.factors) == 1 else list(x.payload)
    out = []
    for f, p in zip(C.factors, payloads):
        if f.root == cl.IDENTITY:
            out.append(p)
            continue
        h = og.try_halve(f.closed, f.closed.add(p, f.closed.unit()))
        assert h is not None, "closed factors are two-divisible"
        out.append(h)
    r = pmv.element_of(closed_alg, out[0] if len(out) == 1 else tuple(out))
    assert pmv.odot(r, r) == x
    return r


def nested(desc: og.GroupDescriptor, flat):
    """The flattened factor coordinates ``flat`` (an iterator), nested like ``desc``."""
    if isinstance(desc, og.ProductGroup):
        return tuple(nested(f, flat) for f in desc.factors)
    return next(flat)


def assert_sqrt_zero_is_the_closure_root_of_zero(desc: og.GroupDescriptor) -> bool:
    """On an interval that is its own square-root closure, ``sqrt_zero``
    is the closure's root of 0, nested like ``desc``; False when the
    interval is not symmetric, has no square-root closure rule or is not its
    own closure, as ``sqrtmap`` asks."""
    A = pmv.GammaAlgebra(desc)
    if not pmv.is_symmetric(A)[0]:
        return False
    try:
        C = cl.sqrt_closure(desc)
    except UnsupportedOperationError:
        return False
    if not (isinstance(C, cl.ClosureDescriptor) and all(f.closed == f.base for f in C.factors)):
        return False
    flat = closure_sqrt(C, pmv.zero_elem(C.closed_algebra)).payload
    r0 = roots.sqrt_zero(A)
    assert r0.exists
    assert r0.value.payload == nested(desc, iter(flat if len(C.factors) > 1 else (flat,)))
    return True


def test_sqrt_zero_is_the_closure_root_of_zero_on_the_golden_targets():
    golden = json.loads((pathlib.Path(__file__).parent / "golden_reports.json").read_text(encoding="utf-8"))
    targets = {e["argv"][1] for e in golden if e["argv"][0] == "sqrtmap" and e["argv"][1].startswith("gamma(")}
    closed = [t for t in sorted(targets) if assert_sqrt_zero_is_the_closure_root_of_zero(dsl.parse_algebra(t).desc)]
    assert closed == [
        "gamma(D/3)", "gamma(Q)", "gamma(Z/1)", "gamma(dquad(1/2*sqrt(2)))",
        "gamma(prod(Z/1,prod(D/3,Q)))", "gamma(twist4(D))", "gamma(twist4(Q))",
    ]


CLOSED_FACTORS = (
    og.ScaledInt(1), og.ScaledDyadic(1), og.ScaledDyadic(3), og.Rationals(),
    og.QuadLattice(ALPHA, True), og.Lex(og.ScaledDyadic(1), og.ScaledDyadic(3)), og.Twist4("D"),
)


def test_sqrt_zero_is_the_closure_root_of_zero_on_closed_products():
    F = CLOSED_FACTORS
    products = [*F, *(og.ProductGroup(fs) for k in (2, 3) for fs in itertools.product(F, repeat=k))]
    products += [og.ProductGroup((f, og.ProductGroup((g, h)))) for f, g, h in itertools.product(F, repeat=3)]
    products += [og.ProductGroup((og.ProductGroup((f, g)), h)) for f, g, h in itertools.product(F[:4], repeat=3)]
    closed = sum(map(assert_sqrt_zero_is_the_closure_root_of_zero, products))
    # Z/1 next to a twisted factor has no splitting element: an open problem
    assert 0 < closed < len(products)


def test_closure_sqrt_scalar():
    c = cl.strict_closure(M(6))
    A = c.closed_algebra
    x = pmv.element_of(A, Fraction(5, 6))
    r = closure_sqrt(c, x)
    assert pmv.value_of(r) == Fraction(11, 12)
    assert pmv.odot(r, r) == x


def test_closure_sqrt_mixed_product():
    d = cl.sqrt_closure(pmv.finite_product([M(1), M(4)]))
    A = d.closed_algebra
    # factor order follows the skeleton atoms: the 4-chain factor first
    x = pmv.element_of(A, (Fraction(3, 4), Fraction(1)))
    r = closure_sqrt(d, x)
    assert pmv.value_of(r) == (Fraction(7, 8), Fraction(1))
    assert pmv.odot(r, r) == x
    z = pmv.element_of(A, (Fraction(0), Fraction(0)))
    rz = closure_sqrt(d, z)
    assert pmv.value_of(rz) == (Fraction(1, 2), Fraction(0))


def test_closure_sqrt_random_round_trip():
    rng = random.Random(33)
    c = cl.strict_closure(M(1))
    A = c.closed_algebra
    for _ in range(100):
        v = Fraction(rng.randint(0, 256), 256)
        x = pmv.element_of(A, v)
        r = closure_sqrt(c, x)
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


# --- the family switches as the oracles of the descriptors' closure methods ------------
#
# The closure facts are methods of the group descriptors; these are the type
# switches they replaced, kept as the oracles of the methods and of the
# profile procedure below.


def flatten(desc: og.GroupDescriptor) -> list[og.GroupDescriptor]:
    """The factors of nested products, in order."""
    if isinstance(desc, og.ProductGroup):
        return [g for f in desc.factors for g in flatten(f)]
    return [desc]


def close_factor(desc: og.GroupDescriptor) -> og.GroupDescriptor:
    """The strict closure of one family, or its refusal."""
    if isinstance(desc, og.ScaledInt):
        return og.ScaledDyadic(S.odd_part(desc.n))
    if isinstance(desc, (og.ScaledDyadic, og.Rationals)):
        return desc
    if isinstance(desc, og.QuadLattice):
        return og.QuadLattice(desc.alpha, dyadic=True)
    if isinstance(desc, og.Lex):
        return og.Lex(close_factor(desc.head), close_factor(desc.tail))
    if isinstance(desc, og.Twist4):
        return og.Twist4("D" if desc.tag in ("Z", "D") else "Q")
    if isinstance(desc, og.Twist3):
        raise UnsupportedOperationError(
            "the twisted Z^3 interval is not symmetric, so it admits no strict "
            "square root mapping and no strict closure"
        )
    raise UnsupportedOperationError(f"no strict closure rule for {desc!r}")


def has_boolean_quotient(desc: og.GroupDescriptor) -> bool:
    """Every twisted Z^4 group is taken to have a prime with Boolean
    quotient; otherwise the innermost lexicographic head must be ``Z/1``."""
    if isinstance(desc, og.Twist4):
        return True
    while isinstance(desc, og.Lex):
        desc = desc.head
    return desc == og.ScaledInt(1)


def rootless_payload(desc: og.GroupDescriptor):
    """An element of [0, u] that (x + u)/2 takes out of the group, or None:
    1/n (n even) or 2/n (n odd) on (1/n)Z; a lexicographic product's head
    with tail 0, or (0, 1/m) over a tail (1/m)Z; a product's first factor
    that has one, with 0 elsewhere."""
    if isinstance(desc, og.ScaledInt):
        k = 1 + desc.n % 2
        return Fraction(k, desc.n) if k <= desc.n else None
    if isinstance(desc, og.Lex):
        head = rootless_payload(desc.head)
        if head is not None:
            return (head, desc.tail.zero())
        if isinstance(desc.tail, og.ScaledInt):
            return (desc.head.zero(), Fraction(1, desc.tail.n))
        return None
    if isinstance(desc, og.ProductGroup):
        for i, f in enumerate(desc.factors):
            inner = rootless_payload(f)
            if inner is not None:
                return tuple(inner if j == i else g.zero() for j, g in enumerate(desc.factors))
    return None


# --- the per-factor profile procedure as the oracle of the two predicates --------------


def head_gives_boolean_quotient(desc: og.GroupDescriptor) -> bool:
    """Whether collapsing everything below the leading Archimedean component
    leaves the two-element algebra."""
    if isinstance(desc, og.ScaledInt):
        return desc.n == 1
    if isinstance(desc, og.Lex):
        return head_gives_boolean_quotient(desc.head)
    return False


class FactorProfile(Record):
    i1_zero: bool
    i2_zero: bool
    splitting: str | None  # "unit" | "zero" | None


def factor_profile(desc: og.GroupDescriptor) -> FactorProfile:
    if isinstance(desc, og.Twist3):
        raise UnsupportedOperationError(
            "the square-root closure needs coinciding negations; the twisted "
            "Z^3 interval is not symmetric"
        )
    if isinstance(desc, og.ScaledInt) and desc.n == 1:
        return FactorProfile(i1_zero=True, i2_zero=False, splitting="unit")
    if isinstance(desc, (og.ScaledInt, og.ScaledDyadic, og.Rationals, og.QuadLattice)):
        return FactorProfile(i1_zero=False, i2_zero=True, splitting="zero")
    if isinstance(desc, (og.Lex, og.Twist4)):
        # chains with more than two elements always have I2 = {0}; a prime
        # with Boolean quotient exists exactly when the leading component
        # collapses to the two-element chain (every twisted Z^4 interval is
        # taken to have one)
        boolean_top = isinstance(desc, og.Twist4) or head_gives_boolean_quotient(desc)
        return FactorProfile(i1_zero=False, i2_zero=True, splitting=None if boolean_top else "zero")
    raise UnsupportedOperationError(f"no square-root closure rule for {desc!r}")


def sqrt_closure_by_profiles(M) -> cl.ClosureDescriptor | cl.OpenProblem:
    """Cases (i)-(iii) decided on a three-field profile of each factor, with
    a construction of its own for each case."""
    factors = flatten(cl._as_descriptor(M))
    profiles = [factor_profile(f) for f in factors]
    if all(p.i1_zero for p in profiles):
        return cl.ClosureDescriptor("sqrt", tuple(cl.FactorClosure(f, f, cl.IDENTITY) for f in factors))
    if all(p.i2_zero for p in profiles):
        return cl.ClosureDescriptor(
            "sqrt", tuple(cl.FactorClosure(f, close_factor(f), cl.HALF_SHIFT) for f in factors)
        )
    if any(p.splitting is None for p in profiles):
        return cl.OpenProblem(
            explanation=(
                "both prime-intersection ideals are nonzero and no splitting "
                "element exists; whether such an algebra has a square-root "
                "closure is not settled by the implemented construction"
            ),
            factor_reports=tuple(
                f"factor {i}: no element is 1 mod I1 and 0 mod I2"
                for i, p in enumerate(profiles)
                if p.splitting is None
            ),
        )
    return cl.ClosureDescriptor("sqrt", tuple(
        cl.FactorClosure(f, f, cl.IDENTITY) if p.splitting == "unit"
        else cl.FactorClosure(f, close_factor(f), cl.HALF_SHIFT)
        for f, p in zip(factors, profiles)
    ))


def outcome(closure, desc):
    """The closure of ``desc``, or the type and message of its refusal."""
    try:
        return closure(desc)
    except PmvError as exc:
        return type(exc), str(exc)


# every family, with lexicographic products whose head is Z/1, Z/n, D/1, Q,
# a lexicographic product or a twisted group, and with a twisted Z^3 tail
PROFILE_ATOMS = [dsl.parse_group(t) for t in (
    "Z/1", "Z/2", "Z/6", "D/1", "D/3", "Q", "quad(1/2*sqrt(2))", "dquad(1/2*sqrt(2))",
    "twist3(Z)", "twist3(D)", "twist4(Z)", "twist4(D)", "twist4(Q)",
    "lex(Z/1,Z/3)", "lex(Z/4,Z/1)", "lex(D/1,D/3)", "lex(Q,Z/2)", "lex(lex(Z/1,Z/2),D/1)",
    "lex(twist4(Z),D/1)", "lex(twist4(D),D/1)", "lex(D/5,twist3(D))", "lex(Z/1,twist3(Z))",
)]
# the atoms, every ordered pair of them, and nested triples of every third atom
PROFILE_GRID = (
    PROFILE_ATOMS
    + [og.ProductGroup(p) for p in itertools.product(PROFILE_ATOMS, repeat=2)]
    + [og.ProductGroup((f, og.ProductGroup((g, h)))) for f, g, h in itertools.product(PROFILE_ATOMS[::3], repeat=3)]
)


def test_the_profile_grid_has_every_outcome():
    assert len(PROFILE_ATOMS) == 22 and len(PROFILE_GRID) == 1018
    outcomes = [outcome(sqrt_closure_by_profiles, d) for d in PROFILE_GRID]
    assert {type(o) for o in outcomes} == {cl.ClosureDescriptor, cl.OpenProblem, tuple}
    # both refusals: a twisted Z^3 factor and a twisted Z^3 lexicographic tail
    assert len({o for o in outcomes if isinstance(o, tuple)}) == 2


def test_sqrt_closure_matches_the_profile_oracle_on_the_grid():
    for desc in PROFILE_GRID:
        assert outcome(cl.sqrt_closure, desc) == outcome(sqrt_closure_by_profiles, desc), dsl.format_group(desc)


def same(got, want):
    # repr also tells an int coordinate from an integral Fraction
    return (got, repr(got)) == (want, repr(want))


def test_each_closure_method_matches_its_switch():
    # refusals included: the strict closure of a product or a twisted Z^3
    for desc in GRID + PROFILE_GRID:
        name = dsl.format_group(desc)
        assert desc.flat() == flatten(desc), name
        assert outcome(lambda d: d.strict_closure(), desc) == outcome(close_factor, desc), name
        assert desc.has_boolean_quotient() == has_boolean_quotient(desc), name
        assert same(desc.rootless(), rootless_payload(desc)), name
    for base, closed in itertools.product(GRID, repeat=2):
        name = f"{dsl.format_group(base)} -> {dsl.format_group(closed)}"
        assert (closed.doubling_plan(base) is None) == (claimed_exponent(base, closed, closed.unit()) is None), name
        assert same(base.missing_from(closed), containment_counterexample(base, closed)), name
        assert same(closed.unreachable_from(base), criterion_counterexample(base, closed)), name


# --- the flat sampler against the recursive per-family code ----------------------------
#
# Before the draw and the certificate were compiled flat, each family drew
# its own payload shape, a pair (m, d) per scalar nested as the payload is,
# and each family's certificate read that nested draw; the products and
# lexicographic groups recursed into their parts.  That code is the oracle.


def nested_draw(desc, rng, bound, exp):
    """The integers of a seeded draw of ``desc``, nested as its payload."""
    if isinstance(desc, (og.Lex, og.ProductGroup)):
        return tuple(nested_draw(f, rng, bound, exp) for f in desc.parts)
    if isinstance(desc, og.ScaledInt):
        return draw_scalar_by_randint("Z", rng, bound, exp, desc.n)
    if isinstance(desc, og.ScaledDyadic):
        return draw_scalar_by_randint("D", rng, bound, exp, desc.q)
    if isinstance(desc, og.Rationals):
        return draw_scalar_by_randint("Q", rng, bound, exp)
    tag, arity = ("D" if desc.dyadic else "Z", 2) if isinstance(desc, og.QuadLattice) else (desc.tag, desc.arity)
    return tuple(draw_scalar_by_randint(tag, rng, bound, exp) for _ in range(arity))


def flatten_draw(draw):
    return [draw] if isinstance(draw[0], int) else [x for part in draw for x in flatten_draw(part)]


def nested_from_draw(desc, draw):
    if isinstance(desc, (og.Lex, og.ProductGroup)):
        return tuple(nested_from_draw(f, x) for f, x in zip(desc.parts, draw))
    if isinstance(desc, (og.ScaledInt, og.ScaledDyadic, og.Rationals)):
        return Fraction(*draw)
    if isinstance(desc, og.QuadLattice):
        return tuple(Fraction(m, d) for m, d in draw)
    return tuple(m if desc.tag == "Z" else Fraction(m, d) for m, d in draw)


def exponent(m, d):
    return max(0, (d & -d).bit_length() - (m & -m).bit_length()) if m else 0


def integral(draw):
    n = max(exponent(m, d) for m, d in draw)
    return n, all((m << n) % d == 0 for m, d in draw)


def twist4_doubling(draw):
    _, (mb, db), (mc, dc), (md, dd) = draw
    n, lands = integral(draw[:3])
    n = max(n, exponent(md, dd), exponent(mb * mc, db * dc) + 1 if mb * mc else 0)
    N = 1 << n
    return n, lands and (N * md * db * dc + N * (N - 1) // 2 * mb * mc * dd) % (dd * db * dc) == 0


def nested_certificate(closed, base):
    """A function from a nested draw of ``closed`` to (n, whether 2**n times
    the payload lies in ``base``), or None."""
    if isinstance(closed, (og.Lex, og.ProductGroup)) and base != closed and type(base) is type(closed):
        certs = [nested_certificate(c, b) for b, c in zip(base.parts, closed.parts)]
        if None in certs:
            return None
        same_shape = len(base.parts) == len(closed.parts)

        def componentwise(draw):
            n, lands = 0, same_shape
            for cert, x in zip(certs, draw):
                k, ok = cert(x)
                n, lands = max(n, k), lands and ok
            return n, lands

        return componentwise
    if isinstance(closed, og.ScaledDyadic) and isinstance(base, og.ScaledInt) and S.odd_part(base.n) == closed.q:
        def scaled(draw):
            m, d = draw
            n = exponent(m, d)
            return n, (m * base.n << n) % d == 0

        return scaled
    if (isinstance(closed, og.QuadLattice) and isinstance(base, og.QuadLattice) and closed.dyadic
            and not base.dyadic and base.alpha == closed.alpha):
        return integral
    if closed == og.Twist4("D") and base == og.Twist4("Z"):
        return twist4_doubling
    return (lambda draw: (0, True)) if base == closed else None


def assert_the_flat_sampler_matches(base, closed, seed, samples=60):
    """Sample by sample, the flat draw and certificate against the nested
    ones, and the outcome of ``crit_check`` against the one the nested
    samples give; ``test_random_is_the_nested_draw_made_a_payload`` compares
    the payloads."""
    name = f"{dsl.format_group(base)} -> {dsl.format_group(closed)}, seed {seed}"
    plan, nested_cert = closed.doubling_plan(base), nested_certificate(closed, base)
    assert (plan is None) == (nested_cert is None), name
    if plan is None or base.missing_from(closed) is not None:
        return  # no sample is drawn
    scalars = closed.scalars()
    flat_rng, nested_rng = random.Random(seed), random.Random(seed)
    want, max_seen = None, 0
    for _ in range(samples):
        draw, nested = og.draw_scalars(scalars, flat_rng, 3, 5), nested_draw(closed, nested_rng, 3, 5)
        assert draw == flatten_draw(nested), name
        n, lands = nested_cert(nested)
        assert og.certify(*plan, draw) == (n, lands), name
        if want is None and not lands:
            h = nested_from_draw(closed, nested)
            want = (False, f"2^{n} * {S.format_value(h)} is not in the base group", h, 0, 0)
        max_seen = max(max_seen, n)
    if want is None:
        want = (True, "every sampled element reached the base group under doubling", None, samples, max_seen)
    got = crit_outcome(base, closed, samples=samples, seed=seed)
    assert (got, repr(got[2])) == (want, repr(want[2])), name


def profile_closure_pairs():
    pairs = {}
    for desc in PROFILE_GRID:
        for closure in (cl.strict_closure, cl.sqrt_closure):
            C = outcome(closure, desc)
            if isinstance(C, cl.ClosureDescriptor):
                pairs[(C.base, C.closed)] = None
    return list(pairs)


def test_the_flat_sampler_matches_the_nested_one():
    # about 1 s on a 2-core machine; its budget is 2 s
    grid = list(itertools.product(GRID, repeat=2))
    profiles = profile_closure_pairs()
    # some pairs of the grid fail on a drawn sample and report its payload
    assert sum(crit_outcome(*p)[1].startswith("2^") for p in grid) == 2
    for i, (base, closed) in enumerate(grid):
        for seed in (2, 40 + i % 7):
            assert_the_flat_sampler_matches(base, closed, seed)
    assert len(profiles) == 645
    for i, (base, closed) in enumerate(profiles):
        assert_the_flat_sampler_matches(base, closed, 2 + i % 5)


def test_random_is_the_nested_draw_made_a_payload():
    for desc in all_descriptors() + GRID:
        for seed in range(20):
            flat_rng, nested_rng = random.Random(seed), random.Random(seed)
            for bound, exp in ((3, 5), (8, 6), (0, 0)):
                want = nested_from_draw(desc, nested_draw(desc, nested_rng, bound, exp))
                assert same(desc.random(flat_rng, bound, exp), want), (desc, seed)
            assert flat_rng.getstate() == nested_rng.getstate()


# --- a twisted head: the tag is not read ------------------------------------------------
#
# Every twisted Z^4 factor is taken to have a prime with Boolean quotient
# (``Twist4.has_boolean_quotient`` answers True whatever its tag).  For
# the tags D and Q the leading component is D or Q, and Gamma(D, 1) is not
# Boolean, so a Z/1 factor beside twist4(D) leaves a splitting element (case
# (iii)), and a lexicographic product with head twist4(Z) has a Boolean
# quotient as twist4(Z) has.  The benchmark oracle reads twisted factors the
# same way, so the tests below pin the answers of the tag-aware rule as strict
# expected failures until both learn the tag.


@pytest.mark.xfail(strict=True, reason="Twist4.has_boolean_quotient does not read the tag")
def test_a_boolean_factor_beside_twist4_d_closes_as_case_iii():
    code, report = run_json(["closure", "gamma(prod(Z/1,twist4(D)))", "--kind", "sqrt"])
    assert (code, report["status"]) == (0, "ok")
    assert report["payload"]["descriptor"] == "sqrt[ Z/1 -> Z/1 (identity); twist4(D) -> twist4(D) ]"


@pytest.mark.xfail(strict=True, reason="Twist4.has_boolean_quotient does not read the tag")
def test_a_boolean_factor_beside_twist4_d_has_a_total_root_mapping():
    code, report = run_json(["sqrtmap", "gamma(prod(Z/1,twist4(D)))"])
    assert (code, report["status"]) == (0, "ok")
    assert report["payload"] == {
        "strict": False,
        "formula": "x on Boolean factors, (x + u) / 2 on the others",
        "r0": "(0,(1/2,0,0,0))",
        "w": "(1,(0,0,0,0))",
    }


@pytest.mark.xfail(strict=True, reason="Twist4.has_boolean_quotient does not read the tag, "
                   "and Lex.has_boolean_quotient counts only a Z/1 head")
def test_a_lex_with_head_twist4_z_beside_a_boolean_factor_is_open():
    code, report = run_json(["closure", "gamma(prod(Z/1,lex(twist4(Z),D/1)))", "--kind", "sqrt"])
    assert (code, report["status"]) == (1, "open_problem")


def test_a_lex_with_head_twist4_d_beside_a_boolean_factor_closes():
    # the answer of the tag-aware rule too: the head twist4(D) has no Boolean quotient
    code, report = run_json(["closure", "gamma(prod(Z/1,lex(twist4(D),D/1)))", "--kind", "sqrt"])
    assert (code, report["status"]) == (0, "ok")
    assert report["payload"]["descriptor"] == (
        "sqrt[ Z/1 -> Z/1 (identity); lex(twist4(D),D/1) -> lex(twist4(D),D/1) ]"
    )
