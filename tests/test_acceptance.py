"""Acceptance gate: one test per criterion, each ending in a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` to get one verdict line
per criterion.
"""

import itertools
import random
import time
from fractions import Fraction

from pmvroots import closures as cl
from pmvroots import ideals
from pmvroots import ogroups as og
from pmvroots import pmv
from pmvroots import roots
from pmvroots import worked_examples
from test_roots import sqrt_identities_check

M = pmv.finite_mv_chain


def _report(n, msg):
    print(f"CRITERION {n}: PASS - {msg}")


# -----------------------------------------------------------------------------
# 1. every recorded worked example reproduces exactly, fast


def test_criterion_1_worked_example_ledger():
    start = time.perf_counter()
    results = worked_examples.run_all()
    elapsed = time.perf_counter() - start
    failed = [r for r in results if not r.ok]
    assert not failed, [(r.anchor, r.detail) for r in failed]
    assert elapsed < 1.0, f"ledger took {elapsed:.2f}s"
    _report(1, f"{len(results)} worked-example checks exact in {elapsed:.2f}s")


# -----------------------------------------------------------------------------
# 2. the closure ledger: strict/sqrt closures plus the reachability criterion


def test_criterion_2_closure_ledger():
    # chain closures
    (f1,) = cl.strict_closure(M(1)).factors
    assert f1.closed == og.ScaledDyadic(1)
    (d1,) = cl.sqrt_closure(M(1)).factors
    assert d1.closed == og.ScaledInt(1) and d1.root == cl.IDENTITY
    (f2,) = cl.strict_closure(M(2)).factors
    assert f2.closed == og.ScaledDyadic(1)
    (d2,) = cl.sqrt_closure(M(2)).factors
    assert d2.closed == og.ScaledDyadic(1)
    for p in (3, 5, 7):
        (fp,) = cl.strict_closure(M(p)).factors
        assert fp.closed == og.ScaledDyadic(p)
    (f6,) = cl.strict_closure(M(6)).factors
    assert f6.closed == og.ScaledDyadic(3)
    # lexicographic pair
    (fl,) = cl.strict_closure(
        pmv.GammaAlgebra(og.Lex(og.ScaledInt(1), og.ScaledInt(1)))
    ).factors
    assert fl.closed == og.Lex(og.ScaledDyadic(1), og.ScaledDyadic(1))
    # three-factor product
    prod = cl.strict_closure(
        og.ProductGroup((og.ScaledInt(2), og.ScaledInt(3), og.ScaledInt(4)))
    )
    assert [f.closed for f in prod.factors] == [
        og.ScaledDyadic(1),
        og.ScaledDyadic(3),
        og.ScaledDyadic(1),
    ]
    # the reachability criterion holds on every ledger pair
    checked = 0
    for m in (M(1), M(2), M(3), M(5), M(6), M(7)):
        res = cl.crit_check(cl.strict_closure(m), samples=40, seed=6)
        assert res.ok, res.detail
        checked += 1
    res = cl.crit_check(og.Twist4("Z"), og.Twist4("D"), samples=40, seed=6)
    assert res.ok
    checked += 1
    # planted negative: (1/3)D never doubles into (1/2)Z
    bad = cl.crit_check(og.ScaledInt(2), og.ScaledDyadic(3))
    assert not bad.ok
    h = bad.counterexample
    assert h == Fraction(1, 3)
    assert all(
        not og.ScaledInt(2).contains(Fraction(2**n) * h) for n in range(30)
    )
    _report(2, f"closure ledger exact; criterion ok on {checked} pairs, "
               "planted negative caught with witness 1/3")


# -----------------------------------------------------------------------------
# 3. across >= 30 finite products: map strictness matches Boolean subdirect
#    irreducibility, and the w-split verifies


def test_criterion_3_strictness_vs_bsi():
    start = time.perf_counter()
    corpus = []
    for n in range(1, 9):
        corpus.append([n])
    for i in range(1, 9):
        for j in range(i, 9):
            if (i + 1) * (j + 1) <= 64:
                corpus.append([i, j])
    for i in range(1, 4):
        for j in range(i, 4):
            for k in range(j, 5):
                if (i + 1) * (j + 1) * (k + 1) <= 64:
                    corpus.append([i, j, k])
    corpus.append([1, 1, 1, 1])
    corpus.append([1, 1, 1, 1, 1])
    assert len(corpus) >= 30
    with_map = 0
    for lengths in corpus:
        A = pmv.finite_product([M(n) for n in lengths])
        assert A.size <= 64
        smap = roots.sqrt_map(A)
        boolean = all(n == 1 for n in lengths)
        assert (smap is not None) == boolean, lengths
        if smap is None:
            continue
        with_map += 1
        assert smap.strict == ideals.is_bsi(A), lengths
        # the w-split computed from the algebra, and its closed form
        B, S, _, flags = worked_examples.w_split(A)
        assert all(flags)
        assert ideals.root_map_ideals(A).w_split == ideals.WSplit(B.size, S.size, *flags)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"corpus sweep took {elapsed:.1f}s"
    assert with_map >= 5
    _report(3, f"{len(corpus)} algebras swept in {elapsed:.1f}s; "
               f"{with_map} total maps, strict == BSI throughout")


# -----------------------------------------------------------------------------
# 4. the group-side and table-side root procedures agree


def test_criterion_4_root_oracle_equivalence():
    compared = 0
    for n in range(1, 9):
        F_alg = M(2 * n)
        G_alg = pmv.GammaAlgebra(og.ScaledInt(2 * n))
        for x in pmv.carrier(F_alg):
            v = pmv.value_of(x)
            rf = roots.sqrt_element_finite(F_alg, x)
            rg = roots.element_sqrt(G_alg, pmv.element_of(G_alg, v))
            assert rf.status == rg.status, (2 * n, v)
            if rf.status == "exists":
                assert pmv.value_of(rf.value) == pmv.value_of(rg.value)
            compared += 1
    # dyadic samples against the denominator-128 chain
    chain = M(128)
    dyadic = pmv.GammaAlgebra(og.ScaledDyadic(1))
    for k in range(65):
        v = Fraction(k, 64)
        rg = roots.element_sqrt(dyadic, pmv.element_of(dyadic, v))
        rf = roots.sqrt_element_finite(chain, pmv.element_of(chain, v))
        assert rg.status == rf.status == "exists"
        assert pmv.value_of(rg.value) == pmv.value_of(rf.value) == (v + 1) / 2
        compared += 1
    _report(4, f"group and table procedures agree on {compared} inputs")


# -----------------------------------------------------------------------------
# 5. the square-root identity battery never trips


def test_criterion_5_identity_battery():
    total_checked = 0
    for n in (1, 2, 3, 4, 5, 6):
        A = M(2 * n)
        pairs = list(itertools.product(pmv.carrier(A), repeat=2))
        stats = sqrt_identities_check(A, pairs)
        for name, stat in stats.items():
            assert not stat.violations, (2 * n, name, stat.violations[:2])
            total_checked += stat.checked
    dyadic = pmv.GammaAlgebra(og.ScaledDyadic(1))
    rng = random.Random(55)
    seeds = [
        (
            pmv.element_of(dyadic, Fraction(rng.randint(0, 1024), 1024)),
            pmv.element_of(dyadic, Fraction(rng.randint(0, 1024), 1024)),
        )
        for _ in range(500)
    ]
    # feed both orientations so order-guarded identities see all 500 pairs
    pairs = seeds + [(y, x) for x, y in seeds]
    stats = sqrt_identities_check(dyadic, pairs)
    for name, stat in stats.items():
        # zero_bound is a one-shot property of r(0); the rest are per pair
        floor = 1 if name == "zero_bound" else 500
        assert stat.checked >= floor, name
        assert not stat.violations, name
        total_checked += stat.checked
    _report(5, f"identity battery: {total_checked} checks, zero violations")


# -----------------------------------------------------------------------------
# 6. the doubled decomposition round-trips on random elements


def test_criterion_6_corrdp_round_trips():
    rng = random.Random(77)
    cases = [
        (cl.strict_closure(M(1)), 1),
        (cl.strict_closure(M(6)), 3),
    ]
    done = 0
    for c, odd_q in cases:
        A = c.closed_algebra
        base = c.base
        for _ in range(250):
            e = rng.randint(0, 10)
            num = rng.randint(0, odd_q * 2**e)
            v = Fraction(num, odd_q * 2**e)
            x = pmv.element_of(A, v)
            dec = cl.corrdp_decompose(c, x)
            assert dec.n <= 10
            assert len(dec.parts) == 2**dec.n
            total = A.desc.zero()
            for p in dec.parts:
                pv = pmv.value_of(p)
                assert base.contains(pv)
                assert Fraction(0) <= pv <= Fraction(1)
                total = A.desc.add(total, og.member(A.desc, pv))
            assert total == A.desc.mul(2**dec.n, og.member(A.desc, v))
            assert dec.minimal
            if dec.n > 0:
                assert not base.contains(Fraction(2 ** (dec.n - 1)) * v)
            done += 1
    _report(6, f"{done} doubled decompositions round-tripped exactly, minimal n")


# -----------------------------------------------------------------------------
# 7. the twisted group families satisfy the group laws and verdicts


def test_criterion_7_twisted_group_laws():
    t3 = og.Twist3("Z")
    t4 = og.Twist4("Z")
    r3 = range(-3, 4)
    box3 = [og.member(t3, tuple(map(Fraction, p))) for p in itertools.product(r3, repeat=3)]
    box4_small = [
        og.member(t4, tuple(map(Fraction, p)))
        for p in itertools.product(range(-1, 2), repeat=4)
    ]
    z3, z4 = t3.zero(), t4.zero()
    # unary laws, exhaustive on [-3,3]
    for x in box3:
        assert t3.add(x, t3.neg(x)) == z3
        assert t3.add(t3.neg(x), x) == z3
        a, b, c = x
        assert t3.neg(x) == (-a, -b, -c + a * b)
    for p in itertools.product(r3, repeat=4):
        x = og.member(t4, tuple(map(Fraction, p)))
        assert t4.add(x, t4.neg(x)) == z4
        a, b, c, d = x
        assert t4.neg(x) == (-a, -b, -c, -d + b * c)
    # pair laws: exhaustive twist3 box, then seeded twist4 pairs
    small3 = [og.member(t3, tuple(map(Fraction, p)))
              for p in itertools.product(range(-2, 3), repeat=3)]
    for x in small3:
        for y in small3[:60]:
            s = t3.add(x, y)
            assert t3.add(s, t3.neg(y)) == x
    rng = random.Random(13)
    for _ in range(20000):
        p = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
        q = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
        r = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
        x, y, w = og.member(t4, p), og.member(t4, q), og.member(t4, r)
        assert t4.add(t4.add(x, y), w) == t4.add(x, t4.add(y, w))
    # associativity, exhaustive on the [-1,1] boxes
    small3_unit = [og.member(t3, tuple(map(Fraction, p)))
                   for p in itertools.product(range(-1, 2), repeat=3)]
    for x in small3_unit:
        for y in small3_unit:
            for w in small3_unit:
                assert t3.add(t3.add(x, y), w) == t3.add(x, t3.add(y, w))
    # the four-term decomposition identity with the b*c correction
    for p in itertools.product(range(-2, 3), repeat=4):
        a, b, c, d = map(Fraction, p)
        x = og.member(t4, (a, b, c, d))
        parts = [
            og.member(t4, (a, Fraction(0), Fraction(0), Fraction(0))),
            og.member(t4, (Fraction(0), b, Fraction(0), Fraction(0))),
            og.member(t4, (Fraction(0), Fraction(0), c, Fraction(0))),
            og.member(t4, (Fraction(0), Fraction(0), Fraction(0), d - b * c)),
        ]
        acc = z4
        for part in parts:
            acc = t4.add(acc, part)
        assert acc == x
    spot = t4.add(og.member(t4, (0, 2, 0, 0)), og.member(t4, (0, 0, 3, 0)))
    assert spot == (0, 2, 3, 6)
    # centrality verdicts
    central3, witness = og.is_unit_central(t3)
    assert not central3
    u3 = t3.unit()
    assert t3.add(u3, witness) != t3.add(witness, u3)
    central4, _ = og.is_unit_central(t4)
    assert central4
    u4 = t4.unit()
    for x in box4_small:
        assert t4.add(u4, x) == t4.add(x, u4)
    _report(7, "twisted-family laws hold: exhaustive unary/pair boxes, "
               "20k sampled triples, decomposition identity, centrality")


# -----------------------------------------------------------------------------
# 8. the closure case analysis, including the planted open case


def test_criterion_8_sqrt_closure_cases():
    # case (i): Boolean algebras close to themselves
    d = cl.sqrt_closure(M(1))
    assert isinstance(d, cl.ClosureDescriptor)
    assert all(f.root == cl.IDENTITY for f in d.factors)
    # case (ii): the strict closure is the square-root closure
    for m in (M(3), M(5), pmv.finite_product([M(2), M(3)]), pmv.finite_product([M(4), M(6)])):
        ds = cl.sqrt_closure(m)
        assert isinstance(ds, cl.ClosureDescriptor)
        strict = cl.strict_closure(m)
        assert sorted((f.closed for f in ds.factors), key=repr) == sorted(
            (f.closed for f in strict.factors), key=repr
        )
    # case (iii): a splitting element mixes identity and shifted factors
    for m in (pmv.finite_product([M(1), M(4)]), pmv.finite_product([M(1), M(1), M(6)])):
        a = ideals.nn12_element(m)
        assert a is not None
        dm = cl.sqrt_closure(m)
        assert isinstance(dm, cl.ClosureDescriptor)
        kinds = {f.root for f in dm.factors}
        assert kinds == {cl.IDENTITY, cl.HALF_SHIFT}
    # the lexicographic algebra alone is still case (ii)
    lex = pmv.GammaAlgebra(og.Lex(og.ScaledInt(1), og.ScaledInt(1)))
    dl = cl.sqrt_closure(lex)
    assert isinstance(dl, cl.ClosureDescriptor)
    (fl,) = dl.factors
    assert fl.closed == og.Lex(og.ScaledDyadic(1), og.ScaledDyadic(1))
    # planted open case: both intersections nonzero, no splitting element
    planted = pmv.product([M(1), lex])
    out = cl.sqrt_closure(planted)
    assert isinstance(out, cl.OpenProblem)
    assert out.factor_reports
    # and the command line surfaces it as a verdict, not a crash
    import contextlib
    import io
    import json as json_mod
    from pmvroots import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(
            ["closure", "prod(M(1),gamma(lex(Z/1,Z/1)))", "--kind", "sqrt", "--json"]
        )
    blob = json_mod.loads(buf.getvalue())
    assert code == 1
    assert blob["status"] == "open_problem"
    _report(8, "case analysis verified on chains, products, lexicographic and "
               "planted open case surfaced as a verdict")
