"""Named reference computations with their expected exact values.

Each check recomputes a documented example from scratch through the
public API and compares exact values; ``run_all`` returns one result per
anchor and is what the ``verify-paper`` command replays.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import closures as cl
from . import ogroups as og
from . import pmv
from .dsl import format_group
from .errors import check
from .ideals import nn12_element, partition_primes
from .pmv import (
    GammaAlgebra,
    element_of,
    finite_mv_chain,
    finite_product,
    lneg,
    odot,
    one_elem,
    rneg,
    zero_elem,
)
from .records import Record
from .roots import element_sqrt, sqrt_boolean, sqrt_element_finite, sqrt_map, sqrt_zero
from .scalars import QuadValue, format_value


class CheckResult(Record):
    anchor: str
    ok: bool
    detail: str


def _listed(anchor: str, bad: list, detail: str) -> CheckResult:
    """A check that passes when it lists no failure, and then reads ``detail``."""
    return CheckResult(anchor, not bad, detail if not bad else f"failures: {bad}")


def _twist3() -> GammaAlgebra:
    return GammaAlgebra(og.Twist3("Z"))


def check_m3_root_values() -> CheckResult:
    M = finite_mv_chain(3)
    got = {}
    for num in (0, 1, 2, 3):
        r = sqrt_element_finite(M, element_of(M, Fraction(num, 3)))
        got[f"{num}/3"] = pmv.format_element(r.value) if r.exists else "absent"
    want = {"0/3": "1/3", "1/3": "2/3", "2/3": "absent", "3/3": "1"}
    return CheckResult("m3-root-values", got == want, f"roots {got}")


def check_odd_chain_roots() -> CheckResult:
    bad = []
    for n in range(2, 7):
        q = 2 * n - 1
        M = finite_mv_chain(q)
        r = sqrt_element_finite(M, element_of(M, Fraction(1, q)))
        if not (r.exists and pmv.value_of(r.value) == Fraction(n, q)):
            bad.append(f"sqrt(1/{q})")
        r = sqrt_element_finite(M, element_of(M, Fraction(2 * (n - 1), q)))
        if r.exists:
            bad.append(f"sqrt({2 * (n - 1)}/{q}) unexpectedly exists")
    return _listed("odd-chain-roots", bad,
                   "sqrt(1/(2n-1)) = n/(2n-1) and sqrt(2(n-1)/(2n-1)) absent for n in 2..6")


def check_even_chain_roots() -> CheckResult:
    bad = []
    for n in range(1, 7):
        q = 2 * n
        M = finite_mv_chain(q)
        r = sqrt_element_finite(M, zero_elem(M))
        if not (r.exists and pmv.value_of(r.value) == Fraction(n, q)):
            bad.append(f"sqrt(0) in M{q}")
        r = sqrt_element_finite(M, element_of(M, Fraction(1, q)))
        if r.exists:
            bad.append(f"sqrt(1/{q}) unexpectedly exists")
    return _listed("even-chain-roots", bad, "sqrt(0) = n/2n and sqrt(1/2n) absent for n in 1..6")


def check_twist3_root_family() -> CheckResult:
    A = _twist3()
    bad = []
    for n in range(1, 6):
        for m in range(n, 6):
            x = element_of(A, (1, -2 * n, 2 * m))
            r = element_sqrt(A, x)
            if not (r.exists and r.value.payload == (1, -n, m)):
                bad.append(f"(1,{-2 * n},{2 * m})")
            elif odot(r.value, r.value) != x:
                bad.append(f"square of root of (1,{-2 * n},{2 * m})")
    return _listed("twist3-root-family", bad, "sqrt(1,-2n,2m) = (1,-n,m) for 1 <= n <= m <= 5")


def check_twist3_zero_root() -> CheckResult:
    A = _twist3()
    r = element_sqrt(A, zero_elem(A))
    ok = (not r.exists) and r.reason == og.NO_MAX
    return CheckResult("twist3-zero-root", ok, f"sqrt(0): {r.reason}")


def check_twist3_odd_coordinate() -> CheckResult:
    A = _twist3()
    r = element_sqrt(A, element_of(A, (1, -1, 2)))
    ok = (not r.exists) and r.reason == og.NO_CANDIDATE
    return CheckResult("twist3-odd-coordinate", ok, f"sqrt(1,-1,2): {r.reason}")


def check_stage_one_subalgebra() -> CheckResult:
    M3 = finite_mv_chain(3)
    x1 = {x for x in pmv.carrier(M3) if sqrt_element_finite(M3, x).exists}
    vals = {pmv.value_of(x) for x in x1}
    want = {Fraction(0), Fraction(1, 3), Fraction(1)}
    closed_under_oplus = all(
        pmv.oplus(a, b) in x1 for a in x1 for b in x1
    )
    ok = vals == want and not closed_under_oplus
    detail = f"roots exist exactly at {sorted(map(str, vals))}; not a subalgebra"
    for n in range(1, 7):
        M = finite_mv_chain(2 * n)
        x1 = {x for x in pmv.carrier(M) if sqrt_element_finite(M, x).exists}
        even = {element_of(M, Fraction(2 * k, 2 * n)) for k in range(n + 1)}
        sub = all(
            pmv.oplus(a, b) in x1 and lneg(a) in x1 and rneg(a) in x1
            for a in x1
            for b in x1
        )
        ok = ok and x1 == even and sub
    return CheckResult("stage-one-subalgebra", ok, detail + "; even chains: even sub-chain")


def check_twist3_negation() -> CheckResult:
    desc = og.Twist3("Z")
    got = desc.neg(og.member(desc, (1, 2, 3)))
    ok = got == (-1, -2, -1)
    return CheckResult("twist3-negation", ok, f"-(1,2,3) = {format_value(got)}")


def check_twist4_decomposition() -> CheckResult:
    desc = og.Twist4("Z")
    grid = itertools.product(range(-2, 3), repeat=4)
    bad = sum(not cl.twist4_reassembles(desc, x) for x in grid)
    cross = desc.add(og.member(desc, (0, 2, 0, 0)), og.member(desc, (0, 0, 3, 0)))
    ok = bad == 0 and cross == (0, 2, 3, 6)
    return CheckResult(
        "twist4-decomposition",
        ok,
        f"identity holds on [-2,2]^4; (0,2,0,0)+(0,0,3,0) = {format_value(cross)}",
    )


def check_symmetry_witnesses() -> CheckResult:
    A3 = _twist3()
    sym3, w3 = pmv.is_symmetric(A3)
    x = element_of(A3, (0, 1, 0))
    ln, rn = lneg(x).payload, rneg(x).payload
    A4 = GammaAlgebra(og.Twist4("Z"))
    sym4, _ = pmv.is_symmetric(A4)
    ok = (
        not sym3
        and w3 is not None
        and ln == (1, -1, -1)
        and rn == (1, -1, 0)
        and sym4
    )
    return CheckResult(
        "symmetry-witnesses",
        ok,
        f"twisted Z^3 negations at (0,1,0): {format_value(ln)} vs "
        f"{format_value(rn)}; twisted Z^4 symmetric: {sym4}",
    )


def check_twist3_square_value() -> CheckResult:
    A = _twist3()
    x = element_of(A, (1, -1, 1))
    got = odot(x, x).payload
    return CheckResult(
        "twist3-square-value",
        got == (1, -2, 2),
        f"(1,-1,1) (.) (1,-1,1) = {format_value(got)}",
    )


def check_boolean_root_offset() -> CheckResult:
    M = finite_product([finite_mv_chain(1), finite_mv_chain(4)])
    b = element_of(M, (Fraction(1), Fraction(0)))
    r = sqrt_boolean(M, b)
    oracle = sqrt_element_finite(M, b)
    ok = (
        r.exists
        and pmv.value_of(r.value) == (Fraction(1), Fraction(1, 2))
        and oracle.exists
        and oracle.value == r.value
    )
    return CheckResult(
        "boolean-root-offset",
        ok,
        f"sqrt(1,0) = sqrt(0) v (1,0) = {pmv.format_element(r.value)}",
    )


def check_prime_partition_m3() -> CheckResult:
    M = finite_mv_chain(3)
    part = partition_primes(M)
    ok = (
        len(part.x1) == 0
        and len(part.x2) == 1
        and part.x2[0].members == frozenset({zero_elem(M)})
        and part.i1 == frozenset(pmv.carrier(M))
        and part.i2 == frozenset({zero_elem(M)})
    )
    return CheckResult(
        "prime-partition-m3",
        ok,
        "X1 empty, X2 = {{0}}, I1 = M, I2 = {0}",
    )


def check_nn12_values() -> CheckResult:
    algebras = {
        "M(3)": finite_mv_chain(3),
        "M(1)": finite_mv_chain(1),
        "prod(M(1),M(4))": finite_product([finite_mv_chain(1), finite_mv_chain(4)]),
    }
    got = {name: pmv.format_element(nn12_element(M)) for name, M in algebras.items()}
    want = {"M(3)": "0", "M(1)": "1", "prod(M(1),M(4))": "(1,0)"}
    return CheckResult("nn12-values", got == want, f"splitting elements {got}")


def check_strict_closure_catalog() -> CheckResult:
    cases = [
        (og.ScaledInt(1), og.ScaledDyadic(1)),
        (og.ScaledInt(2), og.ScaledDyadic(1)),
        (og.ScaledInt(3), og.ScaledDyadic(3)),
        (og.ScaledInt(5), og.ScaledDyadic(5)),
        (og.ScaledInt(7), og.ScaledDyadic(7)),
        (og.ScaledInt(6), og.ScaledDyadic(3)),
        (og.Lex(og.ScaledInt(1), og.ScaledInt(1)), og.Lex(og.ScaledDyadic(1), og.ScaledDyadic(1))),
        (og.Twist4("Z"), og.Twist4("D")),
        (
            og.QuadLattice(QuadValue.make(Fraction(-1), Fraction(1), 2)),
            og.QuadLattice(QuadValue.make(Fraction(-1), Fraction(1), 2), dyadic=True),
        ),
    ]
    bad = []
    for base, want in cases:
        got = cl.strict_closure(base).factors[0].closed
        if got != want:
            bad.append(f"{format_group(base)} -> {format_group(got)}")
    prod = og.ProductGroup((og.ScaledInt(2), og.ScaledInt(3), og.ScaledInt(4)))
    got = tuple(f.closed for f in cl.strict_closure(prod).factors)
    if got != (og.ScaledDyadic(1), og.ScaledDyadic(3), og.ScaledDyadic(1)):
        bad.append("three-factor product")
    return _listed("strict-closure-catalog", bad,
                   "chains, lex, twisted and quadratic closures as cataloged")


def check_sqrt_closure_cases() -> CheckResult:
    bad = []
    d = cl.sqrt_closure(finite_mv_chain(1))
    if not (isinstance(d, cl.ClosureDescriptor) and d.factors[0].root == cl.IDENTITY):
        bad.append("M(1) should be its own closure")
    for n in (2, 3, 5):
        d = cl.sqrt_closure(finite_mv_chain(n))
        s = cl.strict_closure(finite_mv_chain(n))
        if not (isinstance(d, cl.ClosureDescriptor) and d.factors == s.factors):
            bad.append(f"M({n}) closure should agree with the strict closure")
    d = cl.sqrt_closure(finite_product([finite_mv_chain(1), finite_mv_chain(4)]))
    if not (
        isinstance(d, cl.ClosureDescriptor)
        and sorted(f.root for f in d.factors) == [cl.HALF_SHIFT, cl.IDENTITY]
    ):
        bad.append("prod(M(1),M(4)) should mix identity and half-shift factors")
    return _listed("sqrt-closure-cases", bad, "cases (i)-(iii) as cataloged")


def check_lex_closure_analysis() -> CheckResult:
    lexd = og.Lex(og.ScaledInt(1), og.ScaledInt(1))
    d = cl.sqrt_closure(lexd)
    ok = isinstance(d, cl.ClosureDescriptor) and d.factors[0].closed == og.Lex(
        og.ScaledDyadic(1), og.ScaledDyadic(1)
    )
    planted = cl.sqrt_closure(og.ProductGroup((og.ScaledInt(1), lexd)))
    ok = ok and isinstance(planted, cl.OpenProblem)
    return CheckResult(
        "lex-closure-analysis",
        ok,
        "bare lex chain closes to lex(D/1,D/1); adding a Boolean factor has no "
        "splitting element and is surfaced as an open problem",
    )


def check_crit_planted_negative() -> CheckResult:
    r = cl.crit_check(og.ScaledInt(2), og.ScaledDyadic(3))
    ok = not r.ok and r.counterexample == Fraction(1, 3)
    positives = [
        cl.crit_check(cl.strict_closure(og.ScaledInt(n))) for n in (1, 2, 3, 5, 6, 7)
    ]
    ok = ok and all(p.ok for p in positives)
    return CheckResult(
        "crit-planted-negative",
        ok,
        f"counterexample h = {format_value(r.counterexample)} for (Z/2, D/3); catalog outputs pass",
    )


def check_corrdp_values() -> CheckResult:
    bad = []
    C = cl.strict_closure(og.ScaledInt(1))
    dec = cl.corrdp_decompose(C, element_of(C.closed_algebra, Fraction(3, 4)))
    if not (dec.n == 2 and dec.minimal and sum(p.payload for p in dec.parts) == 3):
        bad.append("3/4 over Z")
    C = cl.strict_closure(og.ScaledInt(6))
    A = C.closed_algebra
    dec = cl.corrdp_decompose(C, element_of(A, Fraction(5, 6)))
    if dec.n != 0:
        bad.append("5/6 is already in the base chain")
    dec = cl.corrdp_decompose(C, element_of(A, Fraction(5, 12)))
    if not (dec.n == 1 and sum(p.payload for p in dec.parts) == Fraction(5, 6)):
        bad.append("5/12 over (1/6)Z")
    return _listed("corrdp-values", bad, "doubling exponents and greedy parts as computed by hand")


def check_minimal_two_divisible() -> CheckResult:
    rep = cl.minimal_two_divisible_check()
    return CheckResult(
        "minimal-two-divisible",
        rep["minimal"],
        "axis halving chains, decomposition identity and the doubling criterion "
        "certify the dyadic twisted group as least",
    )


def check_even_chain_closures() -> CheckResult:
    bad = []
    for n in range(1, 7):
        M = finite_mv_chain(2 * n)
        d = cl.sqrt_closure(M)
        s = cl.strict_closure(M)
        if not (isinstance(d, cl.ClosureDescriptor) and d.factors == s.factors):
            bad.append(f"M({2 * n})")
    return _listed("even-chain-closures", bad,
                   "square-root closure equals strict closure on even chains up to M(12)")


def w_split(M: pmv.FiniteAlgebra):
    """Split ``M``, which has a total square root mapping r, as
    [0, w] x [0, w-] along x -> (x ^ w, x ^ w-), w = r(0)- (.) r(0)-,
    computing both parts from the algebra.  Returns the parts, the map and
    three flags: the first part is Boolean, the second carries a strict
    mapping r2, and r2(x) = r(x) ^ w- there.  For an idempotent w the map is
    an isomorphism, so it is checked only to send 0 and 1 to 0 and 1 and to
    be a bijection."""
    r = sqrt_map(M)
    w, wc = r.w, lneg(r.w)
    B, S = pmv.interval(M, w), pmv.interval(M, wc)
    P = finite_product([B, S])
    mapping = {
        x: element_of(P, (pmv.value_of(pmv.meet(x, w)), pmv.value_of(pmv.meet(x, wc))))
        for x in pmv.carrier(M)
    }
    check(mapping[zero_elem(M)] == zero_elem(P), "the w-split maps 0 to 0")
    check(mapping[one_elem(M)] == one_elem(P), "the w-split maps 1 to 1")
    check(len(set(mapping.values())) == P.size == M.size, "the w-split is a bijection onto the product")
    r2 = sqrt_map(S)
    flags = (
        all(pmv.is_boolean_elem(b) for b in pmv.carrier(B)),
        r2 is not None and r2.strict,
        r2 is not None
        and all(
            element_of(S, pmv.value_of(pmv.meet(r.mapping[x], wc)))
            == r2.mapping[element_of(S, pmv.value_of(x))]
            for x in pmv.carrier(M)
            if pmv.leq(x, wc)
        ),
    )
    return B, S, mapping, flags


def check_w_decomposition() -> CheckResult:
    bad = []
    for M in (finite_mv_chain(1), finite_product([finite_mv_chain(1), finite_mv_chain(1)])):
        if not all(w_split(M)[3]):
            bad.append(str(M))
        m = sqrt_map(M)
        if m is None or m.strict or m.w != one_elem(M):
            bad.append(f"map data on {M}")
    return _listed("w-decomposition", bad, "Boolean algebras split as [0,w] x [0,w-] with w = 1")


def check_quad_closure() -> CheckResult:
    alpha = QuadValue.make(Fraction(-1), Fraction(1), 2)
    base = og.QuadLattice(alpha)
    d = cl.sqrt_closure(base)
    s = cl.strict_closure(base)
    ok = (
        isinstance(d, cl.ClosureDescriptor)
        and d.factors == s.factors
        and d.factors[0].closed == og.QuadLattice(alpha, dyadic=True)
        and cl.crit_check(s).ok
    )
    return CheckResult(
        "quad-closure",
        ok,
        "the lattice on 1 and sqrt(2)-1 closes to its dyadic span, both kinds",
    )


def check_twist3_halving() -> CheckResult:
    desc = og.Twist3("Z")
    h = og.try_halve(desc, og.member(desc, (2, -2, 3)))
    missing = og.try_halve(desc, og.member(desc, (2, -2, 4)))
    ok = h == (1, -1, 2) and missing is None
    return CheckResult(
        "twist3-halving",
        ok,
        "half of (2,-2,3) is (1,-1,2); (2,-2,4) has no half (odd cocycle residue)",
    )


def check_noncentral_witness() -> CheckResult:
    desc = og.Twist3("Z")
    central, witness = og.is_unit_central(desc)
    g, u = og.member(desc, (0, 1, 0)), desc.unit()
    left, right = desc.add(u, g), desc.add(g, u)
    ok = not central and witness is not None and left == (1, 1, 1) and right == (1, 1, 0)
    return CheckResult(
        "noncentral-witness",
        ok,
        f"u+(0,1,0) = {format_value(left)} differs from "
        f"(0,1,0)+u = {format_value(right)}",
    )


def check_strong_unit_bound() -> CheckResult:
    desc = og.Twist3("Z")
    n = og.strong_unit_bound(desc, og.member(desc, (2, -5, 9)))
    return CheckResult("strong-unit-bound", n == 3, f"|(2,-5,9)| <= {n}u")


def check_gamma_finite_agreement() -> CheckResult:
    bad = []
    for n in (2, 4, 6):
        M = finite_mv_chain(n)
        G = GammaAlgebra(og.ScaledInt(n))
        for k in range(n + 1):
            a = sqrt_element_finite(M, element_of(M, Fraction(k, n)))
            b = element_sqrt(G, element_of(G, Fraction(k, n)))
            if a.exists != b.exists:
                bad.append(f"{k}/{n}")
            elif a.exists and pmv.value_of(a.value) != b.value.payload:
                bad.append(f"value at {k}/{n}")
    return _listed("gamma-finite-agreement", bad,
                   "the halving formula and the exhaustive search agree on even chains")


def check_dyadic_sqrt_map() -> CheckResult:
    A = GammaAlgebra(og.ScaledDyadic(1))
    r0 = sqrt_zero(A)
    ok = r0.exists and r0.value.payload == Fraction(1, 2)
    x = element_of(A, Fraction(3, 8))
    r = element_sqrt(A, x)
    ok = ok and r.exists and r.value.payload == Fraction(11, 16)
    ok = ok and odot(r.value, r.value) == x
    strict = r0.exists and r0.value == lneg(r0.value)
    return CheckResult(
        "dyadic-sqrt-map",
        ok and strict,
        "over the dyadic unit interval sqrt(0) = 1/2 = its negation (strict) "
        "and sqrt(3/8) = 11/16",
    )


ALL_CHECKS = (
    check_m3_root_values,
    check_odd_chain_roots,
    check_even_chain_roots,
    check_twist3_root_family,
    check_twist3_zero_root,
    check_twist3_odd_coordinate,
    check_stage_one_subalgebra,
    check_twist3_negation,
    check_twist4_decomposition,
    check_symmetry_witnesses,
    check_twist3_square_value,
    check_boolean_root_offset,
    check_prime_partition_m3,
    check_nn12_values,
    check_strict_closure_catalog,
    check_sqrt_closure_cases,
    check_lex_closure_analysis,
    check_crit_planted_negative,
    check_corrdp_values,
    check_minimal_two_divisible,
    check_even_chain_closures,
    check_w_decomposition,
    check_quad_closure,
    check_twist3_halving,
    check_noncentral_witness,
    check_strong_unit_bound,
    check_gamma_finite_agreement,
    check_dyadic_sqrt_map,
)


def run_all() -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check())
        except Exception as exc:  # surface, never hide, a broken check
            anchor = check.__name__.removeprefix("check_").replace("_", "-")
            results.append(CheckResult(anchor, False, f"raised {type(exc).__name__}: {exc}"))
    return results
