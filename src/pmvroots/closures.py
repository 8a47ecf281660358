"""Square-root closures of pseudo MV-algebras.

Two closure operators are computed symbolically, factor by factor:

* the *strict* closure ``C(M)``: the smallest extension whose group is
  two-divisible, where ``r(x) = (x + u)/2`` is a strict square root
  mapping.  On a chain ``[0,1]`` of ``(1/n) Z`` it is the interval of
  ``(1/odd(n)) D`` (``D`` the dyadic rationals); quadratic lattices gain
  dyadic coefficients; lexicographic and twisted families close
  componentwise; products close factorwise.

* the *square-root* closure ``D(M)``: the smallest extension carrying a
  total square root mapping.  It is decided by the prime partition:
  (i) ``I1 = {0}`` forces ``M`` Boolean and ``D(M) = M``;
  (ii) ``I2 = {0}`` gives ``D(M) = C(M)``;
  (iii) otherwise a splitting element ``a`` (1 mod I1, 0 mod I2) yields
  ``D(M) = [0, a] x C([0, a-])``.  When both intersections are nonzero
  and no splitting element exists, the construction is not known to
  apply and an :class:`OpenProblem` value is returned instead.

``crit_check`` certifies that a closed group really is a closure base:
every element must reach the base group under repeated doubling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import ogroups as og
from . import pmv
from .errors import ParameterError, UnsupportedOperationError
from .ideals import nn12_element, partition_primes
from .pmv import Element, FiniteAlgebra, GammaAlgebra, element_of, odot, zero_elem
from .scalars import dyadic_exponent, is_dyadic, odd_part

HALF_SHIFT = "half_shift"
IDENTITY = "identity"


@dataclass(frozen=True)
class FactorClosure:
    base: og.GroupDescriptor
    closed: og.GroupDescriptor
    root: str  # HALF_SHIFT | IDENTITY


@dataclass(frozen=True)
class ClosureDescriptor:
    kind: str  # "strict" | "sqrt"
    factors: tuple[FactorClosure, ...]

    def base_descriptor(self) -> og.GroupDescriptor:
        descs = tuple(f.base for f in self.factors)
        return descs[0] if len(descs) == 1 else og.ProductGroup(descs)

    def closed_descriptor(self) -> og.GroupDescriptor:
        descs = tuple(f.closed for f in self.factors)
        return descs[0] if len(descs) == 1 else og.ProductGroup(descs)

    def base_algebra(self) -> GammaAlgebra:
        return GammaAlgebra(self.base_descriptor())

    def closed_algebra(self) -> GammaAlgebra:
        return GammaAlgebra(self.closed_descriptor())

    def to_text(self) -> str:
        from .dsl import format_group

        inner = "; ".join(
            f"{format_group(f.base)} -> {format_group(f.closed)}"
            + (" (identity)" if f.root == IDENTITY else "")
            for f in self.factors
        )
        return f"{self.kind}[ {inner} ]"

    def to_json(self) -> dict:
        from .dsl import format_group

        return {
            "kind": self.kind,
            "factors": [
                {
                    "base": format_group(f.base),
                    "closed": format_group(f.closed),
                    "root": f.root,
                }
                for f in self.factors
            ],
            "embedding": "coordinatewise inclusion",
        }


@dataclass(frozen=True)
class OpenProblem:
    explanation: str
    factor_reports: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# strict closure


def _flatten(desc: og.GroupDescriptor) -> list[og.GroupDescriptor]:
    if isinstance(desc, og.ProductGroup):
        out = []
        for f in desc.factors:
            out.extend(_flatten(f))
        return out
    return [desc]


def _close_factor(desc: og.GroupDescriptor) -> og.GroupDescriptor:
    if isinstance(desc, og.ScaledInt):
        return og.ScaledDyadic(odd_part(desc.n))
    if isinstance(desc, (og.ScaledDyadic, og.Rationals)):
        return desc
    if isinstance(desc, og.QuadLattice):
        return og.QuadLattice(desc.alpha, dyadic=True)
    if isinstance(desc, og.Lex):
        return og.Lex(_close_factor(desc.head), _close_factor(desc.tail))
    if isinstance(desc, og.Twist4):
        return og.Twist4("D" if desc.tag in ("Z", "D") else "Q")
    if isinstance(desc, og.Twist3):
        raise UnsupportedOperationError(
            "the twisted Z^3 interval is not symmetric, so it admits no strict "
            "square root mapping and no strict closure"
        )
    raise UnsupportedOperationError(f"no strict closure rule for {desc!r}")


def _as_descriptor(M) -> og.GroupDescriptor:
    if isinstance(M, og.GroupDescriptor):
        return M
    if isinstance(M, GammaAlgebra):
        return M.desc
    if isinstance(M, FiniteAlgebra):
        return pmv.to_gamma_descriptor(M)
    raise ParameterError(f"cannot interpret {M!r} as an algebra or descriptor")


def strict_closure(M) -> ClosureDescriptor:
    """The factorwise two-divisible closure, as base -> closed pairs."""
    factors = tuple(
        FactorClosure(base=d, closed=_close_factor(d), root=HALF_SHIFT)
        for d in _flatten(_as_descriptor(M))
    )
    for f in factors:
        assert og.is_two_divisible(f.closed)
    return ClosureDescriptor("strict", factors)


def strict_closure_idempotence_check(M) -> bool:
    """Closing twice changes nothing."""
    once = strict_closure(M)
    twice = strict_closure(once.closed_descriptor())
    return tuple(f.closed for f in once.factors) == tuple(f.closed for f in twice.factors)


# ---------------------------------------------------------------------------
# the reachability criterion


@dataclass(frozen=True)
class CritResult:
    ok: bool
    detail: str
    counterexample: og.GroupElement | None = None
    samples_checked: int = 0
    max_exponent_seen: int = 0


def _claimed_exponent(base: og.GroupDescriptor, closed: og.GroupDescriptor, payload) -> int | None:
    """Symbolic certificate: an n with 2**n * h in the base, or None."""
    if isinstance(base, og.ScaledInt) and isinstance(closed, og.ScaledDyadic):
        if odd_part(base.n) != closed.q:
            return None
        scaled = payload * closed.q
        return dyadic_exponent(scaled) if is_dyadic(scaled) else None
    if isinstance(base, og.ScaledDyadic) and isinstance(closed, og.ScaledDyadic):
        return 0 if base.q == closed.q else None
    if isinstance(base, og.Rationals) and isinstance(closed, og.Rationals):
        return 0
    if isinstance(base, og.QuadLattice) and isinstance(closed, og.QuadLattice):
        if base.alpha != closed.alpha or not closed.dyadic:
            return None
        if base.dyadic:
            return 0
        if not all(is_dyadic(c) for c in payload):
            return None
        return max(dyadic_exponent(c) for c in payload)
    if isinstance(base, og.Lex) and isinstance(closed, og.Lex):
        e1 = _claimed_exponent(base.head, closed.head, payload[0])
        e2 = _claimed_exponent(base.tail, closed.tail, payload[1])
        return None if e1 is None or e2 is None else max(e1, e2)
    if isinstance(base, og.Twist4) and isinstance(closed, og.Twist4):
        if base.tag == closed.tag:
            return 0
        if not (base.tag == "Z" and closed.tag == "D"):
            return None
        # 2^n-fold sum is (2^n a, 2^n b, 2^n c, 2^n d + 2^(n-1)(2^n - 1) b c)
        exps = [dyadic_exponent(c) for c in payload]
        bc = payload[1] * payload[2]
        return max(*exps, (dyadic_exponent(bc) + 1) if bc else 0)
    if isinstance(base, og.ProductGroup) and isinstance(closed, og.ProductGroup):
        es = [
            _claimed_exponent(b, c, p)
            for b, c, p in zip(base.factors, closed.factors, payload)
        ]
        return None if any(e is None for e in es) else max(es)
    return None


def _containment_counterexample(base, closed) -> og.GroupElement | None:
    """An element of the base group missing from the claimed closure."""
    if isinstance(base, (og.ScaledInt, og.ScaledDyadic)):
        scale = base.n if isinstance(base, og.ScaledInt) else base.q
        probe = Fraction(1, scale)
        if not og.contains(closed, probe):
            return og.GroupElement(base, probe)
    if isinstance(base, og.ProductGroup) and isinstance(closed, og.ProductGroup):
        if len(base.factors) == len(closed.factors):
            for i, (b, c) in enumerate(zip(base.factors, closed.factors)):
                inner = _containment_counterexample(b, c)
                if inner is not None:
                    payload = tuple(
                        inner.payload if j == i else og.zero(f).payload
                        for j, f in enumerate(base.factors)
                    )
                    return og.GroupElement(base, payload)
    return None


def crit_check(base, closed=None, *, samples: int = 60, seed: int = 2) -> CritResult:
    """Certify that every element of ``closed`` reaches ``base`` by doubling.

    ``base`` may also be a :class:`ClosureDescriptor`, in which case its
    own pairing is checked.  The symbolic exponent certificate is
    re-verified on pseudo-random elements by explicit repeated addition.
    """
    if isinstance(base, ClosureDescriptor):
        base, closed = base.base_descriptor(), base.closed_descriptor()
    bad = _containment_counterexample(base, closed)
    if bad is not None:
        return CritResult(
            ok=False,
            detail=f"{bad} lies in the base group but not in the claimed closure",
            counterexample=bad,
        )
    probe = og.unit(closed).payload
    if _claimed_exponent(base, closed, probe) is None:
        h = _criterion_counterexample(base, closed)
        reachable = any(
            og.contains(base, og.mul_int(2**n, h).payload) for n in range(41)
        )
        if reachable:
            return CritResult(
                ok=False,
                detail="no symbolic certificate covers this base/closure pair",
            )
        return CritResult(
            ok=False,
            detail=f"no doubling of {h} lands in the base group",
            counterexample=h,
        )
    rng = random.Random(seed)
    max_seen = 0
    for _ in range(samples):
        h = og.random_element(closed, rng, coord_bound=3, exp_bound=5)
        n = _claimed_exponent(base, closed, h.payload)
        if n is None:
            return CritResult(False, f"certificate has no exponent for {h}", h)
        doubled = og.mul_int(2**n, h)
        if not og.contains(base, doubled.payload):
            return CritResult(False, f"2^{n} * {h} is not in the base group", h)
        max_seen = max(max_seen, n)
    return CritResult(
        ok=True,
        detail="every sampled element reached the base group under doubling",
        samples_checked=samples,
        max_exponent_seen=max_seen,
    )


def _criterion_counterexample(base, closed) -> og.GroupElement:
    """A closure element no doubling of which lands in the base group."""
    if isinstance(closed, og.ScaledDyadic):
        return og.GroupElement(closed, Fraction(1, closed.q))
    if isinstance(closed, og.ProductGroup):
        for b, c in zip(base.factors, closed.factors):
            if _claimed_exponent(b, c, og.unit(c).payload) is None:
                inner = _criterion_counterexample(b, c)
                payload = tuple(
                    inner.payload if f is c else og.zero(f).payload for f in closed.factors
                )
                return og.GroupElement(closed, payload)
    return og.unit(closed)


# ---------------------------------------------------------------------------
# Riesz-style decomposition in the closed algebra


@dataclass(frozen=True)
class RdpDecomposition:
    n: int
    parts: tuple[Element, ...]
    minimal: bool


def corrdp_decompose(C: ClosureDescriptor, x: Element) -> RdpDecomposition:
    """Write 2^n * x as a sum of 2^n base-interval elements, n minimal.

    ``x`` must belong to the closed algebra of ``C``; the parts are the
    greedy meets with the unit, which is valid in the commutative case.
    """
    closed_alg = C.closed_algebra()
    base_desc = C.base_descriptor()
    if x.algebra != closed_alg:
        raise ParameterError("element does not live in the closed algebra")
    if not og.is_abelian(base_desc):
        raise UnsupportedOperationError("the decomposition needs a commutative group")
    g = og.GroupElement(closed_alg.desc, x.payload)
    n = 0
    while not og.contains(base_desc, og.mul_int(2**n, g).payload):
        n += 1
        if n > 128:
            raise ParameterError(f"{x} never reaches the base group by doubling")
    doubled = og.GroupElement(base_desc, og.mul_int(2**n, g).payload)
    base_alg = C.base_algebra()
    u = og.unit(base_desc)
    parts = []
    remaining = doubled
    for _ in range(2**n):
        p = og.g_meet(remaining, u)
        parts.append(element_of(base_alg, p.payload))
        remaining = og.g_sub(remaining, p)
    assert remaining == og.zero(base_desc)
    total = og.zero(base_desc)
    for p in parts:
        total = og.g_add(total, og.GroupElement(base_desc, p.payload))
    assert total == doubled
    minimal = n == 0 or not og.contains(base_desc, og.mul_int(2 ** (n - 1), g).payload)
    return RdpDecomposition(n=n, parts=tuple(parts), minimal=minimal)


def closure_sqrt(C: ClosureDescriptor, x: Element) -> Element:
    """The square root mapping of the closed algebra of ``C``.

    Half-shift factors use (x + u)/2; identity factors (Boolean parts of
    a square-root closure) leave coordinates unchanged.
    """
    closed_alg = C.closed_algebra()
    if x.algebra != closed_alg:
        raise ParameterError("element does not live in the closed algebra")
    payloads = [x.payload] if len(C.factors) == 1 else list(x.payload)
    out = []
    for f, p in zip(C.factors, payloads):
        if f.root == IDENTITY:
            out.append(p)
            continue
        ge = og.GroupElement(f.closed, p)
        h = og.try_halve(og.g_add(ge, og.unit(f.closed)))
        assert h is not None, "closed factors are two-divisible"
        out.append(h.payload)
    r = element_of(closed_alg, out[0] if len(out) == 1 else tuple(out))
    assert odot(r, r) == x
    return r


# ---------------------------------------------------------------------------
# square-root closure


def _head_gives_boolean_quotient(desc: og.GroupDescriptor) -> bool:
    """Whether collapsing everything below the leading Archimedean component
    leaves the two-element algebra."""
    if isinstance(desc, og.ScaledInt):
        return desc.n == 1
    if isinstance(desc, og.Lex):
        return _head_gives_boolean_quotient(desc.head)
    return False


@dataclass(frozen=True)
class _FactorProfile:
    i1_zero: bool
    i2_zero: bool
    splitting: str | None  # "unit" | "zero" | None


def _profile(desc: og.GroupDescriptor) -> _FactorProfile:
    if isinstance(desc, og.Twist3):
        raise UnsupportedOperationError(
            "the square-root closure needs coinciding negations; the twisted "
            "Z^3 interval is not symmetric"
        )
    if isinstance(desc, og.ScaledInt) and desc.n == 1:
        return _FactorProfile(i1_zero=True, i2_zero=False, splitting="unit")
    if isinstance(desc, (og.ScaledInt, og.ScaledDyadic, og.Rationals, og.QuadLattice)):
        return _FactorProfile(i1_zero=False, i2_zero=True, splitting="zero")
    if isinstance(desc, (og.Lex, og.Twist4)):
        # chains with more than two elements always have I2 = {0}; a prime
        # with Boolean quotient exists exactly when the leading component
        # collapses to the two-element chain (for the twisted families the
        # head is a copy of Z, so it always does)
        boolean_top = (
            True if isinstance(desc, og.Twist4) else _head_gives_boolean_quotient(desc)
        )
        return _FactorProfile(
            i1_zero=False, i2_zero=True, splitting=None if boolean_top else "zero"
        )
    raise UnsupportedOperationError(f"no square-root closure rule for {desc!r}")


def sqrt_closure(M) -> ClosureDescriptor | OpenProblem:
    """The square-root closure by case analysis on the prime partition."""
    if isinstance(M, FiniteAlgebra):
        return _sqrt_closure_finite(M)
    desc = _as_descriptor(M)
    factors = _flatten(desc)
    profiles = [_profile(f) for f in factors]
    if all(p.i1_zero for p in profiles):
        return ClosureDescriptor(
            "sqrt", tuple(FactorClosure(f, f, IDENTITY) for f in factors)
        )
    if all(p.i2_zero for p in profiles):
        return ClosureDescriptor(
            "sqrt",
            tuple(FactorClosure(f, _close_factor(f), HALF_SHIFT) for f in factors),
        )
    if any(p.splitting is None for p in profiles):
        reports = tuple(
            f"factor {i}: no element is 1 mod I1 and 0 mod I2"
            for i, p in enumerate(profiles)
            if p.splitting is None
        )
        return OpenProblem(
            explanation=(
                "both prime-intersection ideals are nonzero and no splitting "
                "element exists; whether such an algebra has a square-root "
                "closure is not settled by the implemented construction"
            ),
            factor_reports=reports,
        )
    out = []
    for f, p in zip(factors, profiles):
        if p.splitting == "unit":
            out.append(FactorClosure(f, f, IDENTITY))
        else:
            out.append(FactorClosure(f, _close_factor(f), HALF_SHIFT))
    return ClosureDescriptor("sqrt", tuple(out))


def _sqrt_closure_finite(M: FiniteAlgebra) -> ClosureDescriptor | OpenProblem:
    if M.size == 1:
        raise ParameterError("the one-element algebra is excluded")
    sym, witness = pmv.is_symmetric(M)
    if not sym:
        raise UnsupportedOperationError(
            f"the square-root closure needs coinciding negations ({witness} differs)"
        )
    part = partition_primes(M)
    atoms = pmv.chain_decomposition(M)
    zero_only = frozenset({zero_elem(M)})
    # chains below a stay as they are (Boolean), the others close strictly:
    # a = 1 in case (i), 0 in case (ii), the splitting element in case (iii)
    if part.i1 == zero_only:
        a = pmv.one_elem(M)
    elif part.i2 == zero_only:
        a = zero_elem(M)
    else:
        a = nn12_element(M, part=part)
        if a is None:
            return OpenProblem(
                explanation=(
                    "both prime-intersection ideals are nonzero and no element is "
                    "1 mod I1 and 0 mod I2; the implemented construction does not "
                    "decide this algebra"
                ),
            )
    out = []
    for atom, n in atoms:
        if pmv.leq(atom, a):
            assert n == 1, "the atoms below the splitting element bound Boolean intervals"
            out.append(FactorClosure(og.ScaledInt(1), og.ScaledInt(1), IDENTITY))
        else:
            out.append(
                FactorClosure(og.ScaledInt(n), og.ScaledDyadic(odd_part(n)), HALF_SHIFT)
            )
    return ClosureDescriptor("sqrt", tuple(out))


# ---------------------------------------------------------------------------
# the twisted Z^4 closure is genuinely minimal


def minimal_two_divisible_check(*, samples: int = 40, seed: int = 5) -> dict:
    """Replay the minimality argument for Twist4(Z) -> Twist4(D).

    Any two-divisible group containing the integer-tagged carrier must
    contain the halving chain of each axis generator; the four-part
    identity then reassembles every dyadic-tagged element from axis
    elements, so the dyadic tag is the least two-divisible extension.
    """
    base, closed = og.Twist4("Z"), og.Twist4("D")
    axes_ok = True
    for i in range(4):
        g = og.element(closed, tuple(Fraction(int(j == i)) for j in range(4)))
        for _ in range(6):
            h = og.try_halve(g)
            axes_ok = axes_ok and h is not None and og.contains(closed, h.payload)
            g = h
    rng = random.Random(seed)
    decomposition_ok = True
    for _ in range(samples):
        x = og.random_element(closed, rng, coord_bound=4, exp_bound=4)
        a, b, c, d = x.payload
        parts = [
            og.element(closed, (a, 0, 0, 0)),
            og.element(closed, (0, b, 0, 0)),
            og.element(closed, (0, 0, c, 0)),
            og.element(closed, (0, 0, 0, d - b * c)),
        ]
        total = og.zero(closed)
        for p in parts:
            total = og.g_add(total, p)
        decomposition_ok = decomposition_ok and total == x
    crit = crit_check(base, closed, samples=samples, seed=seed)
    return {
        "axis_halving_chains_in_closure": axes_ok,
        "decomposition_identity_samples": samples,
        "decomposition_identity_ok": decomposition_ok,
        "criterion_ok": crit.ok,
        "minimal": axes_ok and decomposition_ok and crit.ok,
    }
