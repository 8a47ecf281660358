"""Square-root closures of pseudo MV-algebras.

Two closure operators are computed symbolically, factor by factor.  The
rule of each family is a method of its group descriptor (``ogroups``):
``flat``, ``strict_closure``, ``has_boolean_quotient``, ``doubling_plan``,
``missing_from``, ``unreachable_from`` and ``witness``; this module holds
the case analysis, the seeded loop of ``crit_check`` and the records, and
tests no family.

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
  On a flattened product the cases are read off two predicates of each
  factor: ``_is_boolean`` (it is ``Z/1``) and ``has_boolean_quotient``.
  ``I1 = {0}`` when every factor is Boolean and ``I2 = {0}`` when none
  is; a splitting element exists unless some non-Boolean factor has a
  Boolean quotient.  In each case ``D(M)`` is the identity on the Boolean
  factors and the strict closure on the others.

Both operators work on group descriptors.  A finite algebra is first
written as ``Gamma(prod (1/n_i) Z, u)`` from its chain decomposition, so
its closures are decided by the same case analysis as its l-group's.

``crit_check`` certifies that a closed group really is a closure base:
every element must reach the base group under repeated doubling.  Once per
call it asks the closed group for its doubling plan
(``closed.doubling_plan(base)``), the checks that read the integers of a
flat draw by offset: per family they give the exponent n and decide whether
2**n * h lies in the base by divisibility.  An identity plan (every factor
has ``base == closed``) checks nothing, since a draw of a group is a member
of it, so it is answered without a draw.  Any other plan is run
(``og.certify``) on each sample of one stream of flat draws of the closed
group's scalars (``og.scalar_draws``); its identity factors take their
draws and are not re-checked, so the samples are the payloads that
``closed.random`` draws.  A square-root closure refuses a factor whose unit
is not central (``witness``): its two negations differ.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cached_property, reduce

from . import ogroups as og
from . import pmv
from .errors import ParameterError, UnsupportedOperationError, check
from .pmv import Element, FiniteAlgebra, GammaAlgebra, element_of
from .records import Record
from .scalars import format_value

HALF_SHIFT = "half_shift"
IDENTITY = "identity"


class FactorClosure(Record):
    base: og.GroupDescriptor
    closed: og.GroupDescriptor
    root: str  # HALF_SHIFT | IDENTITY


class ClosureDescriptor(Record):
    kind: str  # "strict" | "sqrt"
    factors: tuple[FactorClosure, ...]

    # built once, on first use, into the record's ``__dict__`` (not
    # annotated, so not record fields)
    @cached_property
    def base(self) -> og.GroupDescriptor:
        return og.product_of([f.base for f in self.factors])

    @cached_property
    def closed(self) -> og.GroupDescriptor:
        return og.product_of([f.closed for f in self.factors])

    @cached_property
    def base_algebra(self) -> GammaAlgebra:
        return GammaAlgebra(self.base)

    @cached_property
    def closed_algebra(self) -> GammaAlgebra:
        return GammaAlgebra(self.closed)

    def to_json(self) -> dict:
        """The closure as the ``closure`` verb reports it, with its groups
        in the text of the group language."""
        from .dsl import format_group

        pairs = [(format_group(f.base), format_group(f.closed), f.root) for f in self.factors]
        inner = "; ".join(
            f"{b} -> {c}" + (" (identity)" if r == IDENTITY else "") for b, c, r in pairs
        )
        return {
            "descriptor": f"{self.kind}[ {inner} ]",
            "kind": self.kind,
            "factors": [{"base": b, "closed": c, "root": r} for b, c, r in pairs],
            "base": format_group(self.base),
            "closed": format_group(self.closed),
            "embedding": "coordinatewise inclusion",
        }


class OpenProblem(Record):
    explanation: str
    factor_reports: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# strict closure


def _as_descriptor(M) -> og.GroupDescriptor:
    if isinstance(M, og.GroupDescriptor):
        return M
    if isinstance(M, GammaAlgebra):
        return M.desc
    if isinstance(M, FiniteAlgebra):
        if M.size == 1:
            raise ParameterError("the one-element algebra is excluded")
        return pmv.to_gamma_descriptor(M)
    raise ParameterError(f"cannot interpret {M!r} as an algebra or descriptor")


def strict_closure(M) -> ClosureDescriptor:
    """The factorwise two-divisible closure, as base -> closed pairs."""
    factors = tuple(
        FactorClosure(base=d, closed=d.strict_closure(), root=HALF_SHIFT)
        for d in _as_descriptor(M).flat()
    )
    for f in factors:
        check(f.closed.two_divisible, "every strict closure factor is two-divisible")
    return ClosureDescriptor("strict", factors)


# ---------------------------------------------------------------------------
# the reachability criterion


class CritResult(Record):
    ok: bool
    detail: str
    counterexample: og.Payload | None = None
    samples_checked: int = 0
    max_exponent_seen: int = 0


def crit_check(base, closed=None, *, samples: int = 60, seed: int = 2) -> CritResult:
    """Certify that every element of ``closed`` reaches ``base`` by doubling.

    ``base`` may also be a :class:`ClosureDescriptor`, in which case its
    own pairing is checked.  The symbolic exponent certificate, the closed
    group's doubling plan, is re-verified on ``samples`` seeded draws of
    ``closed``: one stream of flat draws of the integers of its scalars
    (``og.scalar_draws`` with bound 3 and exponent 5, as ``closed.draw(rng,
    3, 5)`` draws), each checked by one call of ``og.certify``, which gives
    the sample's exponent n and whether its 2**n-fold sum (``closed.mul`` at
    2**n, in closed form per family) lies in the base group, by integer
    divisibility.  An identity plan, with no check and matching shapes,
    draws nothing: it is ok with ``samples`` samples and exponent 0.  In any
    other plan, identity factors consume their draws and are not re-checked.
    A failing sample is reported as the payload that ``closed.random`` draws
    at that point.
    """
    if isinstance(base, ClosureDescriptor):
        base, closed = base.base, base.closed
    bad = base.missing_from(closed)
    if bad is not None:
        return CritResult(
            ok=False,
            detail=f"{format_value(bad)} lies in the base group but not in the claimed closure",
            counterexample=bad,
        )
    plan = closed.doubling_plan(base)
    if plan is None:
        h = closed.unreachable_from(base)
        reachable = any(map(base.contains, _doublings(closed, h, 41)))
        if reachable:
            return CritResult(
                ok=False,
                detail="no symbolic certificate covers this base/closure pair",
            )
        return CritResult(
            ok=False,
            detail=f"no doubling of {format_value(h)} lands in the base group",
            counterexample=h,
        )
    scaled, twisted, shapes_match = plan
    max_seen = 0
    # an identity plan checks nothing, as a draw of a group is a member of it
    if scaled or twisted or not shapes_match:
        draws = og.scalar_draws(closed.scalars(), random.Random(seed), 3, 5)
        for _, draw in zip(range(samples), draws):
            n, lands = og.certify(scaled, twisted, shapes_match, draw)
            if not lands:
                h = closed.from_draw(draw)
                return CritResult(False, f"2^{n} * {format_value(h)} is not in the base group", h)
            max_seen = max(max_seen, n)
    return CritResult(
        ok=True,
        detail="every sampled element reached the base group under doubling",
        samples_checked=samples,
        max_exponent_seen=max_seen,
    )


def _doublings(desc: og.GroupDescriptor, h, count: int):
    """h, 2h, 4h, ..., 2**(count - 1) h in ``desc``, one addition per step."""
    return itertools.accumulate(range(count - 1), lambda d, _: desc.add(d, d), initial=h)


# ---------------------------------------------------------------------------
# Riesz-style decomposition in the closed algebra


class RdpDecomposition(Record):
    n: int
    parts: tuple[Element, ...]
    minimal: bool


def corrdp_decompose(C: ClosureDescriptor, x: Element) -> RdpDecomposition:
    """Write 2^n * x as a sum of 2^n base-interval elements, n minimal.

    ``x`` must belong to the closed algebra of ``C``; the parts are the
    greedy meets with the unit, which is valid in the commutative case.
    """
    closed_alg = C.closed_algebra
    base_desc = C.base
    if x.algebra != closed_alg:
        raise ParameterError("element does not live in the closed algebra")
    if not base_desc.abelian:
        raise UnsupportedOperationError("the decomposition needs a commutative group")
    half = None  # 2**(n - 1) * x
    for n, doubled in enumerate(_doublings(closed_alg.desc, x.payload, 129)):
        if base_desc.contains(doubled):
            break
        half = doubled
    else:
        raise ParameterError(f"{x} never reaches the base group by doubling")
    base_alg = C.base_algebra
    u = base_desc.unit()
    parts = []
    remaining = doubled
    for _ in range(2**n):
        p = base_desc.meet(remaining, u)
        parts.append(element_of(base_alg, p))
        remaining = base_desc.add(remaining, base_desc.neg(p))
    check(remaining == base_desc.zero(), "the parts use up the doubled element")
    total = base_desc.zero()
    for p in parts:
        total = base_desc.add(total, p.payload)
    check(total == doubled, "the parts sum to the doubled element")
    minimal = n == 0 or not base_desc.contains(half)
    return RdpDecomposition(n=n, parts=tuple(parts), minimal=minimal)


# ---------------------------------------------------------------------------
# square-root closure


def _is_boolean(desc: og.GroupDescriptor) -> bool:
    """Whether a flattened factor is the two-element chain ``Z/1``: I1 = {0}
    on it, and I2 = {0} on every other factor."""
    return desc == og.ScaledInt(1)


def sqrt_closure(M) -> ClosureDescriptor | OpenProblem:
    """The square-root closure by case analysis on the prime partition: the
    identity on the Boolean factors and the strict closure on the others,
    unless a non-Boolean factor with a Boolean quotient sits beside a
    Boolean one."""
    factors = _as_descriptor(M).flat()
    # a unit that does not commute with some element makes the two negations differ
    if any(f.witness() is not None for f in factors):
        raise UnsupportedOperationError(
            "the square-root closure needs coinciding negations; the twisted "
            "Z^3 interval is not symmetric"
        )
    reports = tuple(
        f"factor {i}: no element is 1 mod I1 and 0 mod I2"
        for i, f in enumerate(factors)
        if not _is_boolean(f) and f.has_boolean_quotient()
    )
    if reports and any(map(_is_boolean, factors)):
        return OpenProblem(
            explanation=(
                "both prime-intersection ideals are nonzero and no splitting "
                "element exists; whether such an algebra has a square-root "
                "closure is not settled by the implemented construction"
            ),
            factor_reports=reports,
        )
    return ClosureDescriptor("sqrt", tuple(
        FactorClosure(f, f, IDENTITY) if _is_boolean(f) else FactorClosure(f, f.strict_closure(), HALF_SHIFT)
        for f in factors
    ))


# ---------------------------------------------------------------------------
# the twisted Z^4 closure is genuinely minimal


def twist4_reassembles(desc: og.Twist4, payload) -> bool:
    """The four-part identity on payloads: x = (a,0,0,0) + (0,b,0,0) +
    (0,0,c,0) + (0,0,0,d-bc), with every part in the carrier of ``desc``."""
    a, b, c, d = payload
    parts = ((a, 0, 0, 0), (0, b, 0, 0), (0, 0, c, 0), (0, 0, 0, d - b * c))
    return all(map(desc.contains, parts)) and reduce(desc.add, parts) == payload


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
        g = og.member(closed, tuple(Fraction(int(j == i)) for j in range(4)))
        for _ in range(6):
            h = og.try_halve(closed, g)
            axes_ok = axes_ok and h is not None and closed.contains(h)
            g = h
    draws = og.scalar_draws(closed.scalars(), random.Random(seed), 4, 4)
    decomposition_ok = all(twist4_reassembles(closed, closed.from_draw(d)) for _, d in zip(range(samples), draws))
    crit = crit_check(base, closed, samples=samples, seed=seed)
    return {
        "axis_halving_chains_in_closure": axes_ok,
        "decomposition_identity_samples": samples,
        "decomposition_identity_ok": decomposition_ok,
        "criterion_ok": crit.ok,
        "minimal": axes_ok and decomposition_ok and crit.ok,
    }
