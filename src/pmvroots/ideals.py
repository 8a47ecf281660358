"""Ideal theory of finite pseudo MV-algebras.

An ideal is a downward-closed, (+)-closed subset containing 0.  In a
finite algebra every ideal is the interval [0, b] of an idempotent b
(the (+)-join of the ideal's members is idempotent and belongs to the
ideal), so enumeration walks the Boolean skeleton instead of the power
set; a configurable cap still bounds the quadratic flag computations.

Normal prime ideals are partitioned into

* ``X1`` -- those whose quotient is a Boolean algebra, and
* ``X2`` -- the rest,

with ``I1`` and ``I2`` their intersections (the full carrier when the
family is empty).  ``I2 == {0}`` characterizes Boolean subdirect
irreducibility, and a total square root mapping is strict exactly in
that case.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

from .errors import ParameterError, ResourceLimitError, UnsupportedOperationError
from .pmv import (
    Element,
    FiniteAlgebra,
    carrier,
    check_homomorphism,
    distance,
    element_of,
    finite_product,
    interval,
    is_boolean_elem,
    join,
    leq,
    lneg,
    meet,
    ominus,
    one_elem,
    oplus,
    rneg,
    value_of,
    zero_elem,
)
from .roots import SqrtMap, sqrt_map

ENV_CAP = "PMVROOTS_IDEAL_CAP"
DEFAULT_CAP = 64


def _cap() -> int:
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"{ENV_CAP} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class IdealInfo:
    top: Element
    members: frozenset[Element]
    is_proper: bool
    is_normal: bool
    is_prime: bool
    is_boolean_ideal: bool
    is_strict_square_ideal: bool | None

    def __contains__(self, x: Element) -> bool:
        return x in self.members


def _is_ideal(M: FiniteAlgebra, members: frozenset[Element]) -> bool:
    if zero_elem(M) not in members:
        return False
    for x in members:
        for y in carrier(M):
            if leq(y, x) and y not in members:
                return False
        for y in members:
            if oplus(x, y) not in members:
                return False
    return True


# default of ``smap`` below: compute the mapping (None means there is none)
_COMPUTE = object()


def enumerate_ideals(M: FiniteAlgebra, *, smap=_COMPUTE) -> list[IdealInfo]:
    """All ideals of ``M`` with their classification flags.

    ``smap`` is ``sqrt_map(M)`` when the caller has it already, ``None``
    included (no total mapping: the strict-square-ideal flags are None);
    it is computed when not given.
    """
    if not isinstance(M, FiniteAlgebra):
        raise UnsupportedOperationError("ideal enumeration needs a finite algebra")
    cap = _cap()
    if M.size > cap:
        raise ResourceLimitError(
            f"carrier has {M.size} elements, above the cap {cap} (set {ENV_CAP} to raise)"
        )
    elems = carrier(M)
    if smap is _COMPUTE:
        smap = sqrt_map(M)
    out = []
    for b in elems:
        if not is_boolean_elem(b):
            continue
        members = frozenset(x for x in elems if leq(x, b))
        assert _is_ideal(M, members)
        normal = all(
            {oplus(x, i) for i in members} == {oplus(i, x) for i in members}
            for x in elems
        )
        prime = all(
            meet(x, y) not in members or x in members or y in members
            for x, y in itertools.combinations(elems, 2)
        )
        boolean_ideal = all(meet(x, lneg(x)) in members for x in elems)
        strict = (smap.w in members) if smap is not None else None
        out.append(
            IdealInfo(
                top=b,
                members=members,
                is_proper=len(members) < M.size,
                is_normal=normal,
                is_prime=prime,
                is_boolean_ideal=boolean_ideal,
                is_strict_square_ideal=strict,
            )
        )
    return out


def normal_primes(M: FiniteAlgebra, *, ideals: list[IdealInfo] | None = None) -> list[IdealInfo]:
    """The proper normal prime ideals of a non-degenerate finite algebra.

    ``ideals`` is ``enumerate_ideals(M)`` when the caller has it already.
    """
    if M.size == 1:
        raise ParameterError("the one-element algebra has no prime spectrum")
    if ideals is None:
        ideals = enumerate_ideals(M)
    return [i for i in ideals if i.is_proper and i.is_normal and i.is_prime]


@dataclass(frozen=True)
class PrimePartition:
    x1: tuple[IdealInfo, ...]
    x2: tuple[IdealInfo, ...]
    i1: frozenset[Element]
    i2: frozenset[Element]


def partition_primes(M: FiniteAlgebra, *, ideals: list[IdealInfo] | None = None) -> PrimePartition:
    """Split normal primes by Boolean quotients; intersect each class.

    A prime P yields a Boolean quotient exactly when x ^ x- lies in P for
    every x.  An empty class intersects to the full carrier.  ``ideals``
    is ``enumerate_ideals(M)`` when the caller has it already.
    """
    primes = normal_primes(M, ideals=ideals)
    elems = carrier(M)
    x1, x2 = [], []
    for p in primes:
        (x1 if p.is_boolean_ideal else x2).append(p)
    full = frozenset(elems)
    i1 = frozenset.intersection(*(p.members for p in x1)) if x1 else full
    i2 = frozenset.intersection(*(p.members for p in x2)) if x2 else full
    return PrimePartition(tuple(x1), tuple(x2), i1, i2)


def is_bsi(M: FiniteAlgebra, *, part: PrimePartition | None = None) -> bool:
    """Boolean subdirect irreducibility: I2 == {0}.

    ``part`` is ``partition_primes(M)`` when the caller has it already.
    """
    if part is None:
        part = partition_primes(M)
    return part.i2 == frozenset({zero_elem(M)})


# ---------------------------------------------------------------------------
# quotients


def quotient(M: FiniteAlgebra, members: frozenset[Element]) -> tuple[FiniteAlgebra, dict[Element, Element]]:
    """The quotient by a normal ideal, with its projection map.

    Elements are congruent when both one-sided differences fall in the
    ideal; the resulting tables are rebuilt from representatives and
    revalidated against the axioms.
    """
    elems = carrier(M)

    def congruent(x, y):
        return ominus(x, y) in members and ominus(y, x) in members

    classes: list[list[Element]] = []
    where: dict[Element, int] = {}
    for x in elems:
        for k, cls in enumerate(classes):
            if congruent(x, cls[0]):
                cls.append(x)
                where[x] = k
                break
        else:
            where[x] = len(classes)
            classes.append([x])
    reps = [cls[0] for cls in classes]
    values = [f"[{value_of(r)}]" for r in reps]
    oplus_t = [[where[oplus(a, b)] for b in reps] for a in reps]
    lneg_t = [where[lneg(a)] for a in reps]
    rneg_t = [where[rneg(a)] for a in reps]
    Q = FiniteAlgebra(
        values, oplus_t, lneg_t, rneg_t, where[zero_elem(M)], where[one_elem(M)]
    )
    projection = {x: Element(Q, where[x]) for x in elems}
    ok, why = check_homomorphism(projection, M, Q)
    if not ok:
        raise ParameterError(f"not a congruence (is the ideal normal?): {why}")
    return Q, projection


# ---------------------------------------------------------------------------
# strict square ideals and the w-decomposition


@dataclass(frozen=True)
class StrictIdealReport:
    smap: SqrtMap
    strict_ideals: tuple[IdealInfo, ...]
    least_strict: IdealInfo
    least_boolean: IdealInfo
    i1_equals_least_boolean: bool
    i2_equals_least_strict: bool


def _ideal_by_top(ideals: list[IdealInfo], top: Element) -> IdealInfo:
    for i in ideals:
        if i.top == top:
            return i
    raise ParameterError(f"no ideal with top {top}")


def _boolean_closure_top(M: FiniteAlgebra, seed: Element) -> Element:
    t = seed
    while not is_boolean_elem(t):
        t = oplus(t, t)
    return t


def strict_square_ideals(
    M: FiniteAlgebra,
    *,
    smap: SqrtMap | None = None,
    ideals: list[IdealInfo] | None = None,
    part: PrimePartition | None = None,
) -> StrictIdealReport:
    """Classify ideals by containment of w = r(0)- (.) r(0)-.

    ``smap``, ``ideals`` and ``part`` are ``sqrt_map(M)``,
    ``enumerate_ideals(M, smap=smap)`` and ``partition_primes(M)`` when the
    caller has them already.
    """
    if smap is None:
        smap = sqrt_map(M)
    if smap is None:
        raise UnsupportedOperationError("the algebra has no total square root mapping")
    if ideals is None:
        ideals = enumerate_ideals(M, smap=smap)
    strict = tuple(i for i in ideals if i.is_strict_square_ideal)
    least_strict = _ideal_by_top(ideals, smap.w)
    assert all(least_strict.members <= i.members for i in strict)
    seed = zero_elem(M)
    for x in carrier(M):
        seed = join(seed, meet(x, lneg(x)))
    least_boolean = _ideal_by_top(ideals, _boolean_closure_top(M, seed))
    assert least_boolean.is_boolean_ideal
    assert all(
        least_boolean.members <= i.members for i in ideals if i.is_boolean_ideal
    )
    if part is None and M.size > 1:
        part = partition_primes(M, ideals=ideals)
    return StrictIdealReport(
        smap=smap,
        strict_ideals=strict,
        least_strict=least_strict,
        least_boolean=least_boolean,
        i1_equals_least_boolean=(part is not None and part.i1 == least_boolean.members),
        i2_equals_least_strict=(part is not None and part.i2 == least_strict.members),
    )


@dataclass(frozen=True)
class WDecomposition:
    smap: SqrtMap
    boolean_part: FiniteAlgebra
    strict_part: FiniteAlgebra
    mapping: dict[Element, Element] = field(compare=False)
    boolean_part_is_boolean: bool
    strict_part_map_strict: bool
    induced_root_matches: bool


def decomposition_by_w(M: FiniteAlgebra, *, smap: SqrtMap | None = None) -> WDecomposition:
    """Split M as [0, w] x [0, w-] along x -> (x ^ w, x ^ w-).

    The first factor is a Boolean algebra, the second carries a strict
    square root mapping induced by r2(x) = r(x) ^ w-; all three claims
    are verified exhaustively and the map is checked to be a bijective
    homomorphism.  ``smap`` is ``sqrt_map(M)`` when the caller has it
    already.
    """
    if smap is None:
        smap = sqrt_map(M)
    if smap is None:
        raise UnsupportedOperationError("the algebra has no total square root mapping")
    w = smap.w
    wc = lneg(w)
    B = interval(M, w)
    S = interval(M, wc)
    P = finite_product([B, S])
    mapping = {}
    for x in carrier(M):
        mapping[x] = element_of(P, (value_of(meet(x, w)), value_of(meet(x, wc))))
    ok, why = check_homomorphism(mapping, M, P, require_injective=True)
    if not ok or len(set(mapping.values())) != P.size:
        raise ParameterError(f"w-decomposition failed: {why}")
    boolean_ok = all(is_boolean_elem(b) for b in carrier(B))
    smap2 = sqrt_map(S)
    strict_ok = smap2 is not None and smap2.strict
    induced_ok = smap2 is not None and all(
        element_of(S, value_of(meet(smap.mapping[x], wc))) == smap2.mapping[element_of(S, value_of(x))]
        for x in carrier(M)
        if leq(x, wc)
    )
    return WDecomposition(
        smap=smap,
        boolean_part=B,
        strict_part=S,
        mapping=mapping,
        boolean_part_is_boolean=boolean_ok,
        strict_part_map_strict=strict_ok,
        induced_root_matches=induced_ok,
    )


# ---------------------------------------------------------------------------
# the splitting element


def nn12_element(M: FiniteAlgebra, *, part: PrimePartition | None = None) -> Element | None:
    """The unique a mapping to (1 mod I1, 0 mod I2), when it exists.

    When present, a is idempotent with I2 = [0, a] and I1 = [0, a-];
    these consequences are asserted.  ``part`` is ``partition_primes(M)``
    when the caller has it already.
    """
    if part is None:
        part = partition_primes(M)
    one = one_elem(M)
    found = [
        a for a in carrier(M) if distance(a, one) in part.i1 and a in part.i2
    ]
    if not found:
        return None
    assert len(found) == 1, "the splitting element must be unique"
    a = found[0]
    assert is_boolean_elem(a)
    assert part.i2 == frozenset(x for x in carrier(M) if leq(x, a))
    assert part.i1 == frozenset(x for x in carrier(M) if leq(x, lneg(a)))
    return a
