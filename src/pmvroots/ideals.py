"""Ideal theory of finite pseudo MV-algebras.

An ideal is a downward-closed, (+)-closed subset containing 0.  In a
finite algebra every ideal is the interval [0, b] of an idempotent b
(the (+)-join of the ideal's members is idempotent and belongs to the
ideal), so enumeration walks the Boolean skeleton instead of the power
set, and a configurable cap bounds the carrier it walks.  The algebra is
a product of chains, and an ideal [0, b] is the product of the chains on
which b is full, so its flags follow from which chains those are, and its
quotient identifies the elements whose coordinates agree on the other
chains.  The w-split of an algebra with a total square root mapping is
an isomorphism once ``interval`` has accepted w as idempotent, so it is
checked only for 0, 1 and bijectivity.  The congruence-class quotient and
the homomorphism check these replaced are oracles in the tests.

Normal prime ideals are partitioned into

* ``X1`` -- those whose quotient is a Boolean algebra, and
* ``X2`` -- the rest,

with ``I1`` and ``I2`` their intersections (the full carrier when the
family is empty).  ``I2 == {0}`` characterizes Boolean subdirect
irreducibility, and a total square root mapping is strict exactly in
that case.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .errors import ParameterError, ResourceLimitError, UnsupportedOperationError, check
from .pmv import (
    Element,
    FiniteAlgebra,
    _compose,
    boolean_skeleton,
    carrier,
    distance,
    element_of,
    finite_product,
    interval,
    is_boolean_elem,
    leq,
    lneg,
    meet,
    one_elem,
    value_of,
    zero_elem,
)
from .roots import SqrtMap, sqrt_map
from .scalars import format_value

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


# default of ``smap`` below: compute the mapping (None means there is none)
_COMPUTE = object()


def enumerate_ideals(M: FiniteAlgebra, *, smap=_COMPUTE) -> list[IdealInfo]:
    """All ideals of ``M`` with their classification flags.

    The flags are read off the chain decomposition: with S the chains on
    which the top b is full, [0, b] is normal, prime when at most one chain
    lies outside S, and Boolean when every chain outside S has length 1.
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
    dec = M.decomposition
    out = []
    for b in boolean_skeleton(M):
        members = frozenset(x for x in elems if leq(x, b))
        # the lengths of the chains on which b is not full
        outside = [n for k, n in zip(dec.coords[b.payload], dec.lengths) if k != n]
        out.append(
            IdealInfo(
                top=b,
                members=members,
                is_proper=len(members) < M.size,
                is_normal=True,
                is_prime=len(outside) <= 1,
                is_boolean_ideal=all(n == 1 for n in outside),
                is_strict_square_ideal=(smap.w in members) if smap is not None else None,
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


def ideal_top(M: FiniteAlgebra, members: frozenset[Element]) -> Element:
    """The top b of an ideal [0, b], given by its members: their join, which
    must be idempotent with every element below it a member;
    ``ParameterError`` when ``members`` is not an ideal."""
    if not members:
        raise ParameterError("not an ideal: the set is empty")
    if any(x.algebra != M for x in members):
        raise ParameterError("not an ideal: the set holds elements of another algebra")
    dec = M.decomposition
    top = tuple(map(max, zip(*(dec.coords[x.payload] for x in members))))
    b = Element(M, dec.index[top])
    if any(k not in (0, n) for k, n in zip(top, dec.lengths)):
        raise ParameterError(f"not an ideal: the join {b} of its members is not idempotent")
    if len(members) != math.prod(k + 1 for k in top):
        raise ParameterError(f"not an ideal: it misses elements below the join {b} of its members")
    return b


def quotient(M: FiniteAlgebra, members: frozenset[Element]) -> tuple[FiniteAlgebra, dict[Element, Element]]:
    """The quotient by an ideal, with its projection map.

    The ideal is [0, b] for an idempotent b, and every ideal of a finite
    algebra is normal.  Elements are congruent exactly when their
    coordinates agree on the chains where b is not full, and the quotient
    is the product of those chains, composed from ``M``'s decomposition
    without a table.  Each class is represented by its first element in
    carrier order, and the chains are put in the carrier order of their
    atoms' classes.  A set that is not an ideal raises ``ParameterError``.
    """
    dec = M.decomposition
    top = dec.coords[ideal_top(M, members).payload]
    outside = [i for i, (k, n) in enumerate(zip(top, dec.lengths)) if k != n]
    where: dict[tuple[int, ...], int] = {}
    cls, reps = [], []  # the class of every carrier index; the representatives
    for x, c in enumerate(dec.coords):
        key = tuple(c[i] for i in outside)
        if key not in where:
            where[key] = len(reps)
            reps.append(x)
        cls.append(where[key])
    outside.sort(key=lambda i: cls[dec.atoms[i]])
    Q = _compose(
        [f"[{format_value(M.values[r])}]" for r in reps],
        [cls[dec.atoms[i]] for i in outside],
        [dec.lengths[i] for i in outside],
        [tuple(dec.coords[r][i] for i in outside) for r in reps],
    )
    return Q, {x: Element(Q, cls[x.payload]) for x in carrier(M)}


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
    check(all(least_strict.members <= i.members for i in strict), "[0, w] is the least strict square ideal")
    # the improper ideal is Boolean, so the smallest Boolean ideal exists
    least_boolean = min((i for i in ideals if i.is_boolean_ideal), key=lambda i: len(i.members))
    check(
        all(least_boolean.members <= i.members for i in ideals if i.is_boolean_ideal),
        "the least Boolean ideal is below every Boolean ideal",
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
    are verified exhaustively.  For an idempotent w the map is an
    isomorphism, so it is checked only to send 0 and 1 to 0 and 1 and to
    be a bijection.  ``smap`` is ``sqrt_map(M)`` when the caller has it
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
    mapping = {
        x: element_of(P, (value_of(meet(x, w)), value_of(meet(x, wc)))) for x in carrier(M)
    }
    # interval accepted w as idempotent, so the map is an isomorphism
    check(mapping[zero_elem(M)] == zero_elem(P), "the w-split maps 0 to 0")
    check(mapping[one_elem(M)] == one_elem(P), "the w-split maps 1 to 1")
    check(len(set(mapping.values())) == P.size == M.size, "the w-split is a bijection onto the product")
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
    check(len(found) == 1, "the splitting element must be unique")
    a = found[0]
    check(is_boolean_elem(a), "the splitting element is idempotent")
    check(part.i2 == frozenset(x for x in carrier(M) if leq(x, a)), "I2 = [0, a]")
    check(part.i1 == frozenset(x for x in carrier(M) if leq(x, lneg(a))), "I1 = [0, a-]")
    return a
