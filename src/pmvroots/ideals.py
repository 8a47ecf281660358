"""Ideal theory of finite pseudo MV-algebras.

A finite algebra is a product of chains M(n_1) x ... x M(n_k).  An ideal
is a downward-closed, (+)-closed subset containing 0; each one is the
interval [0, b] of an idempotent b (the (+)-join of its members), that is,
the product of the chains on which b is full, so its members are listed
from b's coordinates and its flags follow from which chains those are.
Enumeration walks the idempotents, whose coordinates are each 0 or full,
and a configurable cap bounds the algebras it accepts.  The quotient by
[0, b] identifies the elements whose coordinates agree on the other
chains.  The w-split of an algebra with a total square root mapping is an
isomorphism once ``interval`` has accepted w as idempotent, so it is
checked only for 0, 1 and bijectivity.

Normal prime ideals are partitioned into

* ``X1`` -- those whose quotient is a Boolean algebra, and
* ``X2`` -- the rest,

with ``I1`` and ``I2`` their intersections (the full carrier when the
family is empty).  All of it is read off one fact, which chains have
length 1.  With e the idempotent that is full on those chains and 0 on the
others, the proper primes are the k ideals that each leave out one chain,
X1 holds those whose left-out chain has length 1, I2 = [0, e] and
I1 = [0, e-].  So e is the splitting element (1 mod I1, 0 mod I2), which
every algebra of at least 2 elements has, and I2 == {0}, Boolean subdirect
irreducibility, holds exactly when no chain has length 1.  A total square
root mapping exists exactly when every chain has length 1; then r(0) = 0
and w = 1, so the improper ideal is the only strict square ideal.  The
scans these replaced are oracles in the tests: members by the order, I1
and I2 by intersecting the primes, the splitting element by its
definition, and the strict-square-ideal flags by w.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

from .errors import ParameterError, ResourceLimitError, UnsupportedOperationError, check
from .pmv import (
    Element,
    FiniteAlgebra,
    _compose,
    carrier,
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


def _below(M: FiniteAlgebra, top: tuple[int, ...]) -> frozenset[Element]:
    """The members of [0, b], listed from the coordinates ``top`` of b."""
    index = M.decomposition.index
    return frozenset(Element(M, index[c]) for c in itertools.product(*(range(k + 1) for k in top)))


def _ideal(M: FiniteAlgebra, top: tuple[int, ...]) -> IdealInfo:
    """[0, b] with its flags, for the coordinates ``top`` of an idempotent b:
    normal, prime when at most one chain lies outside the chains on which b
    is full, and Boolean when every chain outside them has length 1.  A
    total square root mapping exists exactly when every chain has length 1,
    and then r(0) = 0 and w = 1, so [0, b] is a strict square ideal exactly
    when it is improper; the flag is None without such a mapping."""
    dec = M.decomposition
    outside = [n for k, n in zip(top, dec.lengths) if k != n]
    return IdealInfo(
        top=Element(M, dec.index[top]),
        members=_below(M, top),
        is_proper=bool(outside),
        is_normal=True,
        is_prime=len(outside) <= 1,
        is_boolean_ideal=all(n == 1 for n in outside),
        is_strict_square_ideal=not outside if all(n == 1 for n in dec.lengths) else None,
    )


def enumerate_ideals(M: FiniteAlgebra) -> list[IdealInfo]:
    """All ideals of ``M`` with their classification flags, in the carrier
    order of their tops; the strict-square-ideal flags are None when ``M``
    has no total square root mapping."""
    if not isinstance(M, FiniteAlgebra):
        raise UnsupportedOperationError("ideal enumeration needs a finite algebra")
    cap = _cap()
    if M.size > cap:
        raise ResourceLimitError(
            f"carrier has {M.size} elements, above the cap {cap} (set {ENV_CAP} to raise)"
        )
    dec = M.decomposition
    # the idempotents: each coordinate 0 or full
    tops = itertools.product(*((0, n) for n in dec.lengths))
    return [_ideal(M, top) for top in sorted(tops, key=dec.index.__getitem__)]


def _require_primes(M: FiniteAlgebra) -> None:
    """``ParameterError`` on the one-element algebra, which has no primes."""
    if not isinstance(M, FiniteAlgebra):
        raise UnsupportedOperationError("the prime spectrum is computed on finite algebras")
    if M.size == 1:
        raise ParameterError("the one-element algebra has no prime spectrum")


def _splitting_coords(M: FiniteAlgebra) -> tuple[int, ...]:
    """The coordinates of e: full (1) on the chains of length 1, 0 on the
    others."""
    _require_primes(M)
    return tuple(int(n == 1) for n in M.decomposition.lengths)


def normal_primes(M: FiniteAlgebra) -> list[IdealInfo]:
    """The proper normal prime ideals of a non-degenerate finite algebra:
    for each chain, the ideal that leaves out that chain alone, in the
    carrier order of their tops."""
    _require_primes(M)
    dec = M.decomposition
    n = dec.lengths
    tops = [n[:j] + (0,) + n[j + 1 :] for j in range(len(n))]
    return [_ideal(M, top) for top in sorted(tops, key=dec.index.__getitem__)]


@dataclass(frozen=True)
class PrimePartition:
    x1: tuple[IdealInfo, ...]
    x2: tuple[IdealInfo, ...]
    i1: frozenset[Element]
    i2: frozenset[Element]


def partition_primes(M: FiniteAlgebra) -> PrimePartition:
    """Split normal primes by Boolean quotients; intersect each class.

    The quotient by a prime is its left-out chain, so the prime is in X1
    exactly when that chain has length 1.  I2 = [0, e] and I1 = [0, e-].
    """
    primes = normal_primes(M)
    return PrimePartition(
        tuple(p for p in primes if p.is_boolean_ideal),
        tuple(p for p in primes if not p.is_boolean_ideal),
        *_intersections(M),
    )


def _intersections(M: FiniteAlgebra) -> tuple[frozenset[Element], frozenset[Element]]:
    """I1 = [0, e-] and I2 = [0, e]."""
    e = _splitting_coords(M)
    return _below(M, tuple(n - k for k, n in zip(e, M.decomposition.lengths))), _below(M, e)


def is_bsi(M: FiniteAlgebra) -> bool:
    """Boolean subdirect irreducibility: I2 = [0, e] == {0}, that is, no
    chain has length 1."""
    return not any(_splitting_coords(M))


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


def strict_square_ideals(M: FiniteAlgebra) -> StrictIdealReport:
    """Classify ideals by containment of w = r(0)- (.) r(0)-."""
    smap = sqrt_map(M)
    if smap is None:
        raise UnsupportedOperationError("the algebra has no total square root mapping")
    ideals = enumerate_ideals(M)
    strict = tuple(i for i in ideals if i.is_strict_square_ideal)
    least_strict = _ideal_by_top(ideals, smap.w)
    check(all(least_strict.members <= i.members for i in strict), "[0, w] is the least strict square ideal")
    # the improper ideal is Boolean, so the smallest Boolean ideal exists
    least_boolean = min((i for i in ideals if i.is_boolean_ideal), key=lambda i: len(i.members))
    check(
        all(least_boolean.members <= i.members for i in ideals if i.is_boolean_ideal),
        "the least Boolean ideal is below every Boolean ideal",
    )
    # the one-element algebra has no primes, so no I1 and I2
    i1, i2 = _intersections(M) if M.size > 1 else (None, None)
    return StrictIdealReport(
        smap=smap,
        strict_ideals=strict,
        least_strict=least_strict,
        least_boolean=least_boolean,
        i1_equals_least_boolean=i1 == least_boolean.members,
        i2_equals_least_strict=i2 == least_strict.members,
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


def decomposition_by_w(M: FiniteAlgebra) -> WDecomposition:
    """Split M as [0, w] x [0, w-] along x -> (x ^ w, x ^ w-).

    The first factor is a Boolean algebra, the second carries a strict
    square root mapping induced by r2(x) = r(x) ^ w-; all three claims
    are verified exhaustively.  For an idempotent w the map is an
    isomorphism, so it is checked only to send 0 and 1 to 0 and 1 and to
    be a bijection.
    """
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


def nn12_element(M: FiniteAlgebra) -> Element:
    """The splitting element a, the unique element that maps to
    (1 mod I1, 0 mod I2): e, full on the chains of length 1 and 0 on the
    others.  Every algebra of at least 2 elements has one; it is idempotent
    with I2 = [0, a] and I1 = [0, a-]."""
    return Element(M, M.decomposition.index[_splitting_coords(M)])
