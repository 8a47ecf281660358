"""Ideal theory of finite pseudo MV-algebras.

A finite algebra is a product of chains M(n_1) x ... x M(n_k).  An ideal
is a downward-closed, (+)-closed subset containing 0; each one is the
interval [0, b] of an idempotent b (the (+)-join of its members), that is,
the product of the chains on which b is full, so its members are listed
from b's coordinates and its flags follow from which chains those are.
Enumeration walks the idempotents, whose coordinates are each 0 or full:
an algebra of at most ``pmv.MAX_CARRIER`` elements has at most 2^10
ideals.  The quotient by [0, b] identifies the elements whose coordinates
agree on the other chains.

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
root mapping exists exactly when every chain has length 1; then r is the
identity, r(0) = 0 and w = 1, so the improper ideal M = I2 is the only,
hence the least, strict square ideal, every ideal is Boolean, the least
being {0} = I1, and the w-split [0, w] x [0, w-] is M x {0}.  The
scans these replaced are oracles in the tests: members by the order, I1
and I2 by intersecting the primes, the splitting element by its
definition, the strict-square-ideal flags by w, the least strict and
Boolean ideals by scanning the ideals, and the w-split by building it
from the mapping.
"""

from __future__ import annotations

import itertools
import math

from .errors import ParameterError, UnsupportedOperationError
from .pmv import Element, FiniteAlgebra, carrier, compose, one_elem, zero_elem
from .records import Record
from .scalars import format_value


class IdealInfo(Record):
    top: Element
    members: frozenset[Element]
    is_proper: bool
    is_normal: bool
    is_prime: bool
    is_boolean_ideal: bool
    is_strict_square_ideal: bool | None


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


class PrimePartition(Record):
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
    Q = compose(
        [f"[{format_value(M.values[r])}]" for r in reps],
        [cls[dec.atoms[i]] for i in outside],
        [dec.lengths[i] for i in outside],
        [tuple(dec.coords[r][i] for i in outside) for r in reps],
    )
    return Q, {x: Element(Q, cls[x.payload]) for x in carrier(M)}


# ---------------------------------------------------------------------------
# strict square ideals and the w-split


class WSplit(Record):
    boolean_part_size: int
    strict_part_size: int
    boolean_part_is_boolean: bool
    strict_part_map_strict: bool
    induced_root_matches: bool


class RootMapIdeals(Record):
    strict_map: bool
    least_strict_top: Element
    least_boolean_top: Element
    i1_equals_least_boolean: bool
    i2_equals_least_strict: bool
    w_split: WSplit


def root_map_ideals(M: FiniteAlgebra) -> RootMapIdeals:
    """The ideals that the total square root mapping r singles out, and the
    split of M as [0, w] x [0, w-] with w = r(0)- (.) r(0)-, whose first
    part is Boolean and whose second carries a strict mapping.

    A total r exists exactly when every chain has length 1, and then r is
    the identity, so r(0) = 0, w = 1 and r is not strict.  The strict square
    ideals are those that contain w, so the least is [0, w] = M.  Every
    ideal is Boolean, so the least Boolean ideal is {0}.  With e = 1,
    I1 = [0, e-] = {0} and I2 = [0, e] = M, so I1 is the least Boolean and
    I2 the least strict square ideal.  The w-split is M = M x {0}: parts of
    sizes |M| and 1, the first Boolean, the second with its strict identity
    mapping, which r induces.  ``UnsupportedOperationError`` when some chain
    is longer than 1, ``ParameterError`` on the one-element algebra.
    """
    _require_primes(M)
    if any(n != 1 for n in M.decomposition.lengths):
        raise UnsupportedOperationError("the algebra has no total square root mapping")
    return RootMapIdeals(
        strict_map=False,
        least_strict_top=one_elem(M),
        least_boolean_top=zero_elem(M),
        i1_equals_least_boolean=True,
        i2_equals_least_strict=True,
        w_split=WSplit(M.size, 1, True, True, True),
    )


# ---------------------------------------------------------------------------
# the splitting element


def nn12_element(M: FiniteAlgebra) -> Element:
    """The splitting element a, the unique element that maps to
    (1 mod I1, 0 mod I2): e, full on the chains of length 1 and 0 on the
    others.  Every algebra of at least 2 elements has one; it is idempotent
    with I2 = [0, a] and I1 = [0, a-]."""
    return Element(M, M.decomposition.index[_splitting_coords(M)])
