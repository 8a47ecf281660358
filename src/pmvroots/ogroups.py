"""Unital lattice-ordered groups, given by structural descriptors.

A group is described by a small algebraic term (a *descriptor*); elements
carry their descriptor plus a payload of exact scalars.  All operations
are recursive over the descriptor shape:

* ``ScaledInt(n)``     -- (1/n) * Z inside Q, unit 1
* ``ScaledDyadic(q)``  -- (1/q) * D (D the dyadic rationals), q odd, unit 1
* ``Rationals()``      -- Q, unit 1
* ``QuadLattice(alpha, dyadic)`` -- Z + Z*alpha (or D + D*alpha) inside R,
  for a quadratic irrational ``0 < alpha < 1``, unit 1
* ``Lex(head, tail)``  -- lexicographic product; head must be linearly
  ordered; unit ``(u_head, 0)``
* ``Twist3(tag)``      -- triples over the tagged scalar ring with
  ``(a,b,c)+(x,y,z) = (a+x, b+y, c+z+a*y)``, ordered lexicographically,
  unit ``(1,0,0)`` (which is *not* central)
* ``Twist4(tag)``      -- quadruples with
  ``(a,b,c,d)+(x,y,z,w) = (a+x, b+y, c+z, d+w+b*z)``, ordered
  lexicographically, unit ``(1,0,0,0)`` (central)
* ``ProductGroup(factors)`` -- direct product with componentwise order.

Scalar tags for the twisted families are ``"Z"`` (integers), ``"D"``
(dyadic rationals) and ``"Q"`` (rationals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import CarrierError, MismatchError, ParameterError
from .scalars import QuadValue, format_value, is_dyadic, rational

SCALAR_TAGS = ("Z", "D", "Q")


class GroupDescriptor:
    """Base class for group descriptors; instances are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class ScaledInt(GroupDescriptor):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("ScaledInt needs n >= 1")


@dataclass(frozen=True)
class ScaledDyadic(GroupDescriptor):
    q: int

    def __post_init__(self):
        if self.q < 1 or self.q % 2 == 0:
            raise ParameterError("ScaledDyadic needs odd q >= 1")


@dataclass(frozen=True)
class Rationals(GroupDescriptor):
    pass


@dataclass(frozen=True)
class QuadLattice(GroupDescriptor):
    alpha: QuadValue
    dyadic: bool = False

    def __post_init__(self):
        if self.alpha.is_rational():
            raise ParameterError("QuadLattice needs an irrational alpha")
        if not (0 < self.alpha.sign() and (self.alpha - QuadValue.make(1)).sign() < 0):
            raise ParameterError("QuadLattice needs 0 < alpha < 1")


@dataclass(frozen=True)
class Lex(GroupDescriptor):
    head: GroupDescriptor
    tail: GroupDescriptor

    def __post_init__(self):
        if not is_linear(self.head):
            raise ParameterError("lexicographic head must be linearly ordered")


@dataclass(frozen=True)
class Twist3(GroupDescriptor):
    tag: str = "Z"

    def __post_init__(self):
        if self.tag not in SCALAR_TAGS:
            raise ParameterError(f"scalar tag must be one of {SCALAR_TAGS}")


@dataclass(frozen=True)
class Twist4(GroupDescriptor):
    tag: str = "Z"

    def __post_init__(self):
        if self.tag not in SCALAR_TAGS:
            raise ParameterError(f"scalar tag must be one of {SCALAR_TAGS}")


@dataclass(frozen=True)
class ProductGroup(GroupDescriptor):
    factors: tuple[GroupDescriptor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ParameterError("product needs at least one factor")


Payload = Union[Fraction, tuple]


@dataclass(frozen=True)
class GroupElement:
    desc: GroupDescriptor
    payload: Payload

    def __str__(self) -> str:
        return format_payload(self.desc, self.payload)


# ---------------------------------------------------------------------------
# structural predicates


def is_linear(desc: GroupDescriptor) -> bool:
    """True when the descriptor's order is total."""
    if isinstance(desc, (ScaledInt, ScaledDyadic, Rationals, QuadLattice, Twist3, Twist4)):
        return True
    if isinstance(desc, Lex):
        return is_linear(desc.tail)
    if isinstance(desc, ProductGroup):
        return len(desc.factors) == 1 and is_linear(desc.factors[0])
    raise ParameterError(f"unknown descriptor {desc!r}")


def is_abelian(desc: GroupDescriptor) -> bool:
    if isinstance(desc, (ScaledInt, ScaledDyadic, Rationals, QuadLattice)):
        return True
    if isinstance(desc, (Twist3, Twist4)):
        return False
    if isinstance(desc, Lex):
        return is_abelian(desc.head) and is_abelian(desc.tail)
    if isinstance(desc, ProductGroup):
        return all(is_abelian(f) for f in desc.factors)
    raise ParameterError(f"unknown descriptor {desc!r}")


def is_two_divisible(desc: GroupDescriptor) -> bool:
    """True when every element has a (necessarily unique) half."""
    if isinstance(desc, ScaledInt):
        return False
    if isinstance(desc, (ScaledDyadic, Rationals)):
        return True
    if isinstance(desc, QuadLattice):
        return desc.dyadic
    if isinstance(desc, Lex):
        return is_two_divisible(desc.head) and is_two_divisible(desc.tail)
    if isinstance(desc, (Twist3, Twist4)):
        return desc.tag in ("D", "Q")
    if isinstance(desc, ProductGroup):
        return all(is_two_divisible(f) for f in desc.factors)
    raise ParameterError(f"unknown descriptor {desc!r}")


def _tag_member(tag: str, x: Fraction) -> bool:
    if tag == "Z":
        return x.denominator == 1
    if tag == "D":
        return is_dyadic(x)
    return True


def contains(desc: GroupDescriptor, payload) -> bool:
    """Carrier membership test; also checks the payload shape."""
    if isinstance(desc, ScaledInt):
        return isinstance(payload, Fraction) and (payload * desc.n).denominator == 1
    if isinstance(desc, ScaledDyadic):
        if not isinstance(payload, Fraction):
            return False
        den = payload.denominator
        return desc.q % (den >> ((den & -den).bit_length() - 1)) == 0
    if isinstance(desc, Rationals):
        return isinstance(payload, Fraction)
    if isinstance(desc, QuadLattice):
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return False
        if not all(isinstance(c, Fraction) for c in payload):
            return False
        if desc.dyadic:
            return all(is_dyadic(c) for c in payload)
        return all(c.denominator == 1 for c in payload)
    if isinstance(desc, Lex):
        return (
            isinstance(payload, tuple)
            and len(payload) == 2
            and contains(desc.head, payload[0])
            and contains(desc.tail, payload[1])
        )
    if isinstance(desc, (Twist3, Twist4)):
        arity = 3 if isinstance(desc, Twist3) else 4
        return (
            isinstance(payload, tuple)
            and len(payload) == arity
            and all(isinstance(c, Fraction) and _tag_member(desc.tag, c) for c in payload)
        )
    if isinstance(desc, ProductGroup):
        return (
            isinstance(payload, tuple)
            and len(payload) == len(desc.factors)
            and all(contains(f, p) for f, p in zip(desc.factors, payload))
        )
    raise ParameterError(f"unknown descriptor {desc!r}")


def _normalize(desc: GroupDescriptor, raw) -> Payload:
    if isinstance(desc, (ScaledInt, ScaledDyadic, Rationals)):
        return rational(raw)
    if isinstance(desc, QuadLattice):
        a, b = raw
        return (rational(a), rational(b))
    if isinstance(desc, Lex):
        h, t = raw
        return (_normalize(desc.head, h), _normalize(desc.tail, t))
    if isinstance(desc, (Twist3, Twist4)):
        return tuple(rational(c) for c in raw)
    if isinstance(desc, ProductGroup):
        return tuple(_normalize(f, p) for f, p in zip(desc.factors, raw, strict=True))
    raise ParameterError(f"unknown descriptor {desc!r}")


def element(desc: GroupDescriptor, raw) -> GroupElement:
    """Build a validated element of the group described by ``desc``."""
    try:
        payload = _normalize(desc, raw)
    except (TypeError, ValueError) as exc:
        raise CarrierError(f"payload {format_value(raw)} has the wrong shape: {exc}") from None
    if not contains(desc, payload):
        raise CarrierError(f"{format_payload(desc, payload)} is not in the carrier")
    return GroupElement(desc, payload)


# ---------------------------------------------------------------------------
# group structure


def _zero_payload(desc: GroupDescriptor) -> Payload:
    if isinstance(desc, (ScaledInt, ScaledDyadic, Rationals)):
        return Fraction(0)
    if isinstance(desc, QuadLattice):
        return (Fraction(0), Fraction(0))
    if isinstance(desc, Lex):
        return (_zero_payload(desc.head), _zero_payload(desc.tail))
    if isinstance(desc, Twist3):
        return (Fraction(0),) * 3
    if isinstance(desc, Twist4):
        return (Fraction(0),) * 4
    if isinstance(desc, ProductGroup):
        return tuple(_zero_payload(f) for f in desc.factors)
    raise ParameterError(f"unknown descriptor {desc!r}")


def _unit_payload(desc: GroupDescriptor) -> Payload:
    if isinstance(desc, (ScaledInt, ScaledDyadic, Rationals)):
        return Fraction(1)
    if isinstance(desc, QuadLattice):
        return (Fraction(1), Fraction(0))
    if isinstance(desc, Lex):
        return (_unit_payload(desc.head), _zero_payload(desc.tail))
    if isinstance(desc, Twist3):
        return (Fraction(1), Fraction(0), Fraction(0))
    if isinstance(desc, Twist4):
        return (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    if isinstance(desc, ProductGroup):
        return tuple(_unit_payload(f) for f in desc.factors)
    raise ParameterError(f"unknown descriptor {desc!r}")


def zero(desc: GroupDescriptor) -> GroupElement:
    return GroupElement(desc, _zero_payload(desc))


def unit(desc: GroupDescriptor) -> GroupElement:
    """The distinguished strong unit of the family."""
    return GroupElement(desc, _unit_payload(desc))


def _add(desc: GroupDescriptor, p, q) -> Payload:
    if isinstance(desc, (ScaledInt, ScaledDyadic, Rationals)):
        return p + q
    if isinstance(desc, QuadLattice):
        return (p[0] + q[0], p[1] + q[1])
    if isinstance(desc, Lex):
        return (_add(desc.head, p[0], q[0]), _add(desc.tail, p[1], q[1]))
    if isinstance(desc, Twist3):
        return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])
    if isinstance(desc, Twist4):
        return (p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3] + p[1] * q[2])
    if isinstance(desc, ProductGroup):
        return tuple(_add(f, a, b) for f, a, b in zip(desc.factors, p, q))
    raise ParameterError(f"unknown descriptor {desc!r}")


def _neg(desc: GroupDescriptor, p) -> Payload:
    if isinstance(desc, (ScaledInt, ScaledDyadic, Rationals)):
        return -p
    if isinstance(desc, QuadLattice):
        return (-p[0], -p[1])
    if isinstance(desc, Lex):
        return (_neg(desc.head, p[0]), _neg(desc.tail, p[1]))
    if isinstance(desc, Twist3):
        return (-p[0], -p[1], -p[2] + p[0] * p[1])
    if isinstance(desc, Twist4):
        return (-p[0], -p[1], -p[2], -p[3] + p[1] * p[2])
    if isinstance(desc, ProductGroup):
        return tuple(_neg(f, a) for f, a in zip(desc.factors, p))
    raise ParameterError(f"unknown descriptor {desc!r}")


def _require_same(x: GroupElement, y: GroupElement):
    if x.desc != y.desc:
        raise MismatchError(f"elements of different groups: {x.desc!r} vs {y.desc!r}")


def g_add(x: GroupElement, y: GroupElement) -> GroupElement:
    _require_same(x, y)
    return GroupElement(x.desc, _add(x.desc, x.payload, y.payload))


def g_neg(x: GroupElement) -> GroupElement:
    return GroupElement(x.desc, _neg(x.desc, x.payload))


def g_sub(x: GroupElement, y: GroupElement) -> GroupElement:
    return g_add(x, g_neg(y))


def mul_int(k: int, x: GroupElement) -> GroupElement:
    """k-fold sum of x with itself (valid in any group: x commutes with x)."""
    if k < 0:
        return g_neg(mul_int(-k, x))
    acc = zero(x.desc)
    base = x
    while k:
        if k & 1:
            acc = g_add(acc, base)
        base = g_add(base, base)
        k >>= 1
    return acc


# ---------------------------------------------------------------------------
# order structure


def _quad_value(desc: QuadLattice, p) -> QuadValue:
    return QuadValue.make(p[0] + p[1] * desc.alpha.a, p[1] * desc.alpha.b, desc.alpha.d if p[1] else 0)


def _cmp(desc: GroupDescriptor, p, q) -> int | None:
    if isinstance(desc, (ScaledInt, ScaledDyadic, Rationals)):
        return (p > q) - (p < q)
    if isinstance(desc, QuadLattice):
        return _quad_value(desc, (p[0] - q[0], p[1] - q[1])).sign()
    if isinstance(desc, Lex):
        c = _cmp(desc.head, p[0], q[0])
        if c != 0:
            return c
        return _cmp(desc.tail, p[1], q[1])
    if isinstance(desc, (Twist3, Twist4)):
        for a, b in zip(p, q):
            if a != b:
                return 1 if a > b else -1
        return 0
    if isinstance(desc, ProductGroup):
        seen_lt = seen_gt = False
        for f, a, b in zip(desc.factors, p, q):
            c = _cmp(f, a, b)
            if c is None:
                return None
            seen_lt |= c < 0
            seen_gt |= c > 0
        if seen_lt and seen_gt:
            return None
        return 1 if seen_gt else (-1 if seen_lt else 0)
    raise ParameterError(f"unknown descriptor {desc!r}")


def g_cmp(x: GroupElement, y: GroupElement) -> int | None:
    """-1, 0 or 1; None when the elements are incomparable."""
    _require_same(x, y)
    return _cmp(x.desc, x.payload, y.payload)


def g_leq(x: GroupElement, y: GroupElement) -> bool:
    c = g_cmp(x, y)
    return c is not None and c <= 0


def _join(desc: GroupDescriptor, p, q) -> Payload:
    if isinstance(desc, Lex):
        c = _cmp(desc.head, p[0], q[0])
        if c > 0:
            return p
        if c < 0:
            return q
        return (p[0], _join(desc.tail, p[1], q[1]))
    if isinstance(desc, ProductGroup):
        return tuple(_join(f, a, b) for f, a, b in zip(desc.factors, p, q))
    return p if _cmp(desc, p, q) >= 0 else q


def _meet(desc: GroupDescriptor, p, q) -> Payload:
    if isinstance(desc, Lex):
        c = _cmp(desc.head, p[0], q[0])
        if c > 0:
            return q
        if c < 0:
            return p
        return (p[0], _meet(desc.tail, p[1], q[1]))
    if isinstance(desc, ProductGroup):
        return tuple(_meet(f, a, b) for f, a, b in zip(desc.factors, p, q))
    return p if _cmp(desc, p, q) <= 0 else q


def g_join(x: GroupElement, y: GroupElement) -> GroupElement:
    _require_same(x, y)
    return GroupElement(x.desc, _join(x.desc, x.payload, y.payload))


def g_meet(x: GroupElement, y: GroupElement) -> GroupElement:
    _require_same(x, y)
    return GroupElement(x.desc, _meet(x.desc, x.payload, y.payload))


def g_abs(x: GroupElement) -> GroupElement:
    return g_join(x, g_neg(x))


# ---------------------------------------------------------------------------
# halving, centrality, strong unit bounds


def _halve_payload(desc: GroupDescriptor, p):
    """Candidate payload h with h + h == p, ignoring carrier membership."""
    if isinstance(desc, (ScaledInt, ScaledDyadic, Rationals)):
        return p / 2
    if isinstance(desc, QuadLattice):
        return (p[0] / 2, p[1] / 2)
    if isinstance(desc, Lex):
        return (_halve_payload(desc.head, p[0]), _halve_payload(desc.tail, p[1]))
    if isinstance(desc, Twist3):
        # h + h = (2h1, 2h2, 2h3 + h1*h2)
        return (p[0] / 2, p[1] / 2, (p[2] - p[0] * p[1] / 4) / 2)
    if isinstance(desc, Twist4):
        # h + h = (2h1, 2h2, 2h3, 2h4 + h2*h3)
        return (p[0] / 2, p[1] / 2, p[2] / 2, (p[3] - p[1] * p[2] / 4) / 2)
    if isinstance(desc, ProductGroup):
        return tuple(_halve_payload(f, a) for f, a in zip(desc.factors, p))
    raise ParameterError(f"unknown descriptor {desc!r}")


def try_halve(x: GroupElement) -> GroupElement | None:
    """The unique h with h + h == x, or None when no such h is in the carrier."""
    h = _halve_payload(x.desc, x.payload)
    if not contains(x.desc, h):
        return None
    half = GroupElement(x.desc, h)
    assert g_add(half, half) == x
    return half


def is_unit_central(desc: GroupDescriptor) -> tuple[bool, GroupElement | None]:
    """Whether the strong unit commutes with every element; witness otherwise."""
    witness_payload = _noncentral_witness(desc)
    if witness_payload is None:
        return True, None
    w = GroupElement(desc, witness_payload)
    u = unit(desc)
    assert g_add(u, w) != g_add(w, u)
    return False, w


def _noncentral_witness(desc: GroupDescriptor):
    if isinstance(desc, (ScaledInt, ScaledDyadic, Rationals, QuadLattice, Twist4)):
        return None
    if isinstance(desc, Twist3):
        # u + (0,1,0) = (1,1,1) but (0,1,0) + u = (1,1,0)
        return (Fraction(0), Fraction(1), Fraction(0))
    if isinstance(desc, Lex):
        w = _noncentral_witness(desc.head)
        if w is None:
            return None
        return (w, _zero_payload(desc.tail))
    if isinstance(desc, ProductGroup):
        for i, f in enumerate(desc.factors):
            w = _noncentral_witness(f)
            if w is not None:
                return tuple(
                    w if j == i else _zero_payload(g) for j, g in enumerate(desc.factors)
                )
        return None
    raise ParameterError(f"unknown descriptor {desc!r}")


def _ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def strong_unit_bound(x: GroupElement) -> int:
    """Some n >= 1 with |x| <= n * u; the defining property is asserted."""
    n = max(1, _unit_bound(x.desc, g_abs(x).payload))
    assert g_leq(g_abs(x), mul_int(n, unit(x.desc)))
    return n


def _unit_bound(desc: GroupDescriptor, p) -> int:
    # p is the payload of |x|, so p >= 0 in the group order.
    if isinstance(desc, (ScaledInt, ScaledDyadic, Rationals)):
        return _ceil_fraction(p)
    if isinstance(desc, QuadLattice):
        v = _quad_value(desc, p)
        f = v.floor()
        return f if (v - QuadValue.make(f)).sign() == 0 else f + 1
    if isinstance(desc, Lex):
        # (n+1)*u = ((n+1)*u_head, 0) exceeds |x| strictly in the head.
        return _unit_bound(desc.head, g_abs(GroupElement(desc.head, p[0])).payload) + 1
    if isinstance(desc, (Twist3, Twist4)):
        return math.floor(abs(p[0])) + 1
    if isinstance(desc, ProductGroup):
        return max(_unit_bound(f, a) for f, a in zip(desc.factors, p))
    raise ParameterError(f"unknown descriptor {desc!r}")


# ---------------------------------------------------------------------------
# sampling and display


def random_element(desc: GroupDescriptor, rng, *, coord_bound: int = 8, exp_bound: int = 6) -> GroupElement:
    """A pseudo-random carrier element, used by randomized certificates."""
    return GroupElement(desc, _random_payload(desc, rng, coord_bound, exp_bound))


def _random_scalar(tag: str, rng, bound: int, exp: int) -> Fraction:
    if tag == "Z":
        return Fraction(rng.randint(-bound, bound))
    if tag == "D":
        k = rng.randint(0, exp)
        return Fraction(rng.randint(-bound * 2**k, bound * 2**k), 2**k)
    den = rng.randint(1, 12)
    return Fraction(rng.randint(-bound * den, bound * den), den)


def _random_payload(desc: GroupDescriptor, rng, bound: int, exp: int):
    if isinstance(desc, ScaledInt):
        return Fraction(rng.randint(-bound * desc.n, bound * desc.n), desc.n)
    if isinstance(desc, ScaledDyadic):
        k = rng.randint(0, exp)
        den = desc.q * 2**k
        return Fraction(rng.randint(-bound * den, bound * den), den)
    if isinstance(desc, Rationals):
        return _random_scalar("Q", rng, bound, exp)
    if isinstance(desc, QuadLattice):
        tag = "D" if desc.dyadic else "Z"
        return (_random_scalar(tag, rng, bound, exp), _random_scalar(tag, rng, bound, exp))
    if isinstance(desc, Lex):
        return (
            _random_payload(desc.head, rng, bound, exp),
            _random_payload(desc.tail, rng, bound, exp),
        )
    if isinstance(desc, (Twist3, Twist4)):
        arity = 3 if isinstance(desc, Twist3) else 4
        return tuple(_random_scalar(desc.tag, rng, bound, exp) for _ in range(arity))
    if isinstance(desc, ProductGroup):
        return tuple(_random_payload(f, rng, bound, exp) for f in desc.factors)
    raise ParameterError(f"unknown descriptor {desc!r}")


def format_payload(desc: GroupDescriptor, p) -> str:
    from .scalars import format_rational

    if isinstance(desc, (ScaledInt, ScaledDyadic, Rationals)):
        return format_rational(p)
    if isinstance(desc, QuadLattice):
        m, n = p
        if n == 0:
            return format_rational(m)
        radical = f"{format_rational(abs(n))}*alpha"
        if m == 0:
            return radical if n > 0 else f"-{radical}"
        return f"{format_rational(m)}{'+' if n > 0 else '-'}{radical}"
    if isinstance(desc, Lex):
        return f"({format_payload(desc.head, p[0])},{format_payload(desc.tail, p[1])})"
    if isinstance(desc, (Twist3, Twist4)):
        return "(" + ",".join(format_rational(c) for c in p) + ")"
    if isinstance(desc, ProductGroup):
        return "(" + ",".join(format_payload(f, a) for f, a in zip(desc.factors, p)) + ")"
    raise ParameterError(f"unknown descriptor {desc!r}")
