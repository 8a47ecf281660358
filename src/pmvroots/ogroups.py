"""Unital lattice-ordered groups, given by structural descriptors.

A group is described by a small algebraic term (a *descriptor*); an element
is a bare payload of exact scalars, read through its descriptor.  All
operations are recursive over the descriptor shape:

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
(dyadic rationals) and ``"Q"`` (rationals).  Payload coordinates are
``Fraction``s, except that the ``"Z"``-tagged twisted groups store plain
``int`` coordinates; membership is a question of value, so an integral
``Fraction`` is a member too, and ``Fraction(n) == n`` with equal hashes.
Halving stays exact: an odd ``int`` halves to a ``Fraction``, never to a
``float``.  Twisted payloads are compared as Python tuples, which order
lexicographically by value, so their ``join`` and ``meet`` are ``max``
and ``min``; their membership reads the set of the coordinates' types and
the lcm of their denominators.

Each family is one class whose public methods are its payload laws:
``add``, ``neg``, ``mul``, ``cmp`` (-1, 0, 1, or None for incomparable
payloads), ``join``, ``meet``, ``halve``, ``contains``, ``normalize``,
``zero``, ``unit``, ``witness`` (a payload that does not commute with the
unit, or None), ``bound`` and ``random``; three flags, ``linear``,
``abelian`` and ``two_divisible``, describe the family.  The laws take and
return payloads and check nothing; a payload is written as the DSL reads
it, by ``scalars.format_value``.  ``mul(k, p)`` is the k-fold sum of p for
k >= 0 in closed form; for the twisted families it carries the binomial
C(k, 2) = k * (k - 1) // 2, an exact integer.

Seeded draws are flat.  ``scalars()`` lists the scalars of a payload in
order as ``(tag, scale)``, a scalar of (1/scale) * tag each, and
``Lex`` and ``ProductGroup`` join their parts' lists.  ``scalar_draws``
is the one draw loop: it tables the integer ranges of such a list once per
call and then yields draw after draw, each made as ``rng.randint`` makes
it, as a flat list with a pair (m, d) for each scalar m/d.
``draw_scalars`` is its first draw, and ``draw(rng, bound, exp)`` the draw
of ``scalars()``.  ``from_draw(draw, at)`` builds the payload whose scalars
start at offset ``at`` of a flat draw, and ``random(rng, bound, exp)`` is
``from_draw(draw(rng, bound, exp))``, so the successive draws of one
``scalar_draws`` are the payloads of successive ``random`` calls.

The closure facts of a family are methods too, which ``closures`` and the
CLI call without testing the family; ``Lex`` and ``ProductGroup`` compose
their parts' answers, as they do for ``add`` and ``cmp``:

* ``flat()``, the factors of nested products, in order;
* ``strict_closure()``, the least two-divisible extension ((1/n) Z to
  (1/odd(n)) D, dyadic coefficients for a quadratic lattice, the tag ``D``
  or ``Q`` for a twisted Z^4, componentwise for ``Lex``), or
  ``UnsupportedOperationError``;
* ``has_boolean_quotient()``, whether some prime leaves the two-element
  algebra;
* ``doubling_plan(base)`` on a closed group: the checks that certify that
  some 2**n-fold sum of each element lies in ``base``, by the offsets of
  the scalars they read in a flat draw, or None when no rule covers the
  pair; ``certify`` runs a plan on a flat draw, giving (n, whether 2**n
  times the drawn payload lies in ``base``);
* ``missing_from(closed)``, a payload of the base that ``closed`` lacks
  (None when the probe finds none), and ``unreachable_from(base)``, the
  payload of the closed group whose doublings ``crit_check`` tries when no
  certificate covers the pair: the probes that a failed check reports;
* ``rootless()``, a payload of [0, u] that (x + u)/2 takes out of the
  group, or None.

So is each family's root rule, which ``roots`` calls and checks without
testing the family: ``root(p)`` for p in [0, u] is ``(a, None, note)`` with
a the payload of the square root of p, or ``(None, reason, note)`` with the
reason code ``NO_CANDIDATE`` or ``NO_MAX``, or it raises
``UnsupportedOperationError``.  The base class answers 0 in every group,
with u/2 or ``NO_MAX`` when u does not halve, and halves p + u in a chain
with central unit; ``ScaledInt`` answers
floor(n/2)/n at 0; ``Twist3`` decides every point for the tag ``Z`` and 0
and u for the others; ``ProductGroup`` composes its factors' answers.

The module functions take payloads too and check what the laws do not:
``member`` validates a raw value, ``try_halve`` halves inside the carrier,
``is_unit_central`` returns the witness and ``strong_unit_bound`` an n with
|p| <= n * u.  Each checks its own result with ``errors.check``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import attrgetter
from typing import Union

from .errors import CarrierError, ParameterError, UnsupportedOperationError, check
from .records import Record
from .scalars import QuadValue, format_value, odd_part, rational

SCALAR_TAGS = ("Z", "D", "Q")

# the reasons a root answer gives for no root: no a has a (.) a == x, or
# the nilpotents {y : y (.) y = 0} have no top
NO_CANDIDATE = "no_a_with_a_odot_a_eq_x"
NO_MAX = "no_max_of_nilpotents"

Payload = Union[Fraction, tuple]


_DENOMINATOR = attrgetter("denominator")
_INTS = frozenset((int,))
_EXACT_KINDS = frozenset((int, Fraction))


def _in_ring(tag: str, coords) -> bool:
    """Whether exact scalars all lie in the tag's ring: the lcm of their
    denominators is 1 for ``"Z"`` and a power of two for ``"D"``."""
    den = math.lcm(*map(_DENOMINATOR, coords))
    return tag == "Q" or (den == 1 if tag == "Z" else den & (den - 1) == 0)


def _int_if_integral(c):
    """An integral value as an ``int``; any other rational stays a ``Fraction``,
    which the carrier of the integers then rejects."""
    if type(c) is int:
        return c
    q = rational(c)
    return q.numerator if q.denominator == 1 else q


def _half(c):
    """c / 2, exactly: an ``int`` when c is an even ``int``, else a ``Fraction``."""
    if type(c) is int and not c & 1:
        return c >> 1
    return Fraction(c, 2)


def scalar_draws(scalars, rng, bound: int, exp: int):
    """Successive draws of ``scalars``, a list of (tag, scale): each is a list
    with a pair (m, d) for each scalar, in order, where m/d lies in
    (1/scale) * tag with |m/d| <= bound, d is scale for ``"Z"``, scale * 2**k
    with 0 <= k <= exp for ``"D"`` and 1 <= d <= 12 for ``"Q"``.  Each
    integer is drawn from its range [a, b] as ``rng.randint(a, b)`` draws
    it: ``getrandbits`` of the bit length of the width b - a + 1, again
    while the draw is the width or more.

    The ranges are fixed for the call, so they are tabled once: per scalar,
    the number of denominators to pick from (none for ``"Z"``, exp + 1 for
    ``"D"``, 12 for ``"Q"``) with its bit length, and a row (d, bound * d,
    width, bit length of the width) for each denominator."""
    rows = {}
    for tag, scale in scalars:
        if (tag, scale) not in rows:
            ds = [scale] if tag == "Z" else [scale << k for k in range(exp + 1)] if tag == "D" else range(1, 13)
            pick = 0 if tag == "Z" else len(ds)
            rows[tag, scale] = pick, pick.bit_length(), [
                (d, bound * d, 2 * bound * d + 1, (2 * bound * d + 1).bit_length()) for d in ds]
    table = [rows[s] for s in scalars]
    bits = rng.getrandbits
    while True:
        out = []
        for pick, pick_bits, ranges in table:
            i = 0
            if pick:
                i = pick
                while i >= pick:
                    i = bits(pick_bits)
            d, half, width, k = ranges[i]
            r = width
            while r >= width:
                r = bits(k)
            out.append((r - half, d))
        yield out


def draw_scalars(scalars, rng, bound: int, exp: int) -> list[tuple[int, int]]:
    """One draw of ``scalars``: the first of ``scalar_draws``."""
    return next(scalar_draws(scalars, rng, bound, exp))


def _exponent(m: int, d: int) -> int:
    """The least n >= 0 that makes 2**n * m/d's denominator odd."""
    return max(0, (d & -d).bit_length() - (m & -m).bit_length()) if m else 0


def certify(scaled, twisted, lands, draw) -> tuple[int, bool]:
    """The certificate of a doubling plan (``doubling_plan``) run on a
    flat draw: the largest exponent n of its checks, and whether every check
    lands.

    A scalar m/d at offset i with scale s lands when 2**k m/d lies in
    (1/s) Z for its own exponent k; once it does, every larger power of 2
    keeps it there.  A twisted Z^4 payload (a, b, c, d) starting at offset
    i has the 2**k-fold sum (N a, N b, N c, N d + C(N, 2) b c) with
    N = 2**k (``Twist4.mul``), k the largest exponent of a, b, c, d and
    2 bc; N a, N b and N c stay integers as k grows.
    """
    n = 0
    for i, s in scaled:
        m, d = draw[i]
        if m:
            k = (d & -d).bit_length() - (m & -m).bit_length()
            if k < 0:
                k = 0
            elif k > n:
                n = k
            if (m * s << k) % d:
                lands = False
    for i in twisted:
        (ma, da), (mb, db), (mc, dc), (md, dd) = draw[i:i + 4]
        bc = mb * mc
        k = max(_exponent(ma, da), _exponent(mb, db), _exponent(mc, dc), _exponent(md, dd),
                _exponent(bc, db * dc) + 1 if bc else 0)
        N = 1 << k
        n = max(n, k)
        lands = (
            lands and (ma << k) % da == 0 and (mb << k) % db == 0 and (mc << k) % dc == 0
            and (N * md * db * dc + N * (N - 1) // 2 * bc * dd) % (dd * db * dc) == 0
        )
    return n, lands


class GroupDescriptor:
    """Base class for group descriptors; instances are immutable.

    Defaults: a linear, Abelian order, join and meet from ``cmp``, a
    central unit (no non-centrality witness), no closure rule (no strict
    closure, no Boolean quotient, only the identity certificate, no probe
    payloads and no rootless element) and the halving root of a chain.
    """

    __slots__ = ()
    linear = True
    abelian = True

    def join(self, p, q):
        return p if self.cmp(p, q) >= 0 else q

    def meet(self, p, q):
        return p if self.cmp(p, q) <= 0 else q

    def witness(self):
        return None

    def draw(self, rng, bound, exp):
        return draw_scalars(self.scalars(), rng, bound, exp)

    def random(self, rng, bound, exp):
        return self.from_draw(self.draw(rng, bound, exp))

    def flat(self):
        return [self]

    def strict_closure(self):
        raise UnsupportedOperationError(f"no strict closure rule for {self!r}")

    def has_boolean_quotient(self):
        return False

    def doubling_plan(self, base):
        # (scalar checks (offset, scale), twisted Z^4 offsets, whether the
        # shapes match); a draw of a group is a member of it
        return ([], [], True) if base == self else None

    def missing_from(self, closed):
        return None

    def unreachable_from(self, base):
        return self.unit()

    def rootless(self):
        return None

    def root(self, p):
        # u/2 tops the nilpotents when it exists; without it they have no
        # top, in every family without a rule of its own
        if p == self.zero():
            h = try_halve(self, self.unit())
            if h is None:
                return None, NO_MAX, "the nilpotent set is upward unbounded"
            return h, None, None
        # in a chain with central unit, a (.) a = p > 0 forces 2a = p + u
        if not self.linear or self.witness() is not None:
            raise UnsupportedOperationError(f"no root procedure covers {self!r}")
        h = try_halve(self, self.add(p, self.unit()))
        return (h, None, None) if h is not None else (None, NO_CANDIDATE, None)


class _Rank1(GroupDescriptor):
    """Subgroups of Q containing 1, unit 1; payloads are Fractions."""

    def normalize(self, raw):
        return rational(raw)

    def zero(self):
        return Fraction(0)

    def unit(self):
        return Fraction(1)

    def add(self, p, q):
        return p + q

    def mul(self, k, p):
        return k * p

    def neg(self, p):
        return -p

    def cmp(self, p, q):
        return (p > q) - (p < q)

    def halve(self, p):
        return p / 2

    def bound(self, p):
        return math.ceil(p)

    def from_draw(self, draw, at=0):
        return Fraction(*draw[at])

    def strict_closure(self):
        return self


class ScaledInt(_Rank1, Record):
    n: int
    two_divisible = False

    def __init__(self, n):
        if n < 1:
            raise ParameterError("ScaledInt needs n >= 1")
        object.__setattr__(self, "n", n)

    def contains(self, p):
        return isinstance(p, Fraction) and self.n % p.denominator == 0

    def scalars(self):
        return [("Z", self.n)]

    def strict_closure(self):
        return ScaledDyadic(odd_part(self.n))

    def has_boolean_quotient(self):
        return self.n == 1

    def missing_from(self, closed):
        probe = Fraction(1, self.n)
        return None if self == closed or closed.contains(probe) else probe

    def rootless(self):
        # a positive k/n halves into the group exactly when k + n is even
        k = 1 + self.n % 2
        return Fraction(k, self.n) if k <= self.n else None

    def root(self, p):
        # the nilpotents k/n have 2k <= n, so floor(n/2)/n tops them
        return (Fraction(self.n // 2, self.n), None, None) if p == 0 else super().root(p)


class ScaledDyadic(_Rank1, Record):
    q: int
    two_divisible = True

    def __init__(self, q):
        if q < 1 or q % 2 == 0:
            raise ParameterError("ScaledDyadic needs odd q >= 1")
        object.__setattr__(self, "q", q)

    def contains(self, p):
        if not isinstance(p, Fraction):
            return False
        den = p.denominator
        return self.q % (den >> ((den & -den).bit_length() - 1)) == 0

    def scalars(self):
        return [("D", self.q)]

    def doubling_plan(self, base):
        # h = m/d with d = q 2**k lies in (1/N) Z once 2**n m N / d is an integer
        if not isinstance(base, ScaledInt) or odd_part(base.n) != self.q:
            return super().doubling_plan(base)
        return [(0, base.n)], [], True

    def missing_from(self, closed):
        probe = Fraction(1, self.q)
        return None if self == closed or closed.contains(probe) else probe

    def unreachable_from(self, base):
        return Fraction(1, self.q)


class Rationals(_Rank1, Record):
    two_divisible = True

    def contains(self, p):
        return isinstance(p, Fraction)

    def scalars(self):
        return [("Q", 1)]


class QuadLattice(GroupDescriptor, Record):
    alpha: QuadValue
    dyadic: bool

    def __init__(self, alpha, dyadic=False):
        if alpha.is_rational():
            raise ParameterError("QuadLattice needs an irrational alpha")
        if not (0 < alpha.sign() and (alpha - QuadValue.make(1)).sign() < 0):
            raise ParameterError("QuadLattice needs 0 < alpha < 1")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "dyadic", dyadic)

    @property
    def two_divisible(self):
        return self.dyadic

    def _value(self, p) -> QuadValue:
        return QuadValue.of(p[0] + p[1] * self.alpha.a, p[1] * self.alpha.b, self.alpha.d)

    def contains(self, p):
        # Fraction coordinates only, unlike the twisted families
        return (
            isinstance(p, tuple)
            and len(p) == 2
            and all(map(isinstance, p, (Fraction, Fraction)))
            and _in_ring("D" if self.dyadic else "Z", p)
        )

    def normalize(self, raw):
        a, b = raw
        return (rational(a), rational(b))

    def zero(self):
        return (Fraction(0), Fraction(0))

    def unit(self):
        return (Fraction(1), Fraction(0))

    def add(self, p, q):
        return (p[0] + q[0], p[1] + q[1])

    def mul(self, k, p):
        return (k * p[0], k * p[1])

    def neg(self, p):
        return (-p[0], -p[1])

    def cmp(self, p, q):
        return self._value((p[0] - q[0], p[1] - q[1])).sign()

    def halve(self, p):
        return (p[0] / 2, p[1] / 2)

    def bound(self, p):
        v = self._value(p)
        f = v.floor()
        return f if (v - QuadValue.make(f)).sign() == 0 else f + 1

    def scalars(self):
        return [("D" if self.dyadic else "Z", 1)] * 2

    def from_draw(self, draw, at=0):
        return tuple(Fraction(m, d) for m, d in draw[at:at + 2])

    def strict_closure(self):
        return QuadLattice(self.alpha, dyadic=True)

    def doubling_plan(self, base):
        # dyadic coefficients over integral ones: both become integers
        integral = isinstance(base, QuadLattice) and base.alpha == self.alpha and not base.dyadic
        return ([(0, 1), (1, 1)], [], True) if integral and self.dyadic else super().doubling_plan(base)


class _Twisted(GroupDescriptor, Record):
    """``arity``-tuples over a tagged scalar ring, ordered lexicographically,
    unit (1,0,...,0); the last coordinate carries the twisting product.

    With tag ``"Z"`` the coordinates are plain ``int``s; with ``"D"`` and
    ``"Q"`` they are ``Fraction``s.  Membership accepts either kind of
    exact scalar by value.
    """

    tag: str
    abelian = False

    def __init__(self, tag="Z"):
        if tag not in SCALAR_TAGS:
            raise ParameterError(f"scalar tag must be one of {SCALAR_TAGS}")
        object.__setattr__(self, "tag", tag)

    @property
    def two_divisible(self):
        return self.tag in ("D", "Q")

    @property
    def _scalar(self):
        return int if self.tag == "Z" else Fraction

    def contains(self, p):
        if not isinstance(p, tuple) or len(p) != self.arity:
            return False
        # exact scalars are ints that are not bools, which lie in every ring,
        # and Fractions
        kinds = set(map(type, p))
        if kinds == _INTS:
            return True
        exact = kinds <= _EXACT_KINDS or all(k is int or issubclass(k, Fraction) for k in kinds)
        return exact and _in_ring(self.tag, p)

    def normalize(self, raw):
        if len(raw) != self.arity:
            raise ValueError("wrong arity")
        return tuple(map(_int_if_integral if self.tag == "Z" else rational, raw))

    def zero(self):
        return (self._scalar(0),) * self.arity

    def unit(self):
        s = self._scalar
        return (s(1),) + (s(0),) * (self.arity - 1)

    def cmp(self, p, q):
        return (p > q) - (p < q)

    # max and min return p on a tie, as the base class's join and meet do
    join = staticmethod(max)
    meet = staticmethod(min)

    def bound(self, p):
        return math.floor(abs(p[0])) + 1

    def scalars(self):
        return [(self.tag, 1)] * self.arity

    def from_draw(self, draw, at=0):
        return tuple(m if self.tag == "Z" else Fraction(m, d) for m, d in draw[at:at + self.arity])


_TWIST3_NOTE = (
    "elements with first coordinate 0 square to 0 and stay below any (1,s,t); "
    "squares of (1,p,q) compare lexicographically with (1,2s,2t), so the halved "
    "candidate dominates every square below x regardless of coordinate size"
)


# Twist3 and Twist4 inherit the field ``tag`` of _Twisted; records of two
# classes are never equal, so Twist3("Z") != Twist4("Z").
class Twist3(_Twisted):
    arity = 3

    def add(self, p, q):
        return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])

    def mul(self, k, p):
        # the i-th addition adds (i*a)*b to the last coordinate, C(k, 2)*a*b in all
        return (k * p[0], k * p[1], k * p[2] + k * (k - 1) // 2 * p[0] * p[1])

    def neg(self, p):
        return (-p[0], -p[1], -p[2] + p[0] * p[1])

    def halve(self, p):
        # h + h = (2h1, 2h2, 2h3 + h1*h2)
        return (_half(p[0]), _half(p[1]), _half(p[2] - _half(_half(p[0] * p[1]))))

    def witness(self):
        # u + (0,1,0) = (1,1,1) but (0,1,0) + u = (1,1,0)
        s = self._scalar
        return (s(0), s(1), s(0))

    def strict_closure(self):
        raise UnsupportedOperationError(
            "the twisted Z^3 interval is not symmetric, so it admits no strict "
            "square root mapping and no strict closure"
        )

    def root(self, p):
        # the unit is not central, so the halving rule does not apply
        if self.tag != "Z":
            if p == self.zero():
                return super().root(p)
            if p == self.unit():
                return p, None, None
            raise UnsupportedOperationError(
                "general roots over twisted Z^3 carriers are only decided for the integer tag"
            )
        if p == self.zero():
            return None, NO_MAX, "nilpotents (0,p,q) are unbounded in p"
        if p[0] == 0:
            return None, NO_CANDIDATE, "only 0 and head-1 pairs are squares"
        if p[1] % 2 or p[2] % 2:
            return None, NO_CANDIDATE, "head-1 squares have even coordinates"
        return (1, p[1] // 2, p[2] // 2), None, _TWIST3_NOTE


class Twist4(_Twisted):
    arity = 4

    def add(self, p, q):
        return (p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3] + p[1] * q[2])

    def mul(self, k, p):
        return (k * p[0], k * p[1], k * p[2], k * p[3] + k * (k - 1) // 2 * p[1] * p[2])

    def neg(self, p):
        return (-p[0], -p[1], -p[2], -p[3] + p[1] * p[2])

    def halve(self, p):
        # h + h = (2h1, 2h2, 2h3, 2h4 + h2*h3)
        return (_half(p[0]), _half(p[1]), _half(p[2]), _half(p[3] - _half(_half(p[1] * p[2]))))

    def strict_closure(self):
        return Twist4("D" if self.tag in ("Z", "D") else "Q")

    def has_boolean_quotient(self):
        """True whatever the tag, although for the tags D and Q the leading
        component is D or Q, and Gamma(D, 1) is not Boolean: defect (e) of
        ROADMAP item 14.  ``tests/test_closures.py`` pins the tag-aware
        answers as three strict expected failures."""
        return True

    def doubling_plan(self, base):
        return ([], [0], True) if self.tag == "D" and base == Twist4("Z") else super().doubling_plan(base)


class _Composite(GroupDescriptor):
    """Tuple payloads, one coordinate per descriptor in ``parts``; the group
    operations, sampling and display work coordinatewise.  Each subclass
    sets ``parts`` at construction; it is not a record field (not annotated),
    so equality, hashing and ``repr`` do not see it."""

    @property
    def abelian(self):
        return all(f.abelian for f in self.parts)

    @property
    def two_divisible(self):
        return all(f.two_divisible for f in self.parts)

    def contains(self, p):
        return (
            isinstance(p, tuple)
            and len(p) == len(self.parts)
            and all(f.contains(a) for f, a in zip(self.parts, p))
        )

    def zero(self):
        return tuple(f.zero() for f in self.parts)

    def add(self, p, q):
        return tuple(f.add(a, b) for f, a, b in zip(self.parts, p, q))

    def mul(self, k, p):
        return tuple(f.mul(k, a) for f, a in zip(self.parts, p))

    def neg(self, p):
        return tuple(f.neg(a) for f, a in zip(self.parts, p))

    def halve(self, p):
        return tuple(f.halve(a) for f, a in zip(self.parts, p))

    def scalars(self):
        return [s for f in self.parts for s in f.scalars()]

    def _starts(self, at=0):
        """The offset in a flat draw at which each part's scalars start."""
        return list(accumulate((len(f.scalars()) for f in self.parts), initial=at))

    def from_draw(self, draw, at=0):
        return tuple(f.from_draw(draw, i) for f, i in zip(self.parts, self._starts(at)))

    def doubling_plan(self, base):
        # componentwise over a base of the same class, each part's checks
        # moved to its offset: n is the largest component exponent, and a
        # product of the wrong length is no member
        if base == self or type(base) is not type(self):
            return super().doubling_plan(base)
        plans = [c.doubling_plan(b) for b, c in zip(base.parts, self.parts)]
        if None in plans:
            return None
        starts = self._starts()
        scaled = [(i + at, s) for (checks, _, _), at in zip(plans, starts) for i, s in checks]
        twisted = [i + at for (_, blocks, _), at in zip(plans, starts) for i in blocks]
        return scaled, twisted, len(base.parts) == len(self.parts) and all(p[2] for p in plans)


class Lex(_Composite, Record):
    head: GroupDescriptor
    tail: GroupDescriptor

    def __init__(self, head, tail):
        if not head.linear:
            raise ParameterError("lexicographic head must be linearly ordered")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "parts", (head, tail))

    @property
    def linear(self):
        return self.tail.linear

    def normalize(self, raw):
        h, t = raw
        return (self.head.normalize(h), self.tail.normalize(t))

    def unit(self):
        return (self.head.unit(), self.tail.zero())

    def cmp(self, p, q):
        return self.head.cmp(p[0], q[0]) or self.tail.cmp(p[1], q[1])

    def join(self, p, q):
        c = self.head.cmp(p[0], q[0])
        if c:
            return p if c > 0 else q
        return (p[0], self.tail.join(p[1], q[1]))

    def meet(self, p, q):
        c = self.head.cmp(p[0], q[0])
        if c:
            return q if c > 0 else p
        return (p[0], self.tail.meet(p[1], q[1]))

    def witness(self):
        w = self.head.witness()
        return None if w is None else (w, self.tail.zero())

    def bound(self, p):
        # (n+1)*u = ((n+1)*u_head, 0) exceeds |x| strictly in the head.
        h = self.head
        return h.bound(h.join(p[0], h.neg(p[0]))) + 1

    def strict_closure(self):
        return Lex(self.head.strict_closure(), self.tail.strict_closure())

    def has_boolean_quotient(self):
        # the innermost head counts only if it is Z/1, so a twisted Z^4 head does not
        return self.head.has_boolean_quotient() if isinstance(self.head, Lex) else self.head == ScaledInt(1)

    def rootless(self):
        # the head's rootless element with tail 0, or (0, 1/m) over a tail (1/m)Z
        head = self.head.rootless()
        if head is not None:
            return (head, self.tail.zero())
        return (self.head.zero(), Fraction(1, self.tail.n)) if isinstance(self.tail, ScaledInt) else None


class ProductGroup(_Composite, Record):
    factors: tuple[GroupDescriptor, ...]

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ParameterError("product needs at least one factor")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "parts", factors)

    @property
    def linear(self):
        return len(self.factors) == 1 and self.factors[0].linear

    def normalize(self, raw):
        return tuple(f.normalize(p) for f, p in zip(self.factors, raw, strict=True))

    def unit(self):
        return tuple(f.unit() for f in self.factors)

    def cmp(self, p, q):
        seen_lt = seen_gt = False
        for f, a, b in zip(self.factors, p, q):
            c = f.cmp(a, b)
            if c is None:
                return None
            seen_lt |= c < 0
            seen_gt |= c > 0
        if seen_lt and seen_gt:
            return None
        return 1 if seen_gt else (-1 if seen_lt else 0)

    def join(self, p, q):
        return tuple(f.join(a, b) for f, a, b in zip(self.factors, p, q))

    def meet(self, p, q):
        return tuple(f.meet(a, b) for f, a, b in zip(self.factors, p, q))

    def _first(self, payloads):
        """The first payload of ``payloads`` (one per factor, in order) that
        is not None, at its factor with 0 at the others; or None."""
        for i, p in enumerate(payloads):
            if p is not None:
                return tuple(p if j == i else f.zero() for j, f in enumerate(self.factors))
        return None

    def witness(self):
        return self._first(f.witness() for f in self.factors)

    def bound(self, p):
        return max(f.bound(a) for f, a in zip(self.factors, p))

    def flat(self):
        return [g for f in self.factors for g in f.flat()]

    def missing_from(self, closed):
        if self == closed or not isinstance(closed, ProductGroup) or len(closed.factors) != len(self.factors):
            return None
        return self._first(b.missing_from(c) for b, c in zip(self.factors, closed.factors))

    def unreachable_from(self, base):
        # the probe of the first factor that no certificate covers
        if isinstance(base, ProductGroup):
            for b, c in zip(base.factors, self.factors):
                if c.doubling_plan(b) is None:
                    inner = c.unreachable_from(b)
                    return tuple(inner if f is c else f.zero() for f in self.factors)
        return self.unit()

    def rootless(self):
        return self._first(f.rootless() for f in self.factors)

    def root(self, p):
        # factor by factor; the first factor without a root names itself
        parts = []
        for f, c in zip(self.factors, p):
            a, reason, note = f.root(c)
            if a is None:
                return None, reason, f"factor {f!r}: {note or reason}"
            parts.append(a)
        return tuple(parts), None, None


def product_of(factors) -> GroupDescriptor:
    """The product of a sequence of factors; the product of one factor is
    that factor."""
    return factors[0] if len(factors) == 1 else ProductGroup(factors)


# ---------------------------------------------------------------------------
# functions on payloads


def member(desc: GroupDescriptor, raw) -> Payload:
    """The validated payload of ``raw`` in the group described by ``desc``."""
    try:
        payload = desc.normalize(raw)
    except (TypeError, ValueError, ParameterError):
        # a tuple where a scalar belongs (rational() raises ParameterError),
        # a scalar where a tuple belongs, or a tuple of the wrong length
        raise CarrierError(f"payload {format_value(raw)} has the wrong shape") from None
    if not desc.contains(payload):
        raise CarrierError(f"{format_value(payload)} is not in the carrier")
    return payload


def try_halve(desc: GroupDescriptor, p) -> Payload | None:
    """The unique h with h + h == p, or None when no such h is in the carrier."""
    h = desc.halve(p)
    if not desc.contains(h):
        return None
    check(desc.add(h, h) == p, "a half h of x has h + h == x")
    return h


def is_unit_central(desc: GroupDescriptor) -> tuple[bool, Payload | None]:
    """Whether the strong unit commutes with every element; a witness otherwise."""
    w = desc.witness()
    if w is None:
        return True, None
    u = desc.unit()
    check(desc.add(u, w) != desc.add(w, u), "the non-centrality witness does not commute with u")
    return False, w


def strong_unit_bound(desc: GroupDescriptor, p) -> int:
    """Some n >= 1 with |p| <= n * u; the defining property is checked."""
    a = desc.join(p, desc.neg(p))
    n = max(1, desc.bound(a))
    c = desc.cmp(a, desc.mul(n, desc.unit()))
    check(c is not None and c <= 0, "the strong unit bound n has |x| <= n * u")
    return n
