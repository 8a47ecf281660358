"""Pseudo MV-algebras.

Two representations are supported:

* :class:`GammaAlgebra` -- the unit interval [0, u] of a unital
  lattice-ordered group, with ``x (+) y = (x + y) ^ u``,
  ``x (.) y = (x - u + y) v 0``, left negation ``x- = u - x`` and right
  negation ``x~ = -x + u``;
* :class:`FiniteAlgebra` -- an explicit finite carrier with the tables of
  (+) and of both negations.

A finite pseudo MV-algebra is an MV-algebra and a product of chains
M(n_1) x ... x M(n_k) (Mundici's Gamma functor; Dvurecenskij for the
non-commutative version).  So the constructor's one check is to find this
chain decomposition (``FiniteAlgebra.decomposition``): the chain lengths and
the integer coordinates of every element, checked by whole-row comparisons
against Lukasiewicz tables.  Tables that are not a product of chains raise
``ParameterError``; every construction (chains, products, intervals,
quotients) goes through it.  The analyses of the whole carrier (chain
lengths, ideals and quotients, intervals, square roots and the greatest
subalgebra with roots) read the decomposition.  The tests keep the
homomorphism check on ``Element`` maps, ``check_homomorphism``, as an
oracle.

Derived operations are defined uniformly from the primitive ones, and a
finite algebra computes them from its three tables by these formulas:
``x (.) y = (y- (+) x-)~``, ``x v y = x (+) (x~ (.) y)``,
``x ^ y = (x (.) (x- (+) y))``, ``x -> y = x- (+) y``, and ``x <= y``
exactly when ``x- (+) y = 1``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, le, sub
from typing import NamedTuple, Union

from . import ogroups as og
from .errors import (
    CarrierError,
    MismatchError,
    ParameterError,
    ResourceLimitError,
    UnsupportedOperationError,
    check,
)
from .scalars import format_value


class Algebra:
    __slots__ = ()


@dataclass(frozen=True)
class GammaAlgebra(Algebra):
    """The pseudo MV-algebra carried by the unit interval of a group."""

    desc: og.GroupDescriptor

    # u, 0 and -u enter every operation: each instance builds them once, on
    # first use (not fields, so equality and hashing still see desc only)
    @cached_property
    def unit(self) -> og.GroupElement:
        return og.unit(self.desc)

    @cached_property
    def zero(self) -> og.GroupElement:
        return og.zero(self.desc)

    @cached_property
    def neg_unit(self) -> og.GroupElement:
        return og.g_neg(self.unit)

    def __str__(self) -> str:
        from .dsl import format_group

        return f"gamma({format_group(self.desc)})"


class FiniteAlgebra(Algebra):
    """A finite pseudo MV-algebra given by the tables of (+) and of both
    negations, on carrier indices; the derived operations are computed from
    them.

    The tables pass the axioms exactly when they are a product of chains, so
    the one check is to find that decomposition, kept as ``decomposition``.
    """

    def __init__(self, values, oplus, lneg, rneg, zero, one):
        try:
            self.values = tuple(values)
            self.oplus_t = tuple(map(tuple, oplus))
            self.lneg_t = tuple(lneg)
            self.rneg_t = tuple(rneg)
            self.index = {v: i for i, v in enumerate(self.values)}
        except TypeError:
            raise ParameterError("the tables must be sequences and the values hashable") from None
        self.size = len(self.values)
        self.zero_i = zero
        self.one_i = one
        _check_shape(self)
        if len(self.index) != self.size:
            raise ParameterError("carrier values must be pairwise distinct")
        self.decomposition = _decompose(self)
        tables = (self.oplus_t, self.lneg_t, self.rneg_t, self.zero_i, self.one_i)
        self._fingerprint = (self.values, *tables)
        # elements hash their algebra on every set or dict operation; ``index``
        # has hashed the values, so the hash takes the integer tables only
        self._hash = hash(tables)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FiniteAlgebra)
            and self._hash == other._hash
            and self._fingerprint == other._fingerprint
        )

    def __hash__(self):
        return self._hash

    def __str__(self) -> str:
        return f"finite algebra ({self.size} elements)"


class ChainDecomposition(NamedTuple):
    """A finite algebra as a product of chains M(n_1) x ... x M(n_k).

    ``atoms`` are the carrier indices of the skeleton atoms in carrier
    order and ``lengths`` the n_i; ``coords[x]`` holds the integer
    coordinates of carrier index x, the rank of x ^ atom_i in [0, atom_i],
    and ``index`` maps coordinates back to carrier indices.
    """

    atoms: tuple[int, ...]
    lengths: tuple[int, ...]
    coords: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]


Value = Union[Fraction, tuple, str]


@dataclass(frozen=True)
class Element:
    algebra: Algebra
    payload: Union[int, Fraction, tuple]

    def __str__(self) -> str:
        return format_element(self)


def _same(x: Element, y: Element) -> Algebra:
    A = x.algebra
    if A is not y.algebra and A != y.algebra:
        raise MismatchError("elements of different algebras")
    return A


def element_of(algebra: Algebra, value) -> Element:
    """Build a carrier element from a structured value."""
    if isinstance(algebra, GammaAlgebra):
        g = og.element(algebra.desc, value)
        if not _in_unit_interval_p(algebra, g.payload):
            raise CarrierError(f"{g} is outside the unit interval")
        return Element(algebra, g.payload)
    if isinstance(value, int):
        value = Fraction(value)
    if value not in algebra.index:
        raise CarrierError(f"{format_value(value)} is not in the carrier")
    return Element(algebra, algebra.index[value])


def value_of(x: Element):
    if isinstance(x.algebra, GammaAlgebra):
        return x.payload
    return x.algebra.values[x.payload]


def format_element(x: Element) -> str:
    if isinstance(x.algebra, GammaAlgebra):
        return og.format_payload(x.algebra.desc, x.payload)
    return format_value(value_of(x))


def zero_elem(A: Algebra) -> Element:
    if isinstance(A, GammaAlgebra):
        return Element(A, A.zero.payload)
    return Element(A, A.zero_i)


def one_elem(A: Algebra) -> Element:
    if isinstance(A, GammaAlgebra):
        return Element(A, A.unit.payload)
    return Element(A, A.one_i)


def carrier(A: Algebra) -> list[Element]:
    if isinstance(A, GammaAlgebra):
        raise UnsupportedOperationError("group interval carriers are not enumerable")
    return [Element(A, i) for i in range(A.size)]


# ---------------------------------------------------------------------------
# the operations of a group interval on payloads; the boxed operations below
# delegate to them, and loops that stay in one algebra call them directly


def _oplus_p(A: GammaAlgebra, p, q):
    """(p + q) ^ u."""
    d = A.desc
    return d._meet(d._add(p, q), A.unit.payload)


def _odot_p(A: GammaAlgebra, p, q):
    """(p - u + q) v 0."""
    d = A.desc
    return d._join(d._add(d._add(p, A.neg_unit.payload), q), A.zero.payload)


def _join_p(A: GammaAlgebra, p, q):
    return A.desc._join(p, q)


def _meet_p(A: GammaAlgebra, p, q):
    return A.desc._meet(p, q)


def _leq_p(A: GammaAlgebra, p, q) -> bool:
    c = A.desc._cmp(p, q)
    return c is not None and c <= 0


def _in_unit_interval_p(A: GammaAlgebra, p) -> bool:
    """0 <= p <= u, for a payload of the carrier."""
    return _leq_p(A, A.zero.payload, p) and _leq_p(A, p, A.unit.payload)


# ---------------------------------------------------------------------------
# primitive and derived operations


def oplus(x: Element, y: Element) -> Element:
    A = _same(x, y)
    if isinstance(A, GammaAlgebra):
        return Element(A, _oplus_p(A, x.payload, y.payload))
    return Element(A, A.oplus_t[x.payload][y.payload])


def _odot(A: FiniteAlgebra, i: int, j: int) -> int:
    """x (.) y = (y- (+) x-)~ on carrier indices."""
    ln = A.lneg_t
    return A.rneg_t[A.oplus_t[ln[j]][ln[i]]]


def odot(x: Element, y: Element) -> Element:
    A = _same(x, y)
    if isinstance(A, GammaAlgebra):
        return Element(A, _odot_p(A, x.payload, y.payload))
    return Element(A, _odot(A, x.payload, y.payload))


def lneg(x: Element) -> Element:
    A = x.algebra
    if isinstance(A, GammaAlgebra):
        return Element(A, A.desc._add(A.unit.payload, A.desc._neg(x.payload)))  # u - x
    return Element(A, A.lneg_t[x.payload])


def rneg(x: Element) -> Element:
    A = x.algebra
    if isinstance(A, GammaAlgebra):
        return Element(A, A.desc._add(A.desc._neg(x.payload), A.unit.payload))  # -x + u
    return Element(A, A.rneg_t[x.payload])


def join(x: Element, y: Element) -> Element:
    A = _same(x, y)
    if isinstance(A, GammaAlgebra):
        return Element(A, _join_p(A, x.payload, y.payload))
    # x v y = x (+) (x~ (.) y)
    i = x.payload
    return Element(A, A.oplus_t[i][_odot(A, A.rneg_t[i], y.payload)])


def meet(x: Element, y: Element) -> Element:
    A = _same(x, y)
    if isinstance(A, GammaAlgebra):
        return Element(A, _meet_p(A, x.payload, y.payload))
    # x ^ y = x (.) (x- (+) y)
    i = x.payload
    return Element(A, _odot(A, i, A.oplus_t[A.lneg_t[i]][y.payload]))


def arrow(x: Element, y: Element) -> Element:
    """x -> y = x- (+) y."""
    return oplus(lneg(x), y)


def leq(x: Element, y: Element) -> bool:
    A = _same(x, y)
    if isinstance(A, GammaAlgebra):
        return _leq_p(A, x.payload, y.payload)
    return A.oplus_t[A.lneg_t[x.payload]][y.payload] == A.one_i  # x- (+) y == 1


def ominus(x: Element, y: Element) -> Element:
    """MV difference x (-) y = x (.) y-."""
    return odot(x, lneg(y))


def is_boolean_elem(x: Element) -> bool:
    return oplus(x, x) == x


def distance(x: Element, y: Element) -> Element:
    """Symmetric difference d(x, y) = (x (-) y) (+) (y (-) x)."""
    return oplus(ominus(x, y), ominus(y, x))


# ---------------------------------------------------------------------------
# structural queries


def is_symmetric(A: Algebra) -> tuple[bool, Element | None]:
    """Whether the two negations coincide; a witness element otherwise."""
    if isinstance(A, GammaAlgebra):
        central, w = og.is_unit_central(A.desc)
        if central:
            return True, None
        # the non-centrality witness lies in [0, u] for every supported family
        witness = element_of(A, w.payload)
        check(lneg(witness) != rneg(witness), "the witness has different negations")
        return False, witness
    for i in range(A.size):
        if A.lneg_t[i] != A.rneg_t[i]:
            return False, Element(A, i)
    return True, None


def boolean_skeleton(A: Algebra) -> list[Element]:
    """All idempotent elements, when they are enumerable."""
    if isinstance(A, FiniteAlgebra):
        return [x for x in carrier(A) if is_boolean_elem(x)]
    desc = A.desc
    if og.is_linear(desc):
        return [zero_elem(A), one_elem(A)]
    if isinstance(desc, og.ProductGroup) and all(og.is_linear(f) for f in desc.factors):
        out = []
        for bits in itertools.product((0, 1), repeat=len(desc.factors)):
            payload = tuple(
                (og.unit(f) if b else og.zero(f)).payload
                for f, b in zip(desc.factors, bits)
            )
            out.append(Element(A, payload))
        return out
    raise UnsupportedOperationError(f"cannot enumerate idempotents of {desc!r}")


# ---------------------------------------------------------------------------
# constructions

# the most elements a chain or a product builds; its (+) table has the
# square of this many cells
MAX_CARRIER = 1024


def _check_carrier_size(size: int) -> None:
    """Refuse a carrier above ``MAX_CARRIER`` before any table is built."""
    if size > MAX_CARRIER:
        raise ResourceLimitError(
            f"carrier has {size} elements, above the limit {MAX_CARRIER}"
        )


def finite_mv_chain(n: int) -> FiniteAlgebra:
    """The MV chain {0, 1/n, ..., 1} with n+1 elements."""
    if n < 1:
        raise ParameterError("chain parameter must be >= 1")
    _check_carrier_size(n + 1)
    values = [Fraction(k, n) for k in range(n + 1)]
    oplus_t = [[min(i + j, n) for j in range(n + 1)] for i in range(n + 1)]
    neg = [n - i for i in range(n + 1)]
    return FiniteAlgebra(values, oplus_t, neg, neg, 0, n)


def finite_product(factors: list[FiniteAlgebra]) -> FiniteAlgebra:
    """The direct product, carrier in ``itertools.product`` order.

    Factors are folded in one at a time: in that order the pair of indices
    (s, t) of A x B sits at ``s * |B| + t``, so every table entry of the
    product is index arithmetic on one entry of each factor.
    """
    if not factors:
        raise ParameterError("product needs at least one factor")
    _check_carrier_size(math.prod(f.size for f in factors))
    first = factors[0]
    values = [(v,) for v in first.values]
    oplus_t, lneg_t, rneg_t = first.oplus_t, first.lneg_t, first.rneg_t
    zero, one = first.zero_i, first.one_i
    for f in factors[1:]:
        m = f.size
        values = [v + (w,) for v in values for w in f.values]
        oplus_t = [
            [x * m + y for x in row for y in frow] for row in oplus_t for frow in f.oplus_t
        ]
        lneg_t = [x * m + y for x in lneg_t for y in f.lneg_t]
        rneg_t = [x * m + y for x in rneg_t for y in f.rneg_t]
        zero = zero * m + f.zero_i
        one = one * m + f.one_i
    return FiniteAlgebra(values, oplus_t, lneg_t, rneg_t, zero, one)


def product(algebras: list[Algebra]) -> Algebra:
    """Direct product; mixed finite/group-interval inputs are lifted to groups."""
    if all(isinstance(a, FiniteAlgebra) for a in algebras):
        return finite_product(algebras)
    descs = []
    for a in algebras:
        if isinstance(a, GammaAlgebra):
            d = a.desc
            descs.extend(d.factors if isinstance(d, og.ProductGroup) else [d])
        else:
            d = to_gamma_descriptor(a)
            descs.extend(d.factors if isinstance(d, og.ProductGroup) else [d])
    return GammaAlgebra(og.ProductGroup(tuple(descs)))


def interval(A: Algebra, b: Element) -> Algebra:
    """The relative algebra on [0, b] for an idempotent b."""
    if b.algebra != A:
        raise MismatchError("bound must belong to the algebra")
    if not is_boolean_elem(b):
        raise ParameterError("interval bound must be idempotent")
    if isinstance(A, FiniteAlgebra):
        # [0, b] holds the coordinates up to those of b, in carrier order; it
        # is closed under (+), and both of its negations are top - c
        dec = A.decomposition
        top = dec.coords[b.payload]
        keep = [x for x, c in enumerate(dec.coords) if all(map(le, c, top))]
        pos = {x: k for k, x in enumerate(keep)}
        op = A.oplus_t
        values = [A.values[x] for x in keep]
        oplus_t = [[pos[op[x][y]] for y in keep] for x in keep]
        neg = [pos[dec.index[tuple(map(sub, top, dec.coords[x]))]] for x in keep]
        return FiniteAlgebra(values, oplus_t, neg, neg, pos[A.zero_i], pos[b.payload])
    desc = A.desc
    if b == one_elem(A):
        return A
    if isinstance(desc, og.ProductGroup) and all(og.is_linear(f) for f in desc.factors):
        keep = [
            f
            for f, c, z in zip(desc.factors, b.payload, og.zero(desc).payload)
            if c != z
        ]
        if not keep:
            return _degenerate()
        if len(keep) == 1:
            return GammaAlgebra(keep[0])
        return GammaAlgebra(og.ProductGroup(tuple(keep)))
    if b == zero_elem(A):
        return _degenerate()
    raise UnsupportedOperationError(f"cannot relativize {desc!r} at {b}")


def _degenerate() -> FiniteAlgebra:
    return FiniteAlgebra([Fraction(0)], [[0]], [0], [0], 0, 0)


# ---------------------------------------------------------------------------
# decomposition


def _check_shape(A: FiniteAlgebra) -> None:
    """Every table entry, 0 and 1 must be an index into the carrier."""
    n, op = A.size, A.oplus_t
    if n == 0:
        raise ParameterError("carrier must be non-empty")
    if len(op) != n or len(A.lneg_t) != n or len(A.rneg_t) != n or any(len(r) != n for r in op):
        raise ParameterError(f"(+) must be a {n}x{n} table and each negation have {n} entries")
    entries = (*itertools.chain.from_iterable(op), *A.lneg_t, *A.rneg_t, A.zero_i, A.one_i)
    # type first: a Fraction or a float equal to an index would pass the range test
    if set(map(type, entries)) != {int} or not set(entries) <= set(range(n)):
        raise ParameterError(f"table entries, 0 and 1 must be integers in [0, {n - 1}]")


def _decompose(A: FiniteAlgebra) -> ChainDecomposition:
    """Find the chains from (+) and the negations by index arithmetic, then
    check them; ``ParameterError``, naming the failed check, when they are
    not a product of chains, that is, not a pseudo MV-algebra.

    x <= y is tested as x- (+) y == 1, and x ^ a as x (.) a, which it equals
    for an idempotent a.
    """
    n, op, ln, rn = A.size, A.oplus_t, A.lneg_t, A.rneg_t
    zero, one = A.zero_i, A.one_i
    skeleton = [b for b in range(n) if op[b][b] == b and b != zero]
    # an atom meets every nonzero idempotent c in 0 or in itself, where
    # b ^ c = b (.) c = (c- (+) b-)~
    neg_rows = [op[ln[c]] for c in skeleton]
    atoms = [b for b in skeleton if {rn[row[ln[b]]] for row in neg_rows} <= {zero, b}]
    lengths, cols = [], []
    for a in atoms:
        # walk up [0, a] from 0 in steps of its least nonzero element g
        g = a
        for x in range(n):
            if op[ln[x]][g] == one and x != zero:
                g = x
        rank = [None] * n
        rank[zero], x = 0, zero
        while x != a and rank[x] < n:
            rank[op[x][g]] = rank[x] + 1
            x = op[x][g]
        if x != a:
            raise _not_chains(
                f"steps of index {g} up from 0 (index {zero}) miss the idempotent at index {a}"
            )
        lengths.append(rank[a])
        # coordinate of every carrier index: the rank of x ^ a = x (.) a =
        # (a- (+) x-)~ in [0, a]
        row = op[ln[a]]
        cols.append([rank[rn[row[lx]]] for lx in ln])
    coords = tuple(zip(*cols)) if cols else ((),) * n
    index = {c: x for x, c in enumerate(coords)}
    # a misplaced 0 needs no test of its own: on tables that pass the rest,
    # the true 0 is an atom whose walk never leaves the given one
    numbered = not any(None in col for col in cols) and len(index) == n
    if not numbered or n != math.prod(m + 1 for m in lengths):
        raise _not_chains(f"the chains {tuple(lengths)} do not number the {n} elements one to one")
    if coords[one] != tuple(lengths):
        raise _not_chains("1 is not the top of every chain")
    rows = [itemgetter(*row) for row in op]
    for i, (col, m) in enumerate(zip(cols, lengths)):
        if not _lukasiewicz(A, rows, col, m):
            raise _not_chains(f"(+) or a negation is not Lukasiewicz's on chain {i} of M({m})")
    return ChainDecomposition(tuple(atoms), tuple(lengths), coords, index)


def _not_chains(why: str) -> ParameterError:
    return ParameterError(f"the tables are not a product of chains: {why}")


def _lukasiewicz(A: FiniteAlgebra, rows: list[itemgetter], col: list[int], m: int) -> bool:
    """Whether one coordinate carries (+) and both negations of A to those of
    M(m): min(i + j, m) and m - i, compared a whole table row at a time;
    ``rows[x]`` gathers row x of (+) out of a column."""
    neg = [m - c for c in col]
    if list(map(col.__getitem__, A.lneg_t)) != neg or list(map(col.__getitem__, A.rneg_t)) != neg:
        return False
    # A has at least two elements, so itemgetters of n entries return tuples
    at_col = itemgetter(*col)
    sums = [at_col(tuple(range(k, m + 1)) + (m,) * k) for k in range(m + 1)]  # min(k + j, m)
    return all(row(col) == sums[k] for row, k in zip(rows, col))


def chain_decomposition(A: FiniteAlgebra) -> list[tuple[Element, int]]:
    """Write a finite algebra as a product of chains along skeleton atoms.

    Returns ``[(atom, length), ...]``, atoms in carrier order, where
    ``[0, atom]`` is a chain with ``length + 1`` elements; the map
    ``x -> (x ^ atom_i)_i`` is a bijection onto the product that preserves
    (+), both negations, 0 and 1.  The constructor found and checked it, so
    on a finite algebra this cannot fail; other algebras raise
    ``UnsupportedOperationError``.
    """
    if not isinstance(A, FiniteAlgebra):
        raise UnsupportedOperationError("chain decomposition needs a finite algebra")
    dec = A.decomposition
    return [(Element(A, a), n) for a, n in zip(dec.atoms, dec.lengths)]


def chain_lengths(A: FiniteAlgebra) -> list[int]:
    return sorted(n for _, n in chain_decomposition(A))


def to_gamma_descriptor(A: FiniteAlgebra) -> og.GroupDescriptor:
    """A group descriptor whose unit interval is isomorphic to ``A``."""
    lengths = [n for _, n in chain_decomposition(A)]
    if not lengths:
        raise UnsupportedOperationError("the one-element algebra has no unital group")
    if len(lengths) == 1:
        return og.ScaledInt(lengths[0])
    return og.ProductGroup(tuple(og.ScaledInt(n) for n in lengths))
