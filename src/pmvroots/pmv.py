"""Pseudo MV-algebras.

Two representations are supported:

* :class:`GammaAlgebra` -- the unit interval [0, u] of a unital
  lattice-ordered group, with ``x (+) y = (x + y) ^ u``,
  ``x (.) y = (x - u + y) v 0``, left negation ``x- = u - x`` and right
  negation ``x~ = -x + u``;
* :class:`FiniteAlgebra` -- a finite carrier with its chain decomposition.

Each algebra computes on its own payloads: its methods ``member``,
``value``, ``oplus``, ``odot``, ``lneg``, ``rneg``, ``join``, ``meet``,
``leq`` and ``is_idempotent`` take and return payloads (group elements of
[0, u], or carrier indices), its fields ``zero`` and ``unit`` are the
payloads of 0 and 1, and the functions of this module on ``Element`` box
one method call each, with no switch on the algebra's kind.  ``root(p)``
answers the square root of a payload in the descriptor's form
``(payload | None, reason, note)`` (see ``ogroups``), which
``roots.element_sqrt`` boxes and checks for both kinds: a group interval
asks its descriptor, a finite algebra maps ``ogroups.chain_root`` over the
coordinates.  ``format_element`` writes an element's value with
``scalars.format_value``, as the DSL reads it.

A finite pseudo MV-algebra is an MV-algebra and a product of chains
M(n_1) x ... x M(n_k) (Mundici's Gamma functor; Dvurecenskij for the
non-commutative version), that is, Gamma(prod (1/n_i) Z, (1, ..., 1)).  A
``FiniteAlgebra`` is its carrier values, this chain decomposition
(``FiniteAlgebra.decomposition``: the chain lengths and the integer
coordinates of every element), 0 and 1, whichever way it was built:

* from the tables of (+) and of both negations on carrier indices, whose one
  check is to find the decomposition, checked by whole-row comparisons
  against Lukasiewicz tables; tables that are not a product of chains raise
  ``ParameterError``.  Chains ``M(n)`` are built so.  The tables are not
  kept.
* by composing the decompositions of checked operands (``compose``): a
  product puts its factors' coordinates side by side, an interval [0, b]
  keeps the chains on which b is full and a quotient by [0, b] those on
  which it is not.  No table is built and nothing is decomposed again.
  A product finds the carrier index of a value by arithmetic, from its
  factors' indices by mixed radix, and an interval from its parent's; only
  table-built algebras and quotients look values up in the hashed
  ``index``.

Every finite algebra of the DSL lists its carrier in ascending value order:
M(n) as k/n, a product in ``itertools.product`` order, which is
lexicographic, and an interval as a subsequence of its parent's carrier.

The operations compute on coordinates, chain by chain as in M(n):
x (+) y is min(c + d, n), both negations n - c, x (.) y max(c + d - n, 0),
v and ^ max and min, x <= y is c <= d on every chain and x is idempotent
when each c is 0 or n; ``x -> y = x- (+) y`` in every algebra.  The
analyses of the whole carrier (chain lengths, ideals and quotients,
intervals, square roots and the greatest subalgebra with roots) read the
decomposition too.  The tests keep as oracles the homomorphism
check on ``Element`` maps, ``check_homomorphism``, and the formulas of the
derived operations in the tables: ``x (.) y = (y- (+) x-)~``,
``x v y = x (+) (x~ (.) y)``, ``x ^ y = x (.) (x- (+) y)`` and ``x <= y``
exactly when ``x- (+) y = 1``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, partial
from operator import add, itemgetter, le, mul, sub
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
from .records import Record
from .scalars import format_value


class Algebra:
    __slots__ = ()


class GammaAlgebra(Algebra, Record):
    """The pseudo MV-algebra carried by the unit interval of a group; its
    operations on payloads come from the descriptor's laws."""

    desc: og.GroupDescriptor

    def __init__(self, desc):  # written out: one or more per request
        object.__setattr__(self, "desc", desc)

    # the payloads u, 0 and -u enter every operation, and the hash every set
    # or dict operation on an Element: each instance computes them once, on
    # first use, into its ``__dict__`` (not annotated, so not record fields:
    # equality and hashing still see desc only)
    @cached_property
    def unit(self) -> og.Payload:
        return self.desc.unit()

    @cached_property
    def zero(self) -> og.Payload:
        return self.desc.zero()

    @cached_property
    def neg_unit(self) -> og.Payload:
        return self.desc.neg(self.unit)

    @cached_property
    def _hash(self) -> int:
        return hash((self.desc,))  # the record's hash, of its one field

    def __hash__(self):  # every hash of an Element hashes its algebra
        return self._hash

    def member(self, value) -> og.Payload:
        p = og.member(self.desc, value)
        if not (self.leq(self.zero, p) and self.leq(p, self.unit)):
            raise CarrierError(f"{format_value(p)} is outside the unit interval")
        return p

    def value(self, p) -> og.Payload:
        return p

    def oplus(self, p, q) -> og.Payload:
        """(p + q) ^ u."""
        d = self.desc
        return d.meet(d.add(p, q), self.unit)

    def odot(self, p, q) -> og.Payload:
        """(p - u + q) v 0."""
        d = self.desc
        return d.join(d.add(d.add(p, self.neg_unit), q), self.zero)

    def lneg(self, p) -> og.Payload:
        """u - p."""
        return self.desc.add(self.unit, self.desc.neg(p))

    def rneg(self, p) -> og.Payload:
        """-p + u."""
        return self.desc.add(self.desc.neg(p), self.unit)

    def join(self, p, q) -> og.Payload:
        return self.desc.join(p, q)

    def meet(self, p, q) -> og.Payload:
        return self.desc.meet(p, q)

    def leq(self, p, q) -> bool:
        c = self.desc.cmp(p, q)
        return c is not None and c <= 0

    def is_idempotent(self, p) -> bool:
        return self.oplus(p, p) == p

    def root(self, p):
        """The descriptor's root rule."""
        return self.desc.root(p)

    def __str__(self) -> str:
        return f"gamma({self.desc})"


class FiniteAlgebra(Algebra):
    """A finite pseudo MV-algebra: its carrier values, its chain
    decomposition ``decomposition``, and 0 and 1 as carrier indices,
    ``zero`` and ``unit``, the names of ``GammaAlgebra``'s payloads.

    The constructor takes the tables of (+) and of both negations on carrier
    indices.  The tables pass the axioms exactly when they are a product of
    chains, so the one check is to find that decomposition; the tables are
    not kept.  Products, intervals and quotients compose theirs from checked
    ones instead (``compose``) and build no table.  Both ways fill the same
    fields.  ``member`` finds a value's carrier index by arithmetic on a
    product or an interval, and through ``index``, the map from values to
    carrier indices, on a table-built algebra, which keeps the one its
    constructor built, and on a quotient, which builds it on first read.
    The operations on carrier indices compute on the coordinates.
    """

    def __init__(self, values, oplus, lneg, rneg, zero, one):
        try:
            values, oplus = tuple(values), tuple(map(tuple, oplus))
            lneg, rneg = tuple(lneg), tuple(rneg)
            index = {v: i for i, v in enumerate(values)}
        except TypeError:
            raise ParameterError("the tables must be sequences and the values hashable") from None
        _check_shape(len(values), oplus, lneg, rneg, zero, one)
        if len(index) != len(values):
            raise ParameterError("carrier values must be pairwise distinct")
        self._set(values, _decompose(oplus, lneg, rneg, zero, one), index)

    def _set(self, values: tuple, dec: ChainDecomposition, index: dict | None = None, find=None) -> None:
        self.values = values
        self._index = index
        self._find = find  # value -> carrier index by arithmetic, or None: read ``index``
        self.size = len(values)
        self.zero = dec.index[(0,) * len(dec.lengths)]
        self.unit = dec.index[dec.lengths]
        self.decomposition = dec
        # the lengths and the coordinates determine every table, 0 and 1;
        # elements hash their algebra on every set or dict operation, and the
        # hash leaves the values out
        self._fingerprint = (values, dec.lengths, dec.coords)
        self._hash = hash((dec.lengths, dec.coords))

    @property
    def index(self) -> dict:
        """The carrier index of each value.  The table constructor keeps the
        map it built to check the values, so they are hashed once; a
        quotient builds it on first read, and ``member`` of a product or an
        interval does not read it."""
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.values)}
        return self._index

    def member(self, value) -> int:
        if isinstance(value, int):
            value = Fraction(value)
        find = self._find
        try:
            return self.index[value] if find is None else find(value)
        except (KeyError, CarrierError):
            raise CarrierError(f"{format_value(value)} is not in the carrier") from None

    def value(self, i: int) -> Value:
        return self.values[i]

    def oplus(self, i: int, j: int) -> int:
        """min(c + d, n) on every chain."""
        dec = self.decomposition
        cs = dec.coords
        return dec.index[tuple(map(min, map(add, cs[i], cs[j]), dec.lengths))]

    def odot(self, i: int, j: int) -> int:
        """max(c + d - n, 0) on every chain, as max(c + d, n) - n."""
        dec = self.decomposition
        cs, n = dec.coords, dec.lengths
        return dec.index[tuple(map(sub, map(max, map(add, cs[i], cs[j]), n), n))]

    def lneg(self, i: int) -> int:
        """n - c on every chain; both negations."""
        dec = self.decomposition
        return dec.index[tuple(map(sub, dec.lengths, dec.coords[i]))]

    rneg = lneg

    def join(self, i: int, j: int) -> int:
        dec = self.decomposition
        return dec.index[tuple(map(max, dec.coords[i], dec.coords[j]))]

    def meet(self, i: int, j: int) -> int:
        dec = self.decomposition
        return dec.index[tuple(map(min, dec.coords[i], dec.coords[j]))]

    def leq(self, i: int, j: int) -> bool:
        cs = self.decomposition.coords
        return all(map(le, cs[i], cs[j]))

    def is_idempotent(self, i: int) -> bool:
        dec = self.decomposition
        return all(c == 0 or c == n for c, n in zip(dec.coords[i], dec.lengths))

    def root(self, i: int):
        """The root chain by chain, ``og.chain_root`` on each coordinate; a
        chain product has no root that fails by Sq2 alone."""
        dec = self.decomposition
        r = tuple(map(og.chain_root, dec.lengths, dec.coords[i]))
        if None in r:
            return None, og.NO_CANDIDATE, None
        return dec.index[r], None, None

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


def compose(values, atoms, lengths, coords, find=None) -> FiniteAlgebra:
    """The algebra on ``values`` with this chain decomposition, which the
    caller composed from the checked decompositions of its operands: it runs
    no check and builds no table.  ``find`` maps a value to its carrier
    index, raising ``KeyError`` or ``CarrierError`` off the carrier; without
    it ``member`` reads ``index``."""
    coords = tuple(coords)
    index = {c: x for x, c in enumerate(coords)}
    A = FiniteAlgebra.__new__(FiniteAlgebra)
    A._set(tuple(values), ChainDecomposition(tuple(atoms), tuple(lengths), coords, index), None, find)
    return A


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


class Element(Record):
    __slots__ = ("algebra", "payload")
    algebra: Algebra
    payload: Union[int, Fraction, tuple]

    def __init__(self, algebra, payload):  # written out: built more than any other record
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "payload", payload)

    def __str__(self) -> str:
        return format_element(self)


def _same(x: Element, y: Element) -> Algebra:
    A = x.algebra
    if A is not y.algebra and A != y.algebra:
        raise MismatchError("elements of different algebras")
    return A


def element_of(algebra: Algebra, value) -> Element:
    """Build a carrier element from a structured value."""
    return Element(algebra, algebra.member(value))


def value_of(x: Element):
    return x.algebra.value(x.payload)


def format_element(x: Element) -> str:
    return format_value(x.algebra.value(x.payload))


def zero_elem(A: Algebra) -> Element:
    return Element(A, A.zero)


def one_elem(A: Algebra) -> Element:
    return Element(A, A.unit)


def carrier(A: Algebra) -> list[Element]:
    if isinstance(A, GammaAlgebra):
        raise UnsupportedOperationError("group interval carriers are not enumerable")
    return [Element(A, i) for i in range(A.size)]


# ---------------------------------------------------------------------------
# the operations on elements: one method call of their algebra each


def oplus(x: Element, y: Element) -> Element:
    A = _same(x, y)
    return Element(A, A.oplus(x.payload, y.payload))


def odot(x: Element, y: Element) -> Element:
    A = _same(x, y)
    return Element(A, A.odot(x.payload, y.payload))


def lneg(x: Element) -> Element:
    A = x.algebra
    return Element(A, A.lneg(x.payload))


def rneg(x: Element) -> Element:
    A = x.algebra
    return Element(A, A.rneg(x.payload))


def join(x: Element, y: Element) -> Element:
    A = _same(x, y)
    return Element(A, A.join(x.payload, y.payload))


def meet(x: Element, y: Element) -> Element:
    A = _same(x, y)
    return Element(A, A.meet(x.payload, y.payload))


def leq(x: Element, y: Element) -> bool:
    return _same(x, y).leq(x.payload, y.payload)


def is_boolean_elem(x: Element) -> bool:
    return x.algebra.is_idempotent(x.payload)


# ---------------------------------------------------------------------------
# structural queries


def is_symmetric(A: Algebra) -> tuple[bool, Element | None]:
    """Whether the two negations coincide; a witness element otherwise.

    A finite algebra is symmetric: its decomposition gives both negations as
    n - c on every chain."""
    if isinstance(A, GammaAlgebra):
        central, w = og.is_unit_central(A.desc)
        if central:
            return True, None
        # the non-centrality witness lies in [0, u] for every supported family
        witness = element_of(A, w)
        check(lneg(witness) != rneg(witness), "the witness has different negations")
        return False, witness
    return True, None


def boolean_skeleton(A: Algebra) -> list[Element]:
    """All idempotent elements, when they are enumerable; in carrier order
    on a finite algebra, where they are the elements whose coordinates are
    each 0 or n.  A product of k linear groups has 2^k, refused above
    ``MAX_CARRIER`` before any is listed."""
    if isinstance(A, FiniteAlgebra):
        dec = A.decomposition
        corners = itertools.product(*((0, n) for n in dec.lengths))
        return [Element(A, x) for x in sorted(map(dec.index.__getitem__, corners))]
    desc = A.desc
    if desc.linear:
        return [zero_elem(A), one_elem(A)]
    factors = desc.top_factors()
    if all(f.linear for f in factors):
        k = len(factors)
        if 2**k > MAX_CARRIER:
            raise ResourceLimitError(f"the Boolean skeleton has 2^{k} elements, above the limit {MAX_CARRIER}")
        return [Element(A, p) for p in itertools.product(*((f.zero(), f.unit()) for f in factors))]
    raise UnsupportedOperationError(f"cannot enumerate idempotents of {desc!r}")


# ---------------------------------------------------------------------------
# constructions

# the most elements a chain or a product builds, and a group's Boolean
# skeleton lists; a chain's (+) table has the square of this many cells
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

    Its chains are the factors' chains: the coordinates of a tuple are its
    entries' coordinates side by side.  An atom is one factor's atom with
    every other entry at 0; its carrier index is mixed-radix, the last
    factor counting fastest, and the chains are put in that order of their
    atoms, so a later factor's atom comes first.  No table is built, and a
    value's carrier index is its entries' indices in mixed radix.
    """
    if not factors:
        raise ParameterError("product needs at least one factor")
    _check_carrier_size(math.prod(f.size for f in factors))
    decs = [f.decomposition for f in factors]
    strides = [math.prod(f.size for f in factors[k + 1 :]) for k in range(len(factors))]
    zero = sum(f.zero * m for f, m in zip(factors, strides))
    atoms = [zero + (a - f.zero) * m for f, dec, m in zip(factors, decs, strides) for a in dec.atoms]
    lengths = [n for dec in decs for n in dec.lengths]
    order = sorted(range(len(atoms)), key=atoms.__getitem__)
    side_by_side = map(tuple, map(itertools.chain.from_iterable, itertools.product(*(dec.coords for dec in decs))))
    # itemgetter of one index returns a bare int, and of none fails: one
    # chain or none is in order already
    pick = itemgetter(*order) if len(order) > 1 else tuple
    return compose(
        itertools.product(*(f.values for f in factors)),
        [atoms[i] for i in order],
        [lengths[i] for i in order],
        map(pick, side_by_side),
        partial(_find_in_product, tuple(factors), strides),
    )


def _find_in_product(factors: tuple, strides: list[int], value) -> int:
    """The carrier index of a tuple: its entries' indices in mixed radix."""
    if not isinstance(value, tuple) or len(value) != len(factors):
        raise KeyError(value)
    return sum(map(mul, map(FiniteAlgebra.member, factors, value), strides))


def product(algebras: list[Algebra]) -> Algebra:
    """Direct product; mixed finite/group-interval inputs are lifted to groups."""
    if all(isinstance(a, FiniteAlgebra) for a in algebras):
        return finite_product(algebras)
    descs = (a.desc if isinstance(a, GammaAlgebra) else to_gamma_descriptor(a) for a in algebras)
    return GammaAlgebra(og.ProductGroup(f for d in descs for f in d.top_factors()))


def interval(A: Algebra, b: Element) -> Algebra:
    """The relative algebra on [0, b] for an idempotent b.

    On a finite algebra it is the product of the chains on which b is full,
    composed from ``A``'s decomposition without a table; it finds a value's
    carrier index from its index in ``A``.
    """
    if b.algebra != A:
        raise MismatchError("bound must belong to the algebra")
    if not is_boolean_elem(b):
        raise ParameterError("interval bound must be idempotent")
    if isinstance(A, FiniteAlgebra):
        # [0, b] holds the coordinates up to those of b, in carrier order, and
        # its chains are those on which b is full
        dec = A.decomposition
        top = dec.coords[b.payload]
        full = [i for i, k in enumerate(top) if k]
        keep = [x for x, c in enumerate(dec.coords) if all(map(le, c, top))]
        pos = {x: k for k, x in enumerate(keep)}
        return compose(
            [A.values[x] for x in keep],
            [pos[dec.atoms[i]] for i in full],
            [dec.lengths[i] for i in full],
            [tuple(dec.coords[x][i] for i in full) for x in keep],
            partial(_find_in_interval, A, pos),
        )
    desc = A.desc
    if b == one_elem(A):
        return A
    if b == zero_elem(A):
        return _degenerate()
    # a chain has no idempotent but 0 and u, so b is a corner of a product
    # of chains: [0, b] keeps the factors on which b is u
    factors = desc.top_factors()
    if all(f.linear for f in factors):
        return GammaAlgebra(og.product_of([f for f, c, z in zip(factors, b.payload, A.zero) if c != z]))
    raise UnsupportedOperationError(f"cannot relativize {desc!r} at {b}")


def _find_in_interval(parent: FiniteAlgebra, pos: dict[int, int], value) -> int:
    """The carrier index of a value of [0, b]: its index in the parent,
    renumbered by ``pos``."""
    return pos[parent.member(value)]


def _degenerate() -> FiniteAlgebra:
    return compose([Fraction(0)], (), (), [()])


# ---------------------------------------------------------------------------
# decomposition


def _check_shape(n: int, op, ln, rn, zero, one) -> None:
    """Every entry of the tables (+) ``op`` and the negations ``ln`` and
    ``rn``, 0 and 1 must be an index into a carrier of ``n`` elements."""
    if n == 0:
        raise ParameterError("carrier must be non-empty")
    if len(op) != n or len(ln) != n or len(rn) != n or any(len(r) != n for r in op):
        raise ParameterError(f"(+) must be a {n}x{n} table and each negation have {n} entries")
    entries = (*itertools.chain.from_iterable(op), *ln, *rn, zero, one)
    # type first: a Fraction or a float equal to an index would pass the range test
    if set(map(type, entries)) != {int} or not set(entries) <= set(range(n)):
        raise ParameterError(f"table entries, 0 and 1 must be integers in [0, {n - 1}]")


def _decompose(op, ln, rn, zero: int, one: int) -> ChainDecomposition:
    """Find the chains from (+) and the negations, tables on carrier
    indices, by index arithmetic, then check them; ``ParameterError``,
    naming the failed check, when they are not a product of chains, that
    is, not a pseudo MV-algebra.

    x <= y is tested as x- (+) y == 1, and x ^ a as x (.) a, which it equals
    for an idempotent a.
    """
    n = len(op)
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
        if not _lukasiewicz(ln, rn, rows, col, m):
            raise _not_chains(f"(+) or a negation is not Lukasiewicz's on chain {i} of M({m})")
    return ChainDecomposition(tuple(atoms), tuple(lengths), coords, index)


def _not_chains(why: str) -> ParameterError:
    return ParameterError(f"the tables are not a product of chains: {why}")


def _lukasiewicz(ln, rn, rows: list[itemgetter], col: list[int], m: int) -> bool:
    """Whether one coordinate carries (+) and the negations ``ln`` and ``rn``
    to those of M(m): min(i + j, m) and m - i, compared a whole table row at
    a time; ``rows[x]`` gathers row x of (+) out of a column."""
    neg = [m - c for c in col]
    if list(map(col.__getitem__, ln)) != neg or list(map(col.__getitem__, rn)) != neg:
        return False
    # a chain has at least two elements, so itemgetters of n entries return tuples
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
    return sorted(A.decomposition.lengths)


def to_gamma_descriptor(A: FiniteAlgebra) -> og.GroupDescriptor:
    """A group descriptor whose unit interval is isomorphic to ``A``."""
    lengths = A.decomposition.lengths
    if not lengths:
        raise UnsupportedOperationError("the one-element algebra has no unital group")
    if len(lengths) == 1:
        return og.ScaledInt(lengths[0])
    return og.ProductGroup(tuple(og.ScaledInt(n) for n in lengths))
