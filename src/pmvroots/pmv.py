"""Pseudo MV-algebras.

Two representations are supported:

* :class:`GammaAlgebra` -- the unit interval [0, u] of a unital
  lattice-ordered group, with ``x (+) y = (x + y) ^ u``,
  ``x (.) y = (x - u + y) v 0``, left negation ``x- = u - x`` and right
  negation ``x~ = -x + u``;
* :class:`FiniteAlgebra` -- an explicit finite carrier with operation
  tables, checked against the pseudo MV axiom list at construction.

Derived operations are defined uniformly from the primitive ones:
``x (.) y = (y- (+) x-)~``, ``x v y = x (+) (x~ (.) y)``,
``x ^ y = (x (.) (x- (+) y))`` and ``x -> y = x- (+) y``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Union

from . import ogroups as og
from .errors import (
    CarrierError,
    MismatchError,
    ParameterError,
    UnsupportedOperationError,
)
from .scalars import format_value


class Algebra:
    __slots__ = ()


@dataclass(frozen=True)
class GammaAlgebra(Algebra):
    """The pseudo MV-algebra carried by the unit interval of a group."""

    desc: og.GroupDescriptor

    @property
    def unit(self) -> og.GroupElement:
        return og.unit(self.desc)

    def __str__(self) -> str:
        from .dsl import format_algebra

        return format_algebra(self)


class FiniteAlgebra(Algebra):
    """A finite pseudo MV-algebra given by operation tables."""

    def __init__(self, values, oplus, lneg, rneg, zero, one, *, validate=True):
        self.values = tuple(values)
        self.size = len(self.values)
        self.oplus_t = tuple(tuple(row) for row in oplus)
        self.lneg_t = tuple(lneg)
        self.rneg_t = tuple(rneg)
        self.zero_i = zero
        self.one_i = one
        self.index = {v: i for i, v in enumerate(self.values)}
        if len(self.index) != self.size:
            raise ParameterError("carrier values must be pairwise distinct")
        self._derive_tables()
        if validate:
            self._validate()
        self._fingerprint = (
            self.values,
            self.oplus_t,
            self.lneg_t,
            self.rneg_t,
            self.zero_i,
            self.one_i,
        )
        # elements hash their algebra on every set or dict operation
        self._hash = hash(self._fingerprint)

    def _derive_tables(self):
        # each row is a composition of table rows, gathered with map
        op, ln, rn = self.oplus_t, self.lneg_t, self.rneg_t
        columns = tuple(zip(*op))  # columns[b][a] == op[a][b]
        # x (.) y = (y- (+) x-)~: odot_t[i][j] == rn[op[ln[j]][ln[i]]]
        self.odot_t = tuple(
            tuple(map(rn.__getitem__, map(columns[li].__getitem__, ln))) for li in ln
        )
        od = self.odot_t
        # x v y = x (+) (x~ (.) y), x ^ y = x (.) (x- (+) y)
        self.join_t = tuple(tuple(map(op[i].__getitem__, od[ri])) for i, ri in enumerate(rn))
        self.meet_t = tuple(tuple(map(od[i].__getitem__, op[li])) for i, li in enumerate(ln))

    def _validate(self):
        n, op, ln, rn = self.size, self.oplus_t, self.lneg_t, self.rneg_t
        zero, one = self.zero_i, self.one_i
        rng = range(n)
        if n == 0:
            raise ParameterError("carrier must be non-empty")
        for i in rng:
            if op[i][zero] != i or op[zero][i] != i:
                raise ParameterError(f"0 is not neutral at index {i}")
            if op[i][one] != one or op[one][i] != one:
                raise ParameterError(f"1 is not absorbing at index {i}")
            if rn[ln[i]] != i or ln[rn[i]] != i:
                raise ParameterError(f"negations are not mutually inverse at {i}")
        if ln[one] != zero or rn[one] != zero:
            raise ParameterError("negation of 1 must be 0")
        od, jo = self.odot_t, self.join_t
        for i in rng:
            for j in rng:
                if rn[op[ln[i]][ln[j]]] != ln[op[rn[i]][rn[j]]]:
                    raise ParameterError(f"negation exchange fails at ({i},{j})")
                a = jo[i][j]
                if (
                    a != op[j][od[rn[j]][i]]
                    or a != op[od[i][ln[j]]][j]
                    or a != op[od[j][ln[i]]][i]
                ):
                    raise ParameterError(f"join expressions disagree at ({i},{j})")
                if od[i][op[ln[i]][j]] != od[op[i][rn[j]]][j]:
                    raise ParameterError(f"meet expressions disagree at ({i},{j})")
        if n == 1:
            return  # 0 (+) 0 == 0 was checked above
        # (i (+) j) (+) k == i (+) (j (+) k) for all k at once: row i (+) j of
        # the table against row i gathered at the entries of row j
        gather = [itemgetter(*row) for row in op]
        for i in rng:
            opi = op[i]
            for j in rng:
                if op[opi[j]] != gather[j](opi):
                    k = next(k for k in rng if op[opi[j]][k] != opi[op[j][k]])
                    raise ParameterError(f"(+) is not associative at ({i},{j},{k})")

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
        lo = og.g_cmp(og.zero(algebra.desc), g)
        hi = og.g_cmp(g, algebra.unit)
        if lo is None or lo > 0 or hi is None or hi > 0:
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
        return Element(A, og.zero(A.desc).payload)
    return Element(A, A.zero_i)


def one_elem(A: Algebra) -> Element:
    if isinstance(A, GammaAlgebra):
        return Element(A, A.unit.payload)
    return Element(A, A.one_i)


def carrier(A: Algebra) -> list[Element]:
    if isinstance(A, GammaAlgebra):
        raise UnsupportedOperationError("group interval carriers are not enumerable")
    return [Element(A, i) for i in range(A.size)]


def _group(x: Element) -> og.GroupElement:
    return og.GroupElement(x.algebra.desc, x.payload)


# ---------------------------------------------------------------------------
# primitive and derived operations


def oplus(x: Element, y: Element) -> Element:
    A = _same(x, y)
    if isinstance(A, GammaAlgebra):
        s = og.g_add(_group(x), _group(y))
        return Element(A, og.g_meet(s, A.unit).payload)
    return Element(A, A.oplus_t[x.payload][y.payload])


def odot(x: Element, y: Element) -> Element:
    A = _same(x, y)
    if isinstance(A, GammaAlgebra):
        s = og.g_add(og.g_sub(_group(x), A.unit), _group(y))
        return Element(A, og.g_join(s, og.zero(A.desc)).payload)
    return Element(A, A.odot_t[x.payload][y.payload])


def lneg(x: Element) -> Element:
    A = x.algebra
    if isinstance(A, GammaAlgebra):
        return Element(A, og.g_sub(A.unit, _group(x)).payload)
    return Element(A, A.lneg_t[x.payload])


def rneg(x: Element) -> Element:
    A = x.algebra
    if isinstance(A, GammaAlgebra):
        return Element(A, og.g_add(og.g_neg(_group(x)), A.unit).payload)
    return Element(A, A.rneg_t[x.payload])


def join(x: Element, y: Element) -> Element:
    A = _same(x, y)
    if isinstance(A, GammaAlgebra):
        return Element(A, og.g_join(_group(x), _group(y)).payload)
    return Element(A, A.join_t[x.payload][y.payload])


def meet(x: Element, y: Element) -> Element:
    A = _same(x, y)
    if isinstance(A, GammaAlgebra):
        return Element(A, og.g_meet(_group(x), _group(y)).payload)
    return Element(A, A.meet_t[x.payload][y.payload])


def arrow(x: Element, y: Element) -> Element:
    """x -> y = x- (+) y."""
    return oplus(lneg(x), y)


def leq(x: Element, y: Element) -> bool:
    A = _same(x, y)
    if isinstance(A, GammaAlgebra):
        return og.g_leq(_group(x), _group(y))
    return A.join_t[x.payload][y.payload] == y.payload


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
        assert lneg(witness) != rneg(witness)
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


def finite_mv_chain(n: int) -> FiniteAlgebra:
    """The MV chain {0, 1/n, ..., 1} with n+1 elements."""
    if n < 1:
        raise ParameterError("chain parameter must be >= 1")
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
    return FiniteAlgebra(values, oplus_t, lneg_t, rneg_t, zero, one, validate=False)


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
        keep = [i for i in range(A.size) if leq(Element(A, i), b)]
        pos = {i: k for k, i in enumerate(keep)}
        bm = b.payload
        me, op, ln, rn = A.meet_t, A.oplus_t, A.lneg_t, A.rneg_t
        values = [A.values[i] for i in keep]
        oplus_t = [[pos[me[op[i][j]][bm]] for j in keep] for i in keep]
        lneg_t = [pos[me[ln[i]][bm]] for i in keep]
        rneg_t = [pos[me[rn[i]][bm]] for i in keep]
        return FiniteAlgebra(values, oplus_t, lneg_t, rneg_t, pos[A.zero_i], pos[bm])
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
# decomposition and comparison


def chain_decomposition(A: FiniteAlgebra) -> list[tuple[Element, int]]:
    """Write a finite algebra as a product of chains along skeleton atoms.

    Returns ``[(atom, length), ...]`` where ``[0, atom]`` is a chain with
    ``length + 1`` elements; the induced map ``x -> (x ^ atom_i)_i`` is
    verified to be a bijection that preserves (+), both negations, 0 and 1.
    """
    if not isinstance(A, FiniteAlgebra):
        raise UnsupportedOperationError("chain decomposition needs a finite algebra")
    if A.size == 1:
        return []
    skeleton = [x for x in boolean_skeleton(A) if x != zero_elem(A)]
    atoms = [
        b
        for b in skeleton
        if not any(c != b and leq(c, b) for c in skeleton)
    ]
    top = zero_elem(A)
    for a in atoms:
        top = join(top, a)
    if top != one_elem(A):
        raise UnsupportedOperationError("skeleton atoms do not join to 1")
    for a, b in itertools.combinations(atoms, 2):
        if meet(a, b) != zero_elem(A):
            raise UnsupportedOperationError("skeleton atoms are not disjoint")
    out = []
    for a in atoms:
        below = [x for x in carrier(A) if leq(x, a)]
        for x, y in itertools.combinations(below, 2):
            if not (leq(x, y) or leq(y, x)):
                raise UnsupportedOperationError(
                    "an atomic interval is not totally ordered"
                )
        out.append((a, len(below) - 1))
    factors = [interval(A, a) for a, _ in out]
    prod = finite_product(factors) if len(factors) > 1 else factors[0]
    mapping = {}
    for x in carrier(A):
        parts = [element_of(f, value_of(meet(x, a))) for f, (a, _) in zip(factors, out)]
        mapping[x] = (
            element_of(prod, tuple(value_of(p) for p in parts))
            if len(factors) > 1
            else parts[0]
        )
    ok, why = check_homomorphism(mapping, A, prod, require_injective=True)
    if not ok or len(set(mapping.values())) != prod.size:
        raise UnsupportedOperationError(f"atomic decomposition failed: {why}")
    return out


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


def are_isomorphic(A: FiniteAlgebra, B: FiniteAlgebra) -> bool:
    """Isomorphism of finite algebras via their chain length multisets."""
    if A.size != B.size:
        return False
    if A.size == 1:
        return True
    return chain_lengths(A) == chain_lengths(B)


def check_homomorphism(
    mapping: dict[Element, Element],
    M: Algebra,
    N: Algebra,
    *,
    require_injective: bool = False,
) -> tuple[bool, str | None]:
    """Verify that ``mapping`` preserves (+), both negations, 0 and 1."""
    if not isinstance(M, FiniteAlgebra):
        raise UnsupportedOperationError("homomorphism checks need a finite domain")
    elems = carrier(M)
    for x in elems:
        if x not in mapping:
            return False, f"map is not total: {x} missing"
    if mapping[zero_elem(M)] != zero_elem(N):
        return False, "0 is not preserved"
    if mapping[one_elem(M)] != one_elem(N):
        return False, "1 is not preserved"
    for x in elems:
        if mapping[lneg(x)] != lneg(mapping[x]):
            return False, f"left negation fails at {x}"
        if mapping[rneg(x)] != rneg(mapping[x]):
            return False, f"right negation fails at {x}"
        for y in elems:
            if mapping[oplus(x, y)] != oplus(mapping[x], mapping[y]):
                return False, f"(+) fails at ({x},{y})"
    if require_injective and len(set(mapping.values())) != len(elems):
        return False, "map is not injective"
    return True, None
