"""Square roots of pseudo MV-algebra elements.

The square root of ``x`` is the element ``a`` (unique when it exists) with

* Sq1: ``a (.) a == x``, and
* Sq2: ``y (.) y <= x`` implies ``y <= a`` for every carrier element y.

``sqrt_element_finite`` decides this definition by exhaustive search over
the carrier indices of a finite algebra, boxing only its answer and
witness; the worked-example ledger calls it, and it serves as the oracle
for every family-specific procedure:

* ``element_sqrt`` has one path for every algebra: it asks the algebra's
  root rule, ``A.root(payload)``, boxes the answer and checks
  ``a (.) a == x``, the one check for both kinds and every family.  A group
  interval asks its descriptor (the halving formula ``(x + u) / 2`` of a
  chain whose unit is central, the twisted ``Z^3`` procedure, products
  factor by factor; see ``ogroups``); a finite algebra reads its chain
  decomposition, chain by chain, with ``ogroups.chain_root``, the one
  statement of a chain's root.  ``sqrt_zero`` is its answer at 0, and
  ``twist3_bounded_check`` re-verifies a twisted ``Z^3`` verdict on a box;
* on a finite algebra, ``sqrt_map`` reads the chain lengths alone, as only
  Boolean algebras have a total mapping, and ``greatest_sqrt_subalgebra``
  runs its stages chain by chain on integer coordinates, for both
  quantifiers, with ``ogroups.chain_root``.

The tests keep the element-level procedures these replaced as oracles: the
relative quantifier ``sqrt_in_subset``, the subalgebra scan and the root of
every carrier element, ``finite_roots``; the battery of the root identities
lives in the tests too.

Negative answers carry a machine-checkable reason code and, where
meaningful, a witness element.
"""

from __future__ import annotations

import itertools
from functools import reduce

from . import ogroups as og
from . import pmv
from .errors import MismatchError, ParameterError, UnsupportedOperationError, check
from .pmv import (
    Element,
    FiniteAlgebra,
    GammaAlgebra,
    carrier,
    is_boolean_elem,
    join,
    odot,
    one_elem,
    zero_elem,
)
from .records import Record

SQ2_VIOLATED = "sq2_violated"


class SqrtResult(Record):
    status: str  # "exists" | "not_exists"
    value: Element | None = None
    reason: str | None = None
    witness: Element | None = None
    note: str | None = None

    @property
    def exists(self) -> bool:
        return self.status == "exists"


def _exists(a: Element, note: str | None = None) -> SqrtResult:
    return SqrtResult("exists", a, None, None, note)  # positional: the fast way to build a record


def _not_exists(reason: str, witness: Element | None = None, note: str | None = None) -> SqrtResult:
    return SqrtResult("not_exists", None, reason, witness, note)


# ---------------------------------------------------------------------------
# finite oracle


def sqrt_element_finite(M: FiniteAlgebra, x: Element) -> SqrtResult:
    """Decide the defining conditions by exhaustive search over the carrier
    indices; only the answer and the witness are boxed."""
    if not isinstance(M, FiniteAlgebra):
        raise UnsupportedOperationError("the exhaustive procedure needs a finite algebra")
    if x.algebra is not M and x.algebra != M:
        raise MismatchError("elements of different algebras")
    xi, odot_i, leq_i = x.payload, M.odot, M.leq
    squares = [odot_i(y, y) for y in range(M.size)]
    dominated = [y for y, s in enumerate(squares) if leq_i(s, xi)]
    candidates = [a for a, s in enumerate(squares) if s == xi]
    if not candidates:
        return _not_exists(og.NO_CANDIDATE)
    best, best_misses = None, None
    for a in candidates:
        misses = [y for y in dominated if not leq_i(y, a)]
        if not misses:
            return _exists(Element(M, a))
        if best_misses is None or len(misses) < len(best_misses):
            best, best_misses = a, misses
    w = Element(M, best_misses[0])
    return _not_exists(SQ2_VIOLATED, witness=w, note=f"candidate {Element(M, best)} does not dominate {w}")


# the box has 2N(2N+1) + 2(N+1) elements, each squared once, and the
# nilpotent verdict compares two maxima, so the cost grows as N^2
MAX_BOX_BOUND = 16


def _upper_pairs(bound: int) -> list[tuple[int, int]]:
    """The pairs (b, c) >= (0, 0), lexicographically, with |b|, |c| <= bound."""
    return [(b, c) for b in range(bound + 1) for c in range(-bound if b else 0, bound + 1)]


def _rim_pairs(n: int) -> list[tuple[int, int]]:
    """The pairs (b, c) >= (0, 0), lexicographically, with max(|b|, |c|) = n >= 1:
    those of ``_upper_pairs(n)`` that ``_upper_pairs(n - 1)`` lacks."""
    return [(0, n)] + [(b, c) for b in range(1, n) for c in (-n, n)] + [(n, c) for c in range(-n, n + 1)]


def _twist3_box(A: GammaAlgebra, pairs, heads=(0, 1)) -> list[tuple[int, int, int]]:
    """The payloads (h, b, c) of [0, u] with h in ``heads`` and (b, c) or
    (-b, -c) in ``pairs``, a list of pairs >= (0, 0).

    They are built from the order: (h, b, c) lies in [0, u] = [(0,0,0),
    (1,0,0)] exactly when h = 0 and (b, c) >= (0, 0) lexicographically, or
    h = 1 and (b, c) <= (0, 0), that is (-b, -c) >= (0, 0).  Each point is
    checked as ``element_of`` checks a value: in the carrier and in [0, u].
    """
    contains, leq, zero, unit = A.desc.contains, A.leq, A.zero, A.unit
    box = []
    for h in heads:
        sign = 1 - 2 * h
        for b, c in pairs:
            p = (h, sign * b, sign * c)
            check(contains(p) and leq(zero, p) and leq(p, unit), "a box point lies in [0, u]")
            box.append(p)
    return box


def twist3_bounded_check(A: GammaAlgebra, x: Element, bound: int = 6) -> dict:
    """Re-verify the twisted-Z^3 verdict against the definition on a box.

    Candidates and dominated elements are enumerated with coordinates in
    [-bound, bound], 0 <= bound <= MAX_BOX_BOUND; the dominance of
    out-of-box elements follows from the lexicographic comparison recorded
    in the procedure's note.

    The box is built from the order (``_twist3_box``), so no point outside
    the interval is tried, and it is squared and compared on payloads.  The
    order of Twist3 is linear, so the interval is a chain, and "every in-box
    nilpotent is exceeded in the enlarged box" holds exactly when the
    largest in-box nilpotent lies strictly below the largest nilpotent of
    the enlarged box.  The enlarged box's points (0, b, c) are the box's,
    with their squares, and the rim where |b| or |c| is bound + 1, which
    alone is built, checked and squared.
    """
    if not isinstance(A, GammaAlgebra) or A.desc != og.Twist3("Z"):
        raise ParameterError("the bounded re-verification is specific to gamma(twist3(Z))")
    if not 0 <= bound <= MAX_BOX_BOUND:
        raise ParameterError(f"the box bound must be between 0 and {MAX_BOX_BOUND}, not {bound}")
    res = element_sqrt(A, x)
    xp, zero = x.payload, A.zero
    box = _twist3_box(A, _upper_pairs(bound))
    squares = [A.odot(p, p) for p in box]
    agree = True
    detail = ""
    if res.exists:
        a = res.value.payload
        dominated = [p for p, sq in zip(box, squares) if A.leq(sq, xp)]
        bad = [p for p in dominated if not A.leq(p, a)]
        agree = A.odot(a, a) == xp and not bad
        detail = f"verified against {len(dominated)} in-box dominated elements"
    elif res.reason == og.NO_CANDIDATE:
        agree = xp not in squares
        detail = f"no in-box candidate among {len(box)} elements"
    else:  # no max of nilpotents
        # a finite box in a total order always has a top, so widen by one
        # coordinate step: unboundedness shows as the in-box top being
        # beaten inside the enlarged box; 0 is in every box, so neither
        # list is empty
        nil = [p for p, sq in zip(box, squares) if sq == zero]
        rim = _twist3_box(A, _rim_pairs(bound + 1), heads=(0,))
        wider = [p for p in nil if p[0] == 0] + [w for w in rim if A.odot(w, w) == zero]
        top, wider_top = reduce(A.join, nil), reduce(A.join, wider)
        agree = A.leq(top, wider_top) and top != wider_top
        detail = "every in-box nilpotent is exceeded in the enlarged box"
    return {"agrees": agree, "result": res, "detail": detail, "bound": bound}


def element_sqrt(A: pmv.Algebra, x: Element) -> SqrtResult:
    """The algebra's root rule, ``A.root``; the root is checked to square
    to ``x``."""
    if x.algebra != A:
        raise ParameterError("element does not belong to the algebra")
    h, reason, note = A.root(x.payload)
    if h is None:
        return _not_exists(reason, note=note)
    a = Element(A, h)
    check(odot(a, a) == x, "the root a has a (.) a == x")
    return _exists(a, note)


def sqrt_zero(A: pmv.Algebra) -> SqrtResult:
    """The largest nilpotent element (top of {y : y (.) y = 0}), if any."""
    return element_sqrt(A, zero_elem(A))


def sqrt_boolean(A: pmv.Algebra, b: Element) -> SqrtResult:
    """Root of an idempotent: b v sqrt(0), when sqrt(0) exists."""
    if not is_boolean_elem(b):
        raise ParameterError("sqrt_boolean needs an idempotent argument")
    r0 = sqrt_zero(A)
    if not r0.exists:
        return r0
    a = join(b, r0.value)
    check(odot(a, a) == b, "the Boolean root a has a (.) a == b")
    return _exists(a)


# ---------------------------------------------------------------------------
# total square root mappings


class SqrtMap(Record, uncompared=("mapping",)):
    algebra: pmv.Algebra
    mapping: dict[Element, Element]  # not compared, not hashed
    strict: bool
    r0: Element
    w: Element  # r(0)- (.) r(0)-


def sqrt_map(M: FiniteAlgebra) -> SqrtMap | None:
    """The total square root mapping of a finite algebra, or None.

    A chain M(n) has one only for n = 1, where k + n is even for every
    k > 0 (``ogroups.chain_root``), so a product of chains has one exactly
    when every chain has length 1.  It is then the identity: r(0) = 0 and
    w = 0- (.) 0- = 1, strict only on the one-element algebra.
    """
    if not isinstance(M, FiniteAlgebra):
        raise UnsupportedOperationError("total mappings are computed on finite algebras")
    if any(n != 1 for n in M.decomposition.lengths):
        return None
    zero, one = zero_elem(M), one_elem(M)
    return SqrtMap(M, {x: x for x in carrier(M)}, strict=(zero == one), r0=zero, w=one)


# ---------------------------------------------------------------------------
# greatest subalgebra with square roots


class GreatestSqrtResult(Record):
    quantifier: str
    stages: tuple[frozenset[Element], ...]
    subalgebra_flags: tuple[bool, ...]

    @property
    def fixpoint(self) -> frozenset[Element]:
        return self.stages[-1]

    @property
    def fixpoint_is_subalgebra(self) -> bool:
        return self.subalgebra_flags[-1]


def _next_chain_stage(n: int, stage: frozenset[int], quantifier: str) -> frozenset[int]:
    """One stage step on the chain M(n): k stays when its root is in the stage.

    The quantifiers differ only at 0: ``ambient`` takes the root floor(n/2)
    of M(n), ``relative`` the largest member of the stage that squares to 0
    (at most n/2), which exists whenever 0 is in the stage.
    """

    def root(k):
        if k == 0 and quantifier == "relative":
            return max(j for j in stage if 2 * j <= n)
        return og.chain_root(n, k)

    return frozenset(k for k in stage if root(k) in stage)


def _is_chain_subalgebra(n: int, stage: frozenset[int]) -> bool:
    """Whether a subset of M(n) holds 0 and 1 and is closed under n - x and
    min(x + y, n)."""
    return (
        {0, n} <= stage
        and all(n - x in stage for x in stage)
        and all(min(x + y, n) in stage for x in stage for y in stage)
    )


def greatest_sqrt_subalgebra(M: FiniteAlgebra, quantifier: str = "ambient") -> GreatestSqrtResult:
    """Iterate X_{n+1} = {x in X_n : sqrt(x) exists and sqrt(x) in X_n}.

    With the ``ambient`` quantifier, roots are taken in M itself; with the
    ``relative`` quantifier, both defining conditions are restricted to the
    current stage.  Iteration stops at the first fixpoint.

    Roots and both quantifiers act chain by chain, so every stage is the
    product of chain stages (``_next_chain_stage``), and it is a subalgebra
    exactly when each chain stage is one.
    """
    if quantifier not in ("ambient", "relative"):
        raise ParameterError("quantifier must be 'ambient' or 'relative'")
    if M.size == 1:
        raise ParameterError("the one-element algebra is excluded")
    dec = M.decomposition
    chains = [frozenset(range(n + 1)) for n in dec.lengths]
    size = M.size
    stages: list[frozenset[Element]] = []
    flags: list[bool] = []
    while True:
        chains = [_next_chain_stage(n, s, quantifier) for n, s in zip(dec.lengths, chains)]
        stages.append(frozenset(Element(M, dec.index[c]) for c in itertools.product(*chains)))
        flags.append(all(map(_is_chain_subalgebra, dec.lengths, chains)))
        # stages only shrink, so the first one of unchanged size is the fixpoint
        if len(stages[-1]) == size:
            break
        size = len(stages[-1])
    return GreatestSqrtResult(quantifier, tuple(stages), tuple(flags))
