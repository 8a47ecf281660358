"""The chain decomposition of finite algebras against the brute-force procedures.

``FiniteAlgebra`` finds the chains of its tables at construction, by index
arithmetic, and checks them with whole-row comparisons; that is its one
check of the tables.  Products, intervals and quotients compose their
chains from their operands' instead, and the constructor is their oracle:
given a composed algebra's tables it must build an equal algebra with
exactly the same decomposition.  The element operations compute on the
coordinates and are compared with their formulas in (+) and the negations.
The ideals, their flags, the prime partition, the splitting element, the
quotients, the roots and both quantifiers of ``greatest_sqrt_subalgebra``
read the decomposition, and the total square root mapping, the strict
square ideals and the w-split its chain lengths.  The procedures it
replaced are kept as oracles: the atomic decomposition through interval
tables, a product and a homomorphism check (``check_homomorphism`` of
``tests/test_pmv.py``); the ideal definition, the members found by the
order, and the normal, prime and Boolean scans; I1 and I2 by intersecting
the primes, and the splitting element by its definition, d(a, 1) in I1 and
a in I2; the least strict square and Boolean ideals by scanning the ideals,
and the w-split computed from the mapping by the ledger's
``worked_examples.w_split``; the congruence-class quotient; the root of
every element read chain by chain, ``finite_roots``, and the mapping built
from it; the exhaustive root search ``sqrt_element_finite``, its
restriction to a subset ``sqrt_in_subset`` and the element-level stage
iteration with its subalgebra scan; the cut of ``interval`` from the meet
table; and the cell-by-cell axiom check ``_verdict_cell_by_cell`` of
``tests/test_pmv.py``, which rejects every altered table that the
constructor rejects.  The oracles on tables read the derived tables of
``derived_tables_of``, built from (+) and the negations in the tests, not
``pmv``'s operations.
"""

import contextlib
import functools
import io
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvroots import cli, dsl, ideals, pmv, roots, worked_examples
from pmvroots import ogroups as og
from pmvroots.errors import ParameterError, UnsupportedOperationError
from pmvroots.scalars import format_value
from test_pmv import (
    _verdict_cell_by_cell,
    check_homomorphism,
    derived_tables_of,
    distance,
    ominus,
    operation_tables,
    tables_of,
)

M = pmv.finite_mv_chain


# --- oracles ---------------------------------------------------------------------


def chain_decomposition_oracle(A):
    """Atoms of the skeleton, each interval checked to be a chain, and the map
    into the product of the interval algebras checked to be an isomorphism."""
    if A.size == 1:
        return []
    skeleton = [x for x in pmv.boolean_skeleton(A) if x != pmv.zero_elem(A)]
    atoms = [b for b in skeleton if not any(c != b and pmv.leq(c, b) for c in skeleton)]
    top = pmv.zero_elem(A)
    for a in atoms:
        top = pmv.join(top, a)
    if top != pmv.one_elem(A):
        raise UnsupportedOperationError("skeleton atoms do not join to 1")
    for a, b in itertools.combinations(atoms, 2):
        if pmv.meet(a, b) != pmv.zero_elem(A):
            raise UnsupportedOperationError("skeleton atoms are not disjoint")
    out = []
    for a in atoms:
        below = [x for x in pmv.carrier(A) if pmv.leq(x, a)]
        for x, y in itertools.combinations(below, 2):
            if not (pmv.leq(x, y) or pmv.leq(y, x)):
                raise UnsupportedOperationError("an atomic interval is not totally ordered")
        out.append((a, len(below) - 1))
    factors = [pmv.interval(A, a) for a, _ in out]
    prod = pmv.finite_product(factors) if len(factors) > 1 else factors[0]
    mapping = {}
    for x in pmv.carrier(A):
        parts = [pmv.element_of(f, pmv.value_of(pmv.meet(x, a))) for f, (a, _) in zip(factors, out)]
        mapping[x] = (
            pmv.element_of(prod, tuple(pmv.value_of(p) for p in parts))
            if len(factors) > 1
            else parts[0]
        )
    ok, why = check_homomorphism(mapping, A, prod, require_injective=True)
    if not ok or len(set(mapping.values())) != prod.size:
        raise UnsupportedOperationError(f"atomic decomposition failed: {why}")
    return out


def is_ideal(A, members):
    """``members`` (carrier indices) contains 0 and is downward and (+)-closed."""
    if A.zero_i not in members:
        return False
    _, jo, _ = derived_tables_of(A)
    for x in members:
        for y in range(A.size):
            if jo[y][x] == x and y not in members:
                return False
        for y in members:
            if A.oplus(x, y) not in members:
                return False
    return True


def ideal_flags_oracle(A, members):
    """(normal, prime, Boolean) of an ideal (carrier indices), by scanning the
    carrier: the scans ``enumerate_ideals`` ran on elements, on the tables."""
    (op, ln, _), elems = tables_of(A), range(A.size)
    _, _, me = derived_tables_of(A)
    normal = all({op[x][i] for i in members} == {op[i][x] for i in members} for x in elems)
    prime = all(
        me[x][y] not in members or x in members or y in members
        for x, y in itertools.combinations(elems, 2)
    )
    boolean_ideal = all(me[x][ln[x]] in members for x in elems)
    return normal, prime, boolean_ideal


def members_oracle(A, b):
    """The members of [0, b]: the elements below b, by a scan of the carrier."""
    return frozenset(x for x in pmv.carrier(A) if pmv.leq(x, b))


def partition_oracle(A):
    """The tops of the proper primes whose quotient is Boolean (X1) and of
    the others (X2), in carrier order, and I1 and I2, the intersections of
    each class's members (the full carrier when the class is empty).  Every
    ideal is [0, b] for an idempotent b of the table, and its flags are
    those of ``ideal_flags_oracle``."""
    full = frozenset(pmv.carrier(A))
    x1, x2 = {}, {}
    for b in pmv.carrier(A):
        if A.oplus(b.payload, b.payload) != b.payload:
            continue
        members = members_oracle(A, b)
        _, prime, boolean = ideal_flags_oracle(A, {x.payload for x in members})
        if prime and members != full:
            (x1 if boolean else x2)[b] = members
    i1 = frozenset.intersection(full, *x1.values())
    i2 = frozenset.intersection(full, *x2.values())
    return list(x1), list(x2), i1, i2


def splitting_oracle(A, i1, i2):
    """Every a that maps to (1 mod I1, 0 mod I2): d(a, 1) in I1 and a in I2."""
    one = pmv.one_elem(A)
    return [a for a in pmv.carrier(A) if distance(a, one) in i1 and a in i2]


def least_ideals_oracle(A):
    """The tops of the least strict square ideal and of the least Boolean
    ideal of an algebra with a total square root mapping, and whether the
    members of each equal I1 and I2 of ``partition_oracle``: every ideal is
    [0, b] for an idempotent b of the table, the strict square ones are
    those that contain w, the Boolean ones are flagged by
    ``ideal_flags_oracle``, and each least one is below all of its kind."""
    w = roots.sqrt_map(A).w
    found = {
        b: members_oracle(A, b) for b in pmv.carrier(A) if A.oplus(b.payload, b.payload) == b.payload
    }
    strict = {b: m for b, m in found.items() if w in m}
    boolean = {b: m for b, m in found.items() if ideal_flags_oracle(A, {x.payload for x in m})[2]}
    (least_strict,) = [b for b, m in strict.items() if all(m <= n for n in strict.values())]
    (least_boolean,) = [b for b, m in boolean.items() if all(m <= n for n in boolean.values())]
    _, _, i1, i2 = partition_oracle(A)
    return least_strict, least_boolean, i1 == found[least_boolean], i2 == found[least_strict]


def interval_oracle(A, b):
    """[0, b] cut from the tables: the carrier indices x with x v b == b, in
    carrier order, with (+) and both negations met with b."""
    _, jo, me = derived_tables_of(A)
    bm = b.payload
    keep = [i for i in range(A.size) if jo[i][bm] == bm]
    pos = {i: k for k, i in enumerate(keep)}
    op, ln, rn = tables_of(A)
    return pmv.FiniteAlgebra(
        [A.values[i] for i in keep],
        [[pos[me[op[i][j]][bm]] for j in keep] for i in keep],
        [pos[me[ln[i]][bm]] for i in keep],
        [pos[me[rn[i]][bm]] for i in keep],
        pos[A.zero_i],
        pos[bm],
    )


def sqrt_in_subset(A, x, allowed):
    """The defining conditions of a root with both quantifiers restricted to
    ``allowed``: a candidate a in it with a (.) a == x that dominates every y
    in it with y (.) y <= x."""
    dominated = [y for y in allowed if pmv.leq(pmv.odot(y, y), x)]
    candidates = [a for a in allowed if pmv.odot(a, a) == x]
    for a in candidates:
        if all(pmv.leq(y, a) for y in dominated):
            return roots.SqrtResult("exists", value=a)
    if not candidates:
        return roots.SqrtResult("not_exists", reason=og.NO_CANDIDATE)
    return roots.SqrtResult("not_exists", reason=roots.SQ2_VIOLATED)


def finite_roots(A):
    """The square root of every carrier element, in carrier order; None
    where there is none, read off the chain decomposition coordinate by
    coordinate with the closed form of one chain, ``roots._chain_root``."""
    dec = A.decomposition
    per_chain = [[roots._chain_root(n, k) for k in range(n + 1)] for n in dec.lengths]
    out = []
    for c in dec.coords:
        r = tuple(roots_in[k] for roots_in, k in zip(per_chain, c))
        out.append(None if None in r else pmv.Element(A, dec.index[r]))
    return out


def sqrt_map_oracle(A):
    """The total square root mapping built from the root of every element,
    or None when some element has none; r0 = r(0) and w = r0- (.) r0-."""
    found = finite_roots(A)
    if None in found:
        return None
    mapping = dict(zip(pmv.carrier(A), found))
    r0 = mapping[pmv.zero_elem(A)]
    w = pmv.odot(pmv.lneg(r0), pmv.lneg(r0))
    return roots.SqrtMap(A, mapping, strict=(r0 == pmv.lneg(r0)), r0=r0, w=w)


def assert_sqrt_map_matches_the_oracle(A):
    smap, expected = roots.sqrt_map(A), sqrt_map_oracle(A)
    assert smap == expected  # the mapping is not compared by SqrtMap's equality
    assert smap is None or smap.mapping == expected.mapping


def is_subalgebra(A, subset):
    """``subset`` holds 0 and 1 and is closed under both negations and (+)."""
    if pmv.zero_elem(A) not in subset or pmv.one_elem(A) not in subset:
        return False
    for x in subset:
        if pmv.lneg(x) not in subset or pmv.rneg(x) not in subset:
            return False
        for y in subset:
            if pmv.oplus(x, y) not in subset:
                return False
    return True


def greatest_oracle(A, quantifier):
    """The stage iteration of greatest_sqrt_subalgebra on elements, with the
    subalgebra scan of each stage: roots are searched in A (ambient) or in
    the current stage (relative)."""
    full = frozenset(pmv.carrier(A))
    ambient = {x: sqrt_in_subset(A, x, full) for x in full} if quantifier == "ambient" else None
    current, stages = full, []
    while True:
        found = ambient or {x: sqrt_in_subset(A, x, current) for x in current}
        nxt = frozenset(x for x in current if found[x].exists and found[x].value in current)
        stages.append(nxt)
        if nxt == current:
            return stages, [is_subalgebra(A, s) for s in stages]
        current = nxt


def quotient_oracle(A, members):
    """The quotient by congruence classes: x ~ y when both one-sided
    differences lie in the ideal; each class is represented by its first
    element, the tables are rebuilt from the representatives and the
    projection is checked to be a homomorphism."""
    classes, where = [], {}
    for x in pmv.carrier(A):
        for k, cls in enumerate(classes):
            if ominus(x, cls[0]) in members and ominus(cls[0], x) in members:
                cls.append(x)
                where[x] = k
                break
        else:
            where[x] = len(classes)
            classes.append([x])
    reps = [cls[0] for cls in classes]
    Q = pmv.FiniteAlgebra(
        [f"[{format_value(pmv.value_of(r))}]" for r in reps],
        [[where[pmv.oplus(a, b)] for b in reps] for a in reps],
        [where[pmv.lneg(a)] for a in reps],
        [where[pmv.rneg(a)] for a in reps],
        where[pmv.zero_elem(A)],
        where[pmv.one_elem(A)],
    )
    projection = {x: pmv.Element(Q, where[x]) for x in pmv.carrier(A)}
    ok, why = check_homomorphism(projection, A, Q)
    if not ok:
        raise ParameterError(f"not a congruence: {why}")
    return Q, projection


# --- presentations -----------------------------------------------------------------


def ordered_chain_products(limit):
    """Every tuple of chain lengths whose product has at most ``limit`` elements."""
    yield ()
    for n in range(1, limit):
        for rest in ordered_chain_products(limit // (n + 1)):
            yield (n,) + rest


ORDERED = [t for t in ordered_chain_products(64) if t]


@functools.lru_cache(maxsize=None)
def product_of(lengths):
    return pmv.finite_product([M(n) for n in lengths])


def test_ordered_products_cover_every_product_up_to_64():
    assert len(ORDERED) == 440
    assert max(product_of(t).size for t in ORDERED) == 64


def other_presentations():
    """Nested products, interval(...) cuts and quotients by ideals."""
    out = {
        text: dsl.parse_algebra(text)
        for text in (
            "prod(prod(M(1),M(1)),M(2))",
            "prod(M(1),prod(M(2),M(1)))",
            "prod(prod(M(2),M(1)),prod(M(1),M(2)))",
            "interval(prod(M(1),M(4)),(1,0))",
            "interval(prod(M(2),M(3)),(0,1))",
            "interval(prod(M(1),M(1),M(3)),(1,0,1))",
            "interval(prod(prod(M(2),M(1)),M(5)),((1,0),1))",
            "interval(M(6),1)",
        )
    }
    for lengths in ((2, 3), (1, 1, 2), (3, 1, 4), (1, 1, 1, 1)):
        P = product_of(lengths)
        for info in ideals.enumerate_ideals(P):
            if info.is_proper:
                Q, _ = ideals.quotient(P, info.members)
                out[f"{lengths} / [0,{info.top}]"] = Q
    return out


OTHERS = other_presentations()
CASES = [pytest.param(product_of(t), id=str(t)) for t in ORDERED] + [
    pytest.param(A, id=name) for name, A in OTHERS.items()
]


# --- differential tests ------------------------------------------------------------


def assert_composed_matches_checked(A):
    """The table constructor, given the tables derived from a composed
    algebra, builds an equal algebra, and ``pmv._decompose`` finds exactly
    the composed decomposition in them: atoms, lengths, coords and index."""
    tables = (*tables_of(A), A.zero_i, A.one_i)
    checked = pmv.FiniteAlgebra(A.values, *tables)
    assert checked == A and hash(checked) == hash(A)
    assert pmv._decompose(*tables) == A.decomposition
    # the given tables are not kept; the derived ones equal them
    assert tables_of(checked) == tables[:3]


@pytest.mark.parametrize("A", CASES)
def test_decomposition_matches_the_atomic_procedure(A):
    assert pmv.chain_decomposition(A) == chain_decomposition_oracle(A)
    dec = A.decomposition
    assert [dec.index[c] for c in dec.coords] == list(range(A.size))
    assert_composed_matches_checked(A)


# every 20th ordered product and every other presentation
FORMULA_CASES = CASES[: len(ORDERED) : 20] + CASES[len(ORDERED) :]


def test_formula_cases_hold_at_least_20_algebras():
    assert len(FORMULA_CASES) >= 20


@pytest.mark.parametrize("A", FORMULA_CASES)
def test_coordinate_operations_match_the_table_formulas(A):
    # x (.) y = (y- (+) x-)~, x v y = x (+) (x~ (.) y), x ^ y = x (.) (x- (+) y),
    # x <= y exactly when x- (+) y = 1, and x idempotent when x (+) x = x
    op, ln, rn = tables_of(A)
    elems, rng = pmv.carrier(A), range(A.size)
    assert operation_tables(A) == derived_tables_of(A)
    assert [[pmv.oplus(x, y).payload for y in elems] for x in elems] == [list(row) for row in op]
    assert [pmv.lneg(x).payload for x in elems] == list(ln)
    assert [pmv.rneg(x).payload for x in elems] == list(rn)
    assert [[pmv.leq(x, y) for y in elems] for x in elems] == [
        [op[ln[i]][j] == A.one_i for j in rng] for i in rng
    ]
    assert [pmv.is_boolean_elem(x) for x in elems] == [op[i][i] == i for i in rng]


def test_coordinates_of_a_product_are_its_factor_values():
    # in itertools.product order a later factor's atom comes first
    for lengths in ORDERED:
        A = product_of(lengths)
        dec = A.decomposition
        assert dec.lengths == lengths[::-1]
        assert dec.coords == tuple(
            tuple(v * n for v, n in zip(value[::-1], lengths[::-1])) for value in A.values
        )


@pytest.mark.parametrize("A", [pytest.param(A, id=name) for name, A in OTHERS.items()])
def test_coordinates_are_ranks_in_the_atomic_chains(A):
    dec = A.decomposition
    _, jo, me = derived_tables_of(A)
    for x, c in enumerate(dec.coords):
        for atom, k in zip(dec.atoms, c):
            m = me[x][atom]
            assert k == sum(jo[y][m] == m for y in range(A.size)) - 1


@pytest.mark.parametrize("A", CASES)
def test_interval_by_coordinates_matches_the_table_cut(A):
    for b in pmv.boolean_skeleton(A):
        assert pmv.interval(A, b) == interval_oracle(A, b), pmv.value_of(b)


@pytest.mark.parametrize("A", CASES)
def test_ideal_flags_match_the_scans(A):
    smap = roots.sqrt_map(A)
    for info in ideals.enumerate_ideals(A):
        assert info.members == members_oracle(A, info.top)
        members = {x.payload for x in info.members}
        assert is_ideal(A, members)
        flags = (info.is_normal, info.is_prime, info.is_boolean_ideal)
        assert flags == ideal_flags_oracle(A, members), pmv.value_of(info.top)
        # strict square ideals are those that contain w
        strict = pmv.leq(smap.w, info.top) if smap is not None else None
        assert info.is_strict_square_ideal == strict, pmv.value_of(info.top)


@pytest.mark.parametrize("A", CASES)
def test_prime_partition_and_splitting_element_match_the_scans(A):
    x1, x2, i1, i2 = partition_oracle(A)
    part = ideals.partition_primes(A)
    assert [p.top for p in part.x1] == x1 and [p.top for p in part.x2] == x2
    primes = ideals.normal_primes(A)
    assert [p.top for p in primes] == sorted(x1 + x2, key=lambda b: b.payload)
    assert all(p.members == members_oracle(A, p.top) for p in primes)
    assert (part.i1, part.i2) == (i1, i2)
    assert ideals.is_bsi(A) == (i2 == frozenset({pmv.zero_elem(A)}))
    # the splitting element exists, is unique and idempotent, and splits
    # both intersections: I2 = [0, a] and I1 = [0, a-]
    found = splitting_oracle(A, i1, i2)
    assert found == [ideals.nn12_element(A)]
    a = found[0]
    assert A.oplus(a.payload, a.payload) == a.payload
    assert i2 == members_oracle(A, a) and i1 == members_oracle(A, pmv.lneg(a))


@pytest.mark.parametrize("A", CASES)
def test_closed_form_roots_match_the_search(A):
    found = {x: roots.sqrt_element_finite(A, x) for x in pmv.carrier(A)}
    # no root of a chain product fails by Sq2 alone: each negative answer
    # says that no a has a (.) a == x
    assert all(r.exists or r.reason == og.NO_CANDIDATE for r in found.values())
    expected = [r.value if r.exists else None for r in found.values()]
    assert finite_roots(A) == expected
    assert all(roots.element_sqrt(A, x) == r for x, r in found.items())
    assert roots.sqrt_zero(A).value == found[pmv.zero_elem(A)].value
    assert_sqrt_map_matches_the_oracle(A)


def test_sqrt_in_subset_detects_domination_failure():
    # In M1 x M2 the root of (1, 0) is (1, 1/2); with that element removed
    # the candidate (1, 0) remains but no longer dominates (0, 1/2).
    A = product_of((1, 2))
    allowed = frozenset(
        pmv.element_of(A, v)
        for v in (
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1), Fraction(0)),
        )
    )
    x = pmv.element_of(A, (Fraction(1), Fraction(0)))
    r = sqrt_in_subset(A, x, allowed)
    assert r.status == "not_exists"
    assert r.reason == roots.SQ2_VIOLATED
    # restricting to a chain never trips the domination clause
    C = M(4)
    chain_allowed = frozenset(
        pmv.element_of(C, v) for v in (Fraction(0), Fraction(1, 4), Fraction(1))
    )
    rc = sqrt_in_subset(C, pmv.element_of(C, Fraction(0)), chain_allowed)
    assert rc.status == "exists"
    assert pmv.value_of(rc.value) == Fraction(1, 4)


@pytest.mark.parametrize("A", CASES)
@pytest.mark.parametrize("quantifier", ["ambient", "relative"])
def test_greatest_chain_by_chain_matches_the_element_iteration(A, quantifier):
    res = roots.greatest_sqrt_subalgebra(A, quantifier)
    stages, flags = greatest_oracle(A, quantifier)
    assert list(res.stages) == stages
    assert list(res.subalgebra_flags) == flags


def test_chain_subalgebra_flag_matches_the_scan_on_every_subset():
    # the stages the iteration reaches are closed under (+) whenever they
    # are closed under negation, so the flag is checked on every subset
    for n in range(1, 7):
        A = M(n)
        for bits in itertools.product((False, True), repeat=n + 1):
            stage = frozenset(k for k, b in enumerate(bits) if b)
            subset = frozenset(pmv.Element(A, k) for k in stage)
            assert roots._is_chain_subalgebra(n, stage) == is_subalgebra(A, subset), (n, stage)


QUOTIENT_CASES = [t for t in ORDERED if product_of(t).size <= 32]


def test_quotient_cases_hold_766_ideals():
    assert len(QUOTIENT_CASES) == 135
    assert sum(len(ideals.enumerate_ideals(product_of(t))) for t in QUOTIENT_CASES) == 766


@pytest.mark.parametrize("lengths", QUOTIENT_CASES, ids=str)
def test_quotient_by_coordinates_matches_the_congruence_classes(lengths):
    A = product_of(lengths)
    for info in ideals.enumerate_ideals(A):
        Q, projection = ideals.quotient(A, info.members)
        Q_oracle, projection_oracle = quotient_oracle(A, info.members)
        assert Q == Q_oracle
        assert projection == projection_oracle
        assert_composed_matches_checked(Q)


def counted_calls(monkeypatch, function):
    """Wrap ``function`` under every name that a package module binds it
    to; the returned list gets the arguments of each call."""
    calls = []

    def counted(*args):
        calls.append(args)
        return function(*args)

    for module in (cli, dsl, ideals, pmv, roots, worked_examples):
        for name in [name for name, value in vars(module).items() if value is function]:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_table_built_and_composed_algebras_have_one_state():
    n = 5
    oplus_t = tuple(tuple(min(i + j, n) for j in range(n + 1)) for i in range(n + 1))
    neg = tuple(n - i for i in range(n + 1))
    built = pmv.FiniteAlgebra([Fraction(k, n) for k in range(n + 1)], oplus_t, neg, neg, 0, n)
    for composed in (pmv.finite_product([built, M(2)]), pmv.interval(built, pmv.one_elem(built))):
        assert vars(built).keys() == vars(composed).keys()
    assert tables_of(built) == (oplus_t, neg, neg)


def test_composed_algebras_build_no_table_and_only_chains_are_decomposed(monkeypatch):
    decompose, compose, init = pmv._decompose, pmv.compose, pmv.FiniteAlgebra.__init__
    decomposed, composed, built = [], [], []

    def counted(oplus, *tables):
        decomposed.append(len(oplus))
        return decompose(oplus, *tables)

    def recorded(*args):
        composed.append(compose(*args))
        return composed[-1]

    def from_tables(A, *args):
        init(A, *args)
        built.append(A)

    monkeypatch.setattr(pmv, "_decompose", counted)
    monkeypatch.setattr(pmv, "compose", recorded)
    monkeypatch.setattr(ideals, "compose", recorded)
    monkeypatch.setattr(pmv.FiniteAlgebra, "__init__", from_tables)
    cut = "interval(prod(M(7),M(7),M(3)),(1,1,0))"
    dsl.parse_algebra(cut)
    # once per chain M(n); the product and the interval are composed
    assert decomposed == [8, 8, 4]
    for target in ("prod(M(2),M(3))", cut):
        for verb, *flags in (["ideals"], ["sqrtmap"], ["greatest"], ["analyze"], ["closure", "--kind", "sqrt"]):
            with contextlib.redirect_stdout(io.StringIO()):
                # 0 and 1 are answers ("ok", "absent"); 2 and 3 are errors
                assert cli.main([verb, target, *flags]) in (0, 1), (verb, target)
    assert len(composed) > 2 and len(built) > 2
    for A in composed + built:  # no table is kept: the state is every algebra's
        assert vars(A).keys() == vars(M(1)).keys(), A


BOOLEAN = [product_of((1,) * k) for k in range(1, 7)] + [
    dsl.parse_algebra(text)
    for text in (
        "prod(prod(M(1),M(1)),M(1))",
        "prod(M(1),prod(M(1),M(1)))",
        "prod(prod(M(1),M(1)),prod(M(1),M(1)))",
        "prod(prod(M(1),prod(M(1),M(1))),prod(M(1),M(1),M(1)))",
    )
]


def assert_root_map_ideals_match_the_oracles(A):
    r = ideals.root_map_ideals(A)
    assert (r.least_strict_top, r.least_boolean_top, r.i1_equals_least_boolean, r.i2_equals_least_strict) == (
        least_ideals_oracle(A)
    )
    assert r.strict_map == roots.sqrt_map(A).strict
    B, S, _, flags = worked_examples.w_split(A)
    assert r.w_split == ideals.WSplit(B.size, S.size, *flags)


@pytest.mark.parametrize("A", BOOLEAN, ids=lambda A: f"{A.size} elements, top {format_value(A.values[-1])}")
def test_root_map_ideals_match_the_oracles(A):
    assert_root_map_ideals_match_the_oracles(A)


@pytest.mark.parametrize("A", CASES)
def test_root_map_ideals_need_a_total_mapping(A):
    # only Boolean algebras, some of the quotients among them, have one
    if roots.sqrt_map(A) is None:
        with pytest.raises(UnsupportedOperationError):
            ideals.root_map_ideals(A)
    else:
        assert_root_map_ideals_match_the_oracles(A)


@pytest.mark.parametrize("A", BOOLEAN, ids=lambda A: f"{A.size} elements, top {format_value(A.values[-1])}")
def test_w_split_is_an_isomorphism(A):
    B, S, mapping, flags = worked_examples.w_split(A)
    P = pmv.finite_product([B, S])
    ok, why = check_homomorphism(mapping, A, P, require_injective=True)
    assert ok, why
    assert len(set(mapping.values())) == P.size
    assert all(flags)


def test_the_boolean_ideals_verb_computes_no_mapping_and_enumerates_once(monkeypatch):
    # on a Boolean algebra the strict square ideals and the w-split are read
    # off the chain lengths: no mapping, no second enumeration, no interval;
    # I1 and I2 come from the splitting element, so their members are not listed
    functions = (roots.sqrt_map, ideals.enumerate_ideals, pmv.interval, ideals._intersections)
    calls = {f: counted_calls(monkeypatch, f) for f in functions}
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["ideals", "prod(M(1),M(1),M(1))"]) == 0
    assert [len(c) for c in calls.values()] == [0, 1, 0, 0]


def altered(A, kind, cell, value):
    """The tables of ``A`` with one entry of (+) or of a negation replaced, as
    the constructor takes them: (+), both negations, 0 and 1."""
    oplus, lneg, rneg = tables_of(A)
    op = [list(row) for row in oplus]
    ln, rn = list(lneg), list(rneg)
    if kind == "oplus":
        op[cell[0]][cell[1]] = value
    else:
        (ln if kind == "lneg" else rn)[cell[0]] = value
    return op, ln, rn, A.zero_i, A.one_i


def every_alteration(A):
    n = A.size
    op, ln, rn = tables_of(A)
    for x, y in itertools.product(range(n), repeat=2):
        for v in range(n):
            if v != op[x][y]:
                yield "oplus", (x, y), v
    for kind, table in (("lneg", ln), ("rneg", rn)):
        for x in range(n):
            for v in range(n):
                if v != table[x]:
                    yield kind, (x,), v


def assert_rejected(values, tables):
    """The constructor and the cell-by-cell axiom oracle both reject."""
    assert isinstance(_verdict_cell_by_cell(*tables), str)
    with pytest.raises(ParameterError, match="^the tables are not a product of chains: "):
        pmv.FiniteAlgebra(values, *tables)


# every chain product of at most 12 elements, once up to isomorphism
SMALL = [t for t in ORDERED if product_of(t).size <= 12 and list(t) == sorted(t)]


def test_small_products_are_every_chain_product_up_to_12():
    assert len(SMALL) == 20


@pytest.mark.parametrize("lengths", SMALL, ids=str)
def test_every_altered_cell_is_not_a_chain_product(lengths):
    A = product_of(lengths)
    for kind, cell, value in every_alteration(A):
        assert_rejected(A.values, altered(A, kind, cell, value))


@pytest.mark.parametrize("lengths", [t for t in ORDERED if product_of(t).size <= 12], ids=str)
def test_a_misplaced_zero_or_one_is_not_a_chain_product(lengths):
    A = product_of(lengths)
    for x in range(A.size):
        for zero, one in ((x, A.one_i), (A.zero_i, x)):
            if (zero, one) != (A.zero_i, A.one_i):
                assert_rejected(A.values, (*tables_of(A), zero, one))


# --- property test -----------------------------------------------------------------


@st.composite
def relabelled(draw, presentations=ORDERED):
    """A chain product of at most 64 elements, its carrier permuted."""
    lengths = draw(st.sampled_from(presentations))
    A = product_of(lengths)
    perm = draw(st.permutations(range(A.size)))  # old index -> new index
    inv = [0] * A.size
    for old, new in enumerate(perm):
        inv[new] = old
    op, ln, rn = tables_of(A)
    B = pmv.FiniteAlgebra(
        [A.values[inv[i]] for i in range(A.size)],
        [[perm[op[inv[i]][inv[j]]] for j in range(A.size)] for i in range(A.size)],
        [perm[ln[inv[i]]] for i in range(A.size)],
        [perm[rn[inv[i]]] for i in range(A.size)],
        perm[A.zero_i],
        perm[A.one_i],
    )
    return lengths, B


@settings(max_examples=150, deadline=2000)
@given(relabelled(), st.data())
def test_relabelled_products_decompose_and_altered_ones_do_not(case, data):
    lengths, B = case
    assert pmv.chain_lengths(B) == sorted(lengths)
    n = B.size
    kind = data.draw(st.sampled_from(["oplus", "lneg", "rneg"]))
    cell = tuple(data.draw(st.integers(0, n - 1)) for _ in range(2 if kind == "oplus" else 1))
    old = getattr(B, kind)(*cell)
    value = data.draw(st.integers(0, n - 1).filter(lambda v: v != old))
    assert_rejected(B.values, altered(B, kind, cell, value))


# Boolean algebras are the only chain products with a total mapping; they
# are 6 of the 440 presentations, so they are drawn on their own too
BOOLEAN_LENGTHS = [t for t in ORDERED if set(t) == {1}]


@settings(max_examples=200, deadline=2000, derandomize=True)
@given(st.one_of(relabelled(), relabelled(BOOLEAN_LENGTHS)))
def test_sqrt_map_matches_the_oracle_on_drawn_chain_products(case):
    _, B = case
    assert_sqrt_map_matches_the_oracle(B)


def test_sqrt_map_of_the_one_element_algebra_is_strict():
    A = M(1)
    O = pmv.interval(A, pmv.zero_elem(A))
    assert O.size == 1
    assert_sqrt_map_matches_the_oracle(O)
    assert roots.sqrt_map(O).strict
