"""Products and intervals find values by arithmetic, against the hashed index.

``FiniteAlgebra.member`` of a product combines its factors' carrier indices
by mixed radix, and of an interval maps its parent's index into the
interval; chains and library tables read the hashed ``index`` of every
carrier value.  The hashed lookup is kept here as the oracle,
``member_oracle``, and compared on drawn algebras of the descriptor
language: chains, nested products, intervals of products and products of
intervals of at most 64 elements.  The CLI lists finite sets by carrier
index, which is value order because every such carrier is listed in
ascending value order; that is checked on the same draws.
"""

import functools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvroots import dsl, pmv
from pmvroots.errors import CarrierError
from pmvroots.scalars import format_value


def member_oracle(A, value):
    """``member`` through the hashed index of every carrier value."""
    if isinstance(value, int):
        value = Fraction(value)
    index = {v: i for i, v in enumerate(A.values)}
    if value not in index:
        raise CarrierError(f"{format_value(value)} is not in the carrier")
    return index[value]


def outcome(member, A, value):
    try:
        return member(A, value)
    except CarrierError as exc:
        return str(exc)


@functools.cache
def parsed(text):
    return dsl.parse_algebra(text)


@st.composite
def algebra_texts(draw, limit=64, depth=3):
    """A finite algebra of at most ``limit`` elements, written in the DSL."""
    kinds = ["chain"] + ["interval"] * bool(depth) + ["prod"] * bool(depth and limit >= 4)
    kind = draw(st.sampled_from(kinds))
    if kind == "chain":
        return f"M({draw(st.integers(1, min(7, limit - 1)))})"
    if kind == "interval":
        parent = draw(algebra_texts(limit, depth - 1))
        b = draw(st.sampled_from(pmv.boolean_skeleton(parsed(parent))))
        return f"interval({parent},{pmv.format_element(b)})"
    factors = [draw(algebra_texts(limit // 2, depth - 1))]
    room = limit // parsed(factors[0]).size
    while room >= 2 and (len(factors) < 2 or draw(st.booleans())):
        factors.append(draw(algebra_texts(room, depth - 1)))
        room //= parsed(factors[-1]).size
    return f"prod({','.join(factors)})"


def spellings(value):
    """``value`` with its integral leaves as ints and bools and its dyadic
    leaves as floats, where those are equal to the leaf."""
    def spell(v, kind):
        if isinstance(v, tuple):
            return tuple(spell(c, kind) for c in v)
        if kind is bool:
            return bool(v) if v in (0, 1) else v
        if kind is int:
            return int(v) if v.denominator == 1 else v
        return float(v) if float(v) == v else v

    return [spell(value, kind) for kind in (int, bool, float)]


def non_members(value):
    """Values off a carrier that ``value`` is in: one leaf moved off every
    chain, the wrong length, the wrong shape."""
    if not isinstance(value, tuple):
        return [value + Fraction(1, 97), Fraction(2), -1, 0.3, (value,), (value, value), "x"]
    out = [value[:-1], value + (value[-1],), Fraction(1, 2), 2]
    for i, c in enumerate(value):
        for other in non_members(c)[:3]:
            out.append(value[:i] + (other,) + value[i + 1 :])
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(algebra_texts())
def test_member_by_arithmetic_matches_the_hashed_index(text):
    A = dsl.parse_algebra(text)
    assert A.size <= 64
    # the order that cli._sorted_values relies on
    assert list(A.values) == sorted(A.values)
    for i, v in enumerate(A.values):
        assert A.member(v) == i
        for w in spellings(v) + non_members(v)[:6]:
            assert outcome(pmv.FiniteAlgebra.member, A, w) == outcome(member_oracle, A, w), (text, w)


def test_the_draws_cover_every_construction():
    texts = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(algebra_texts())
    def collect(text):
        texts.append(text)

    collect()
    assert any(t.startswith("prod(prod(") or ",prod(" in t for t in texts)  # nested products
    assert any(t.startswith("interval(prod(") for t in texts)  # intervals of products
    assert any(t.startswith("prod(") and "interval(" in t for t in texts)  # products of intervals
    assert any(t.startswith("M(") for t in texts)


def test_parsing_an_interval_of_a_product_hashes_no_product_value(monkeypatch):
    products = []

    def recorded(factors):
        products.append(finite_product(factors))
        return products[-1]

    finite_product = pmv.finite_product
    monkeypatch.setattr(pmv, "finite_product", recorded)
    A = dsl.parse_algebra("interval(prod(M(7),M(7),M(3)),(1,1,0))")
    pmv.element_of(A, (Fraction(3, 7), Fraction(1), Fraction(0)))
    (P,) = products
    assert P._index is None and A._index is None
    # a chain keeps the index that its table constructor built
    assert pmv.finite_mv_chain(3)._index is not None


@pytest.mark.parametrize("text", ["prod(M(1),prod(M(2),M(1)))", "interval(prod(M(1),M(4)),(1,0))"])
def test_composed_algebras_pickle_with_their_lookup(text):
    A = dsl.parse_algebra(text)
    B = pickle.loads(pickle.dumps(A))
    assert B == A and [B.member(v) for v in A.values] == list(range(A.size))
