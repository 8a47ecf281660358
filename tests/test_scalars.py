"""Tests for exact scalar arithmetic: rationals, dyadics, and quadratic values."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvroots import scalars as S
from pmvroots.errors import DslError, ParameterError

Q = S.QuadValue.make


def small_fractions(max_num=30, max_den=12):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


SQUARE_FREE = [2, 3, 5, 6, 7, 10, 11, 13, 15]


# --- independent oracle for the sign of p + q*sqrt(d) ---------------------
#
# Sandwich sqrt(d) between integer-square-root bounds at increasing
# precision and evaluate the expression with exact Fraction endpoints.
# Since d is square-free and >= 2, sqrt(d) is irrational, so p + q*sqrt(d)
# is zero only when p == q == 0 and the interval always separates.


def sqrt_sandwich(d, prec):
    scale = 10**prec
    lo = math.isqrt(d * scale * scale)
    return Fraction(lo, scale), Fraction(lo + 1, scale)


def oracle_sign(p, q, d):
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return (q > 0) - (q < 0)
    prec = 2
    while prec <= 128:
        lo, hi = sqrt_sandwich(d, prec)
        ends = sorted((p + q * lo, p + q * hi))
        if ends[0] > 0:
            return 1
        if ends[1] < 0:
            return -1
        prec *= 2
    raise AssertionError("sandwich oracle failed to separate from zero")


def oracle_floor(p, q, d):
    if q == 0:
        return math.floor(p)
    prec = 2
    while prec <= 128:
        lo, hi = sqrt_sandwich(d, prec)
        ends = sorted((p + q * lo, p + q * hi))
        if math.floor(ends[0]) == math.floor(ends[1]):
            return math.floor(ends[0])
        prec *= 2
    raise AssertionError("sandwich oracle failed to pin the floor")


# --- rational helpers -----------------------------------------------------


def test_parse_format_rational_round_trip():
    for text in ("0", "1", "-3", "5/6", "-7/12", "100/64"):
        x = S.parse_rational(text)
        assert S.parse_rational(S.format_rational(x)) == x
    assert S.format_rational(Fraction(4, 8)) == "1/2"
    assert S.format_rational(Fraction(-6, 3)) == "-2"


def test_parse_rational_rejects_garbage():
    for text in ("", "1/0", "a/b", "1.5", "2/", "/3", "1 / 2x"):
        with pytest.raises(Exception):
            S.parse_rational(text)


@pytest.mark.parametrize(
    "parse, text, column",
    [
        (S.parse_rational, "1/0", 1),
        (S.parse_rational, " -7/000", 2),
        (S.parse_quad, "1/0", 1),
        (S.parse_quad, "1+1/0*sqrt(2)", 2),
        (S.parse_quad, "1/2 - 3/00*sqrt(2)", 5),
    ],
)
def test_a_zero_denominator_is_a_dsl_error_at_its_column(parse, text, column):
    with pytest.raises(DslError) as exc:
        parse(text)
    assert exc.value.position == column
    assert str(exc.value).startswith("zero denominator in ")
    assert S.parse_rational("10/20") == Fraction(1, 2)
    assert S.parse_quad("1/10+1/20*sqrt(2)") == S.QuadValue.make(Fraction(1, 10), Fraction(1, 20), 2)


def test_rational_coercion():
    assert S.rational(3) == Fraction(3)
    assert S.rational("5/6") == Fraction(5, 6)
    assert S.rational(Fraction(1, 2)) == Fraction(1, 2)


# --- dyadic helpers against brute-force oracles ----------------------------


def test_two_adic_valuation_oracle():
    for n in range(1, 400):
        v = 0
        m = n
        while m % 2 == 0:
            m //= 2
            v += 1
        assert S.two_adic_valuation(n) == v
        assert S.odd_part(n) == m
        assert n == m * 2**v


def test_is_square_free_oracle():
    for n in range(1, 300):
        expected = all(n % (k * k) != 0 for k in range(2, math.isqrt(n) + 1))
        assert S.is_square_free(n) == expected


# --- quadratic values -------------------------------------------------------


def test_quad_sign_matches_sandwich_oracle():
    rng = random.Random(17)
    for _ in range(1000):
        d = rng.choice(SQUARE_FREE)
        p = Fraction(rng.randint(-40, 40), rng.randint(1, 16))
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 16))
        x = Q(p, q, d) if q else Q(p)
        assert x.sign() == oracle_sign(p, q, d)


def test_quad_cmp_matches_sandwich_oracle():
    rng = random.Random(23)
    for _ in range(500):
        d = rng.choice(SQUARE_FREE)
        p1, q1, p2, q2 = (
            Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(4)
        )
        x, y = Q(p1, q1, d), Q(p2, q2, d)
        assert x.cmp(y) == oracle_sign(p1 - p2, q1 - q2, d)
        assert (x < y) == (oracle_sign(p1 - p2, q1 - q2, d) < 0)
        assert (x <= y) == (oracle_sign(p1 - p2, q1 - q2, d) <= 0)


def test_quad_floor_matches_sandwich_oracle():
    rng = random.Random(29)
    for _ in range(400):
        d = rng.choice(SQUARE_FREE)
        p = Fraction(rng.randint(-30, 30), rng.randint(1, 8))
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 8))
        x = Q(p, q, d) if q else Q(p)
        assert x.floor() == oracle_floor(p, q, d)


def test_quad_floor_is_exact_beyond_float_range():
    big = 10**400
    assert Q(big).floor() == big
    assert Q(Fraction(-2 * big - 1, 2)).floor() == -big - 1
    root = math.isqrt(2 * big * big)  # floor(10^400 * sqrt(2))
    assert Q(0, big, 2).floor() == root
    assert Q(0, -big, 2).floor() == -root - 1
    for x in (Q(big, Fraction(-big, 3), 7), Q(Fraction(big, 7), Fraction(big + 1, 5), 3)):
        n = x.floor()
        assert (x - Q(n)).sign() >= 0 and (Q(n + 1) - x).sign() > 0


def test_quad_specific_values():
    alpha = Q(Fraction(-1), Fraction(1), 2)  # sqrt(2) - 1
    assert alpha.sign() == 1
    assert alpha < Q(Fraction(1, 2))
    assert alpha * alpha == Q(Fraction(3), Fraction(-2), 2)
    golden = Q(Fraction(1, 2), Fraction(1, 2), 5)
    assert golden * golden == golden + Q(Fraction(1))


def test_quad_mixed_radicands_rejected():
    a = Q(Fraction(1), Fraction(1), 2)
    b = Q(Fraction(1), Fraction(1), 3)
    with pytest.raises(ParameterError):
        a + b
    with pytest.raises(ParameterError):
        a * b


def test_quad_rational_mixing():
    a = Q(Fraction(1, 2), Fraction(1, 3), 2)
    r = Q(Fraction(3, 4))
    assert a + r == Q(Fraction(5, 4), Fraction(1, 3), 2)
    assert a * r == Q(Fraction(3, 8), Fraction(1, 4), 2)
    assert r.is_rational() and not a.is_rational()
    assert Q(Fraction(1), Fraction(0), 2).is_rational()


def test_parse_format_quad_round_trip():
    for text in ("-1+1*sqrt(2)", "1/2-2/3*sqrt(5)", "3/4", "1*sqrt(7)", "-1*sqrt(3)"):
        x = S.parse_quad(text)
        assert S.parse_quad(S.format_quad(x)) == x


def test_parse_quad_rejects_garbage():
    for text in ("", "sqrt(2)+1", "1+sqrt(2)", "1+2*sqrt(4)", "1**sqrt(2)", "1+2*sqrt(-3)"):
        with pytest.raises(Exception):
            S.parse_quad(text)


@settings(max_examples=150, deadline=None)
@given(
    small_fractions(),
    small_fractions(),
    small_fractions(),
    small_fractions(),
    small_fractions(),
    small_fractions(),
    st.sampled_from(SQUARE_FREE),
)
def test_quad_ring_axioms(a1, b1, a2, b2, a3, b3, d):
    x, y, z = Q(a1, b1, d), Q(a2, b2, d), Q(a3, b3, d)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == Q(Fraction(0))
    assert x * Q(Fraction(1)) == x


@settings(max_examples=150, deadline=None)
@given(
    small_fractions(),
    small_fractions(),
    small_fractions(),
    small_fractions(),
    st.sampled_from(SQUARE_FREE),
)
def test_quad_order_compatible_with_ring(a1, b1, a2, b2, d):
    x, y = Q(a1, b1, d), Q(a2, b2, d)
    assert x.sign() * y.sign() == (x * y).sign()
    assert (x - y).sign() == x.cmp(y)
    assert x.scale(Fraction(2, 3)) == x * Q(Fraction(2, 3))
