"""Exact scalar arithmetic.

Two scalar kinds are used throughout the package:

* arbitrary-precision rationals, represented by :class:`fractions.Fraction`
  (always in lowest terms, so equality and ordering are canonical), and
* real quadratic irrationals ``a + b*sqrt(d)`` with rational ``a``, ``b``
  and a square-free integer ``d >= 2``, represented by :class:`QuadValue`.

Ordering of quadratic values is decided exactly by a sign case analysis
that squares away the radical; no floating point is involved anywhere.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DslError, ParameterError

Rational = Fraction


def rational(value) -> Fraction:
    """Coerce an int, Fraction or ``p/q`` string to a canonical Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ParameterError(f"cannot interpret {format_value(value)} as a rational")


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not re.fullmatch(r"[+-]?\d+(/\d+)?", text):
        raise DslError(f"malformed rational {text!r}")
    return Fraction(text)


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_value(v) -> str:
    """A rational, a (nested) tuple of rationals or a label, as it is written."""
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, tuple):
        return "(" + ",".join(format_value(c) for c in v) + ")"
    return str(v)


def rat_cmp(x: Fraction, y: Fraction) -> int:
    return (x > y) - (x < y)


def rat_arith(op: str, x: Fraction, y: Fraction | None = None):
    """Dispatch table for the four primitive rational operations."""
    if op == "add":
        return x + y
    if op == "mul":
        return x * y
    if op == "neg":
        return -x
    if op == "cmp":
        return rat_cmp(x, y)
    raise ParameterError(f"unknown rational operation {op!r}")


def is_dyadic(x: Fraction) -> bool:
    """True when the denominator of ``x`` is a power of two."""
    d = x.denominator
    return d & (d - 1) == 0


def dyadic_exponent(x: Fraction) -> int:
    """Least ``k >= 0`` with ``x * 2**k`` integral; requires ``x`` dyadic."""
    if not is_dyadic(x):
        raise ParameterError(f"{x} is not a dyadic rational")
    return x.denominator.bit_length() - 1


def two_adic_valuation(n: int) -> int:
    if n == 0:
        raise ParameterError("0 has no 2-adic valuation")
    return (n & -n).bit_length() - 1


def odd_part(n: int) -> int:
    """Largest odd divisor of a positive integer."""
    if n <= 0:
        raise ParameterError("odd_part needs a positive integer")
    return n >> two_adic_valuation(n)


def is_square_free(n: int) -> bool:
    if n < 1:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1
    return True


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class QuadValue:
    """The real number ``a + b*sqrt(d)``, stored exactly.

    ``b == 0`` is normalised to ``d == 0`` so that equal numbers compare
    equal structurally.  For ``b != 0`` the radicand ``d`` must be a
    square-free integer ``>= 2``, which makes the representation unique
    and the value irrational.
    """

    a: Fraction
    b: Fraction
    d: int

    @staticmethod
    def make(a, b=0, d=0) -> "QuadValue":
        a = rational(a)
        b = rational(b)
        if b == 0:
            return QuadValue(a, Fraction(0), 0)
        if d < 2 or math.isqrt(d) ** 2 == d:
            raise ParameterError(f"radicand {d} must be a non-square >= 2")
        if not is_square_free(d):
            raise ParameterError(f"radicand {d} must be square-free")
        return QuadValue(a, b, d)

    def _compatible(self, other: "QuadValue") -> int:
        if self.d and other.d and self.d != other.d:
            raise ParameterError(
                f"cannot combine radicands sqrt({self.d}) and sqrt({other.d})"
            )
        return self.d or other.d

    def __add__(self, other: "QuadValue") -> "QuadValue":
        d = self._compatible(other)
        return QuadValue.make(self.a + other.a, self.b + other.b, d)

    def __sub__(self, other: "QuadValue") -> "QuadValue":
        return self + (-other)

    def __neg__(self) -> "QuadValue":
        return QuadValue.make(-self.a, -self.b, self.d)

    def __mul__(self, other: "QuadValue") -> "QuadValue":
        d = self._compatible(other)
        return QuadValue.make(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    def scale(self, c) -> "QuadValue":
        c = rational(c)
        return QuadValue.make(self.a * c, self.b * c, self.d)

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return _sign(a)
        if a == 0:
            return _sign(b)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Opposite signs: square both halves.  a^2 == b^2*d cannot happen
        # because sqrt(d) is irrational while -a/b is rational.
        t = _sign(a * a - b * b * self.d)
        return t if a > 0 else -t

    def cmp(self, other: "QuadValue") -> int:
        return (self - other).sign()

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    def is_rational(self) -> bool:
        return self.b == 0

    def floor(self) -> int:
        """Exact floor, found from a float hint and fixed up by exact sign tests."""
        guess = math.floor(self.to_float())
        while (self - QuadValue.make(guess + 1)).sign() >= 0:
            guess += 1
        while (self - QuadValue.make(guess)).sign() < 0:
            guess -= 1
        return guess

    def to_float(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __str__(self) -> str:
        return format_quad(self)


ZERO_QUAD = QuadValue(Fraction(0), Fraction(0), 0)

_QUAD_RE = re.compile(
    r"(?P<a>[+-]?\d+(?:/\d+)?)?"
    r"(?:(?P<sign>[+-])?(?P<b>\d+(?:/\d+)?)\*sqrt\((?P<d>\d+)\))?"
)


def parse_quad(text: str) -> QuadValue:
    """Parse ``a+b*sqrt(d)``; either part may be omitted."""
    stripped = text.replace(" ", "")
    m = _QUAD_RE.fullmatch(stripped)
    if not m or (m.group("a") is None and m.group("b") is None):
        raise DslError(f"malformed quadratic value {text!r}")
    a = Fraction(m.group("a")) if m.group("a") else Fraction(0)
    if m.group("b") is None:
        return QuadValue.make(a)
    if m.group("a") is not None and m.group("sign") is None:
        raise DslError(f"missing sign before radical part in {text!r}")
    b = Fraction(m.group("b"))
    if m.group("sign") == "-":
        b = -b
    return QuadValue.make(a, b, int(m.group("d")))


def format_quad(x: QuadValue) -> str:
    if x.b == 0:
        return format_rational(x.a)
    radical = f"{format_rational(abs(x.b))}*sqrt({x.d})"
    if x.a == 0:
        return radical if x.b > 0 else f"-{radical}"
    joiner = "+" if x.b > 0 else "-"
    return f"{format_rational(x.a)}{joiner}{radical}"
