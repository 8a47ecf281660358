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
import sys
from fractions import Fraction

from .errors import DslError, ParameterError
from .records import Record


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
    stripped = text.strip()
    if not re.fullmatch(r"[+-]?\d+(/\d+)?", stripped):
        raise DslError(f"malformed rational {stripped!r}")
    reject_zero_denominators(text)
    return read_numeral(stripped)


def read_numeral(text: str, convert=Fraction):
    """A numeral that the caller has matched, read by ``convert``; one of
    more digits than CPython converts to an int raises ``ParameterError``."""
    try:
        return convert(text)
    except ValueError:  # the syntax was matched, so only the digit limit is left
        raise ParameterError(f"a numeral has more than {sys.get_int_max_str_digits()} digits") from None


# a rational whose denominator is zeros only; its digits start a run of
# digits, so a search tries each run once and stays linear in its length
_ZERO_DENOMINATOR = re.compile(r"[+-]?(?<!\d)\d+/0+(?!\d)")


def reject_zero_denominators(text: str) -> None:
    """Raise DslError at the 1-based column of the first rational over 0 in
    ``text``; whitespace is skipped, as the parsers skip it."""
    zero = _ZERO_DENOMINATOR.search("".join(text.split()))
    if zero:
        kept = [i for i, ch in enumerate(text) if not ch.isspace()]
        raise DslError(f"zero denominator in {zero.group()}", position=kept[zero.start()] + 1)


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_value(v) -> str:
    """A rational, a (nested) tuple of rationals such as a group payload, or a
    label, written as the DSL reads it: the one function that writes values
    in reports, error messages and the ledger."""
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, tuple):
        return "(" + ",".join(format_value(c) for c in v) + ")"
    return str(v)


def two_adic_valuation(n: int) -> int:
    if n == 0:
        raise ParameterError("0 has no 2-adic valuation")
    return (n & -n).bit_length() - 1


def odd_part(n: int) -> int:
    """Largest odd divisor of a positive integer."""
    if n <= 0:
        raise ParameterError("odd_part needs a positive integer")
    return n >> two_adic_valuation(n)


# the largest radicand that QuadValue.make accepts: its square-free test is
# trial division up to sqrt(d), about 2.6 ms near 10**9 on a shared 2-core
# virtual machine, and a radicand near 10**18 would take minutes
MAX_RADICAND = 10**9


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


class QuadValue(Record):
    """The real number ``a + b*sqrt(d)``, stored exactly.

    ``b == 0`` is normalised to ``d == 0`` so that equal numbers compare
    equal structurally.  For ``b != 0`` the radicand ``d`` must be a
    square-free integer ``>= 2``, which makes the representation unique
    and the value irrational.
    """

    a: Fraction
    b: Fraction
    d: int

    def __init__(self, a, b, d):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @staticmethod
    def make(a, b=0, d=0) -> "QuadValue":
        a = rational(a)
        b = rational(b)
        if b == 0:
            return QuadValue(a, Fraction(0), 0)
        if d < 2 or math.isqrt(d) ** 2 == d:
            raise ParameterError(f"radicand {d} must be a non-square >= 2")
        if d > MAX_RADICAND:
            raise ParameterError(f"radicand {d} is above the limit {MAX_RADICAND}")
        if not is_square_free(d):
            raise ParameterError(f"radicand {d} must be square-free")
        return QuadValue(a, b, d)

    @staticmethod
    def of(a: Fraction, b: Fraction, d: int) -> "QuadValue":
        """``a + b*sqrt(d)`` for rationals a, b and a radicand d that a value
        built by ``make`` carries, or 0, which is not checked again; b = 0
        is normalised to d = 0.  ``make`` is the entry point for input from
        outside."""
        return QuadValue(a, b, d) if b else QuadValue(a, b, 0)

    def _compatible(self, other: "QuadValue") -> int:
        if self.d and other.d and self.d != other.d:
            raise ParameterError(
                f"cannot combine radicands sqrt({self.d}) and sqrt({other.d})"
            )
        return self.d or other.d

    def __add__(self, other: "QuadValue") -> "QuadValue":
        d = self._compatible(other)
        return QuadValue.of(self.a + other.a, self.b + other.b, d)

    def __sub__(self, other: "QuadValue") -> "QuadValue":
        return self + (-other)

    def __neg__(self) -> "QuadValue":
        return QuadValue.of(-self.a, -self.b, self.d)

    def __mul__(self, other: "QuadValue") -> "QuadValue":
        d = self._compatible(other)
        return QuadValue.of(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    def scale(self, c) -> "QuadValue":
        c = rational(c)
        return QuadValue.of(self.a * c, self.b * c, self.d)

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
        """Exact floor, from an integer guess fixed up by exact sign tests.

        The guess adds floor(a) and +-floor(sqrt(b*b*d)), where the floor of
        sqrt(p/q) is isqrt(p*q) // q; it is off by at most one at any size.
        """
        m = self.b * self.b * self.d
        root = math.isqrt(m.numerator * m.denominator) // m.denominator
        guess = math.floor(self.a) + (root if self.b >= 0 else -root)
        while (self - QuadValue.make(guess + 1)).sign() >= 0:
            guess += 1
        while (self - QuadValue.make(guess)).sign() < 0:
            guess -= 1
        return guess

    def __str__(self) -> str:
        return format_quad(self)


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
    reject_zero_denominators(text)
    a = read_numeral(m.group("a")) if m.group("a") else Fraction(0)
    if m.group("b") is None:
        return QuadValue.make(a)
    if m.group("a") is not None and m.group("sign") is None:
        raise DslError(f"missing sign before radical part in {text!r}")
    b = read_numeral(m.group("b"))
    if m.group("sign") == "-":
        b = -b
    return QuadValue.make(a, b, read_numeral(m.group("d"), int))


def format_quad(x: QuadValue) -> str:
    if x.b == 0:
        return format_rational(x.a)
    radical = f"{format_rational(abs(x.b))}*sqrt({x.d})"
    if x.a == 0:
        return radical if x.b > 0 else f"-{radical}"
    joiner = "+" if x.b > 0 else "-"
    return f"{format_rational(x.a)}{joiner}{radical}"
