"""Textual descriptor language for groups, algebras and elements.

Groups::

    Z/3   D/5   Q   quad(1/2*sqrt(2))   dquad(-1+1*sqrt(2))
    lex(Z/1,Z/1)   twist3(Z)   twist4(D)   prod(Z/2,D/3)

Algebras::

    M(3)   gamma(twist3(Z))   prod(M(1),M(4))   interval(prod(M(1),M(4)), (1,0))

A product of one factor, of groups or of algebras, is that factor, so its
elements are written as the factor's are.

Elements are rationals or (possibly nested) tuples of elements; a
parenthesized single element is just grouping.
"""

from __future__ import annotations

import re

from . import ogroups as og
from . import pmv
from .errors import DslError
from .scalars import Fraction, format_quad, parse_quad, read_numeral, reject_zero_denominators

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")
# the deepest nesting of parentheses accepted: parsing, and every recursive
# group and algebra operation after it, takes a few stack frames per level
MAX_DEPTH = 64


class _Cursor:
    def __init__(self, text: str):
        reject_zero_denominators(text)  # rationals and quadratic coefficients
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str, at: int | None = None):
        """Raise at the 0-based offset ``at`` (default: the cursor), reported 1-based."""
        raise DslError(message, position=(self.pos if at is None else at) + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def match(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.match(literal):
            self.error(f"expected {literal!r}")

    def open(self):
        """Enter one level of parentheses, at most ``MAX_DEPTH`` deep."""
        self.expect("(")
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"nesting deeper than {MAX_DEPTH} levels", at=self.pos - 1)

    def close(self):
        self.expect(")")
        self.depth -= 1

    def name(self) -> str:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            self.error("expected a name")
        self.pos = m.end()
        return m.group()

    def integer(self) -> int:
        self.skip_ws()
        m = re.compile(r"[+-]?\d+").match(self.text, self.pos)
        if not m:
            self.error("expected an integer")
        self.pos = m.end()
        return read_numeral(m.group(), int)

    def rational(self) -> Fraction:
        self.skip_ws()
        m = _RATIONAL_RE.match(self.text, self.pos)
        if not m:
            self.error("expected a rational number")
        self.pos = m.end()
        return read_numeral(m.group())

    def balanced(self) -> str:
        """The text of a parenthesized group, parentheses stripped."""
        self.expect("(")
        depth, start = 1, self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    inner = self.text[start : self.pos]
                    self.pos += 1
                    return inner
            self.pos += 1
        self.error("unbalanced parentheses")

    def done(self):
        if not self.eof():
            self.error("trailing input")


# ---------------------------------------------------------------------------
# groups


def _tag(cur: _Cursor) -> str:
    tag = cur.name()
    if tag not in og.SCALAR_TAGS:
        cur.error("expected a scalar tag Z, D or Q", at=cur.pos - len(tag))
    return tag


def _group(cur: _Cursor) -> og.GroupDescriptor:
    cur.skip_ws()
    head = cur.name()
    if head == "Z":
        cur.expect("/")
        return og.ScaledInt(cur.integer())
    if head == "D":
        cur.expect("/")
        return og.ScaledDyadic(cur.integer())
    if head == "Q":
        return og.Rationals()
    if head in ("quad", "dquad"):
        return og.QuadLattice(parse_quad(cur.balanced()), dyadic=head == "dquad")
    if head == "lex":
        cur.open()
        a = _group(cur)
        cur.expect(",")
        b = _group(cur)
        cur.close()
        return og.Lex(a, b)
    if head == "twist3" or head == "twist4":
        cur.open()
        tag = _tag(cur)
        cur.close()
        return og.Twist3(tag) if head == "twist3" else og.Twist4(tag)
    if head == "prod":
        cur.open()
        factors = [_group(cur)]
        while cur.match(","):
            factors.append(_group(cur))
        cur.close()
        return og.product_of(factors)
    cur.error(f"unknown group constructor {head!r}", at=cur.pos - len(head))


def parse_group(text: str) -> og.GroupDescriptor:
    cur = _Cursor(text)
    desc = _group(cur)
    cur.done()
    return desc


def format_group(desc: og.GroupDescriptor) -> str:
    if isinstance(desc, og.ScaledInt):
        return f"Z/{desc.n}"
    if isinstance(desc, og.ScaledDyadic):
        return f"D/{desc.q}"
    if isinstance(desc, og.Rationals):
        return "Q"
    if isinstance(desc, og.QuadLattice):
        return f"{'dquad' if desc.dyadic else 'quad'}({format_quad(desc.alpha)})"
    if isinstance(desc, og.Lex):
        return f"lex({format_group(desc.head)},{format_group(desc.tail)})"
    if isinstance(desc, og.Twist3):
        return f"twist3({desc.tag})"
    if isinstance(desc, og.Twist4):
        return f"twist4({desc.tag})"
    if isinstance(desc, og.ProductGroup):
        return f"prod({','.join(format_group(f) for f in desc.factors)})"
    raise DslError(f"no textual form for {desc!r}")


# ---------------------------------------------------------------------------
# elements


def _element_value(cur: _Cursor):
    if cur.peek() == "(":
        cur.open()
        items = [_element_value(cur)]
        while cur.match(","):
            items.append(_element_value(cur))
        cur.close()
        return items[0] if len(items) == 1 else tuple(items)
    return cur.rational()


def parse_element_value(text: str):
    """A rational or nested tuple of rationals, without algebra context."""
    cur = _Cursor(text)
    value = _element_value(cur)
    cur.done()
    return value


def parse_element(algebra: pmv.Algebra, text: str) -> pmv.Element:
    return pmv.element_of(algebra, parse_element_value(text))


# ---------------------------------------------------------------------------
# algebras


def _algebra(cur: _Cursor) -> pmv.Algebra:
    head = cur.name()
    if head == "M":
        cur.open()
        n = cur.integer()
        cur.close()
        return pmv.finite_mv_chain(n)
    if head == "gamma":
        cur.open()
        desc = _group(cur)
        cur.close()
        return pmv.GammaAlgebra(desc)
    if head == "prod":
        cur.open()
        factors = [_algebra(cur)]
        while cur.match(","):
            factors.append(_algebra(cur))
        cur.close()
        return factors[0] if len(factors) == 1 else pmv.product(factors)
    if head == "interval":
        cur.open()
        parent = _algebra(cur)
        cur.expect(",")
        b = pmv.element_of(parent, _element_value(cur))
        cur.close()
        return pmv.interval(parent, b)
    cur.error(f"unknown algebra constructor {head!r}", at=cur.pos - len(head))


def parse_algebra(text: str) -> pmv.Algebra:
    cur = _Cursor(text)
    algebra = _algebra(cur)
    cur.done()
    return algebra
