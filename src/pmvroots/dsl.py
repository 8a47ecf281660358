"""Textual descriptor language for groups, algebras, elements and commands.

Groups::

    Z/3   D/5   Q   quad(1/2*sqrt(2))   dquad(-1+1*sqrt(2))
    lex(Z/1,Z/1)   twist3(Z)   twist4(D)   prod(Z/2,D/3)

Algebras::

    M(3)   gamma(twist3(Z))   prod(M(1),M(4))   interval(prod(M(1),M(4)), (1,0))

Elements are rationals or (possibly nested) tuples of elements; a
parenthesized single element is just grouping.  Commands are a verb, a
target expression, element arguments and ``--flag`` options, split on
top-level whitespace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import ogroups as og
from . import pmv
from .errors import DslError
from .scalars import Fraction, format_quad, format_value, parse_quad

VERBS = (
    "analyze",
    "sqrt",
    "sqrtmap",
    "ideals",
    "closure",
    "member",
    "decompose",
    "greatest",
    "verify-paper",
)

# flag name -> takes a value
FLAGS = {
    "kind": True,
    "quantifier": True,
    "bound": True,
    "json": False,
    "approx": False,
}

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

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
        return int(m.group())

    def rational(self) -> Fraction:
        self.skip_ws()
        m = _RATIONAL_RE.match(self.text, self.pos)
        if not m:
            self.error("expected a rational number")
        self.pos = m.end()
        return Fraction(m.group())

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
        cur.expect("(")
        a = _group(cur)
        cur.expect(",")
        b = _group(cur)
        cur.expect(")")
        return og.Lex(a, b)
    if head == "twist3" or head == "twist4":
        cur.expect("(")
        tag = _tag(cur)
        cur.expect(")")
        return og.Twist3(tag) if head == "twist3" else og.Twist4(tag)
    if head == "prod":
        cur.expect("(")
        factors = [_group(cur)]
        while cur.match(","):
            factors.append(_group(cur))
        cur.expect(")")
        return og.ProductGroup(tuple(factors))
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
        cur.expect("(")
        items = [_element_value(cur)]
        while cur.match(","):
            items.append(_element_value(cur))
        cur.expect(")")
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


format_element_value = format_value


def format_element(x: pmv.Element) -> str:
    return format_element_value(pmv.value_of(x))


# ---------------------------------------------------------------------------
# algebras


def _algebra(cur: _Cursor) -> pmv.Algebra:
    head = cur.name()
    if head == "M":
        cur.expect("(")
        n = cur.integer()
        cur.expect(")")
        return pmv.finite_mv_chain(n)
    if head == "gamma":
        cur.expect("(")
        desc = _group(cur)
        cur.expect(")")
        return pmv.GammaAlgebra(desc)
    if head == "prod":
        cur.expect("(")
        factors = [_algebra(cur)]
        while cur.match(","):
            factors.append(_algebra(cur))
        cur.expect(")")
        return pmv.product(factors)
    if head == "interval":
        cur.expect("(")
        parent = _algebra(cur)
        cur.expect(",")
        b = pmv.element_of(parent, _element_value(cur))
        cur.expect(")")
        return pmv.interval(parent, b)
    cur.error(f"unknown algebra constructor {head!r}", at=cur.pos - len(head))


def parse_algebra(text: str) -> pmv.Algebra:
    cur = _Cursor(text)
    algebra = _algebra(cur)
    cur.done()
    return algebra


def format_algebra(A: pmv.Algebra) -> str:
    """A canonical expression for Gamma algebras, chains and chain products."""
    if isinstance(A, pmv.GammaAlgebra):
        return f"gamma({format_group(A.desc)})"
    values = A.values
    if all(isinstance(v, Fraction) for v in values):
        n = A.size - 1
        if n >= 1 and A == pmv.finite_mv_chain(n):
            return f"M({n})"
    elif all(isinstance(v, tuple) for v in values) and values:
        # recover the factor chains coordinate by coordinate
        lengths = [len({v[i] for v in values}) - 1 for i in range(len(values[0]))]
        if all(n >= 1 for n in lengths):
            candidate = pmv.finite_product([pmv.finite_mv_chain(n) for n in lengths])
            if A == candidate:
                return "prod(" + ",".join(f"M({n})" for n in lengths) + ")"
    raise DslError("this finite algebra has no canonical textual form")


# ---------------------------------------------------------------------------
# commands


@dataclass(frozen=True)
class Command:
    verb: str
    target: str | None = None
    args: tuple[str, ...] = ()
    flags: tuple[tuple[str, str | None], ...] = field(default=())


def _split_fields(line: str) -> list[str]:
    fields, depth, current = [], 0, []
    for ch in line:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch.isspace() and depth == 0:
            if current:
                fields.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        fields.append("".join(current))
    return fields


def parse_command(line: str) -> Command:
    fields = _split_fields(line)
    if not fields:
        raise DslError("empty command")
    verb, rest = fields[0], fields[1:]
    if verb not in VERBS:
        raise DslError(f"unknown verb {verb!r}")
    positional: list[str] = []
    flags: list[tuple[str, str | None]] = []
    i = 0
    while i < len(rest):
        item = rest[i]
        if item.startswith("--"):
            name = item[2:]
            if name not in FLAGS:
                raise DslError(f"unknown flag --{name}")
            if FLAGS[name]:
                if i + 1 >= len(rest) or rest[i + 1].startswith("--"):
                    raise DslError(f"flag --{name} needs a value")
                flags.append((name, rest[i + 1]))
                i += 2
            else:
                flags.append((name, None))
                i += 1
        else:
            positional.append(item)
            i += 1
    target = positional[0] if positional else None
    return Command(verb, target, tuple(positional[1:]), tuple(flags))


def format_command(cmd: Command) -> str:
    parts = [cmd.verb]
    if cmd.target is not None:
        parts.append(cmd.target)
    parts.extend(cmd.args)
    for name, value in cmd.flags:
        parts.append(f"--{name}")
        if value is not None:
            parts.append(value)
    return " ".join(parts)
