"""Independent oracle for pmvroots CLI reports.

Nothing here imports pmvroots.  Every expectation is derived from the
algebra's description by closed forms:

* finite algebras are products of MV chains M(n), possibly cut to an
  interval at a Boolean element.  With k active chain factors there are 2^k
  ideals (one per set of factors), the proper primes are the k ideals that
  leave out exactly one factor, a prime has a Boolean quotient exactly when
  the factor it leaves out has n = 1, I1 and I2 are the indicators of the
  factors with n > 1 and n = 1, the algebra is BSI iff no factor has n = 1,
  the splitting element is the indicator of the n = 1 factors, and a total
  square root map exists iff every n = 1.  In M(n) the root of k/n > 0 is
  (k+n)/2n when k+n is even and absent otherwise, and the root of 0 is
  floor(n/2)/n;
* group intervals use the halving formula (x+u)/2 in the group's own
  (possibly twisted) addition, the Z/q rounding rule for the root of 0, and
  the twisted Z^3 rule (only 0 and head-1 elements with even coordinates
  are squares).

``expect`` turns one request into an :class:`Expectation`; ``check`` compares
a parsed report against it and returns the list of mismatches.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction as F

NO_CANDIDATE = "no_a_with_a_odot_a_eq_x"
NO_MAX = "no_max_of_nilpotents"
LEDGER_SIZE = 28  # anchors in the verify-paper ledger (README: 28/28)


# ---------------------------------------------------------------------------
# values in the descriptor language


def fmt(v) -> str:
    if isinstance(v, tuple):
        return "(" + ",".join(fmt(c) for c in v) + ")"
    v = F(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def parse_value(text: str):
    """Rationals and nested tuples, as the CLI prints them."""
    pos = 0

    def item():
        nonlocal pos
        if text[pos] == "(":
            pos += 1
            parts = [item()]
            while text[pos] == ",":
                pos += 1
                parts.append(item())
            pos += 1  # ")"
            return parts[0] if len(parts) == 1 else tuple(parts)
        start = pos
        while pos < len(text) and text[pos] not in ",)":
            pos += 1
        return F(text[start:pos])

    value = item()
    if pos != len(text):
        raise ValueError(f"trailing text in {text!r}")
    return value


# ---------------------------------------------------------------------------
# finite algebras: chains, products and intervals at Boolean elements


@dataclass(frozen=True)
class Chain:
    n: int

    def text(self) -> str:
        return f"M({self.n})"


@dataclass(frozen=True)
class Prod:
    parts: tuple

    def text(self) -> str:
        return "prod(" + ",".join(p.text() for p in self.parts) + ")"


@dataclass(frozen=True)
class Interval:
    """[0, b] of ``parent`` for the Boolean b given as one 0/1 per chain leaf."""

    parent: Prod
    bound: tuple

    def text(self) -> str:
        ks = [n * b for n, b in zip(leaf_ns(self.parent), self.bound)]
        return f"interval({self.parent.text()},{fmt(value(self.parent, ks))})"


def leaf_ns(a) -> list[int]:
    """Chain length of each leaf; 0 where an interval pins the coordinate to 0."""
    if isinstance(a, Chain):
        return [a.n]
    if isinstance(a, Prod):
        return [n for p in a.parts for n in leaf_ns(p)]
    return [n * b for n, b in zip(leaf_ns(a.parent), a.bound)]


def value(a, ks):
    """The carrier value with leaf indices ``ks`` (k/n on each chain leaf)."""
    it = iter(ks)

    def build(node):
        if isinstance(node, Chain):
            return F(next(it), node.n)
        if isinstance(node, Prod):
            return tuple(build(p) for p in node.parts)
        return build(node.parent)

    return build(a)


class Finite:
    """A finite algebra, seen through its active chain leaves."""

    def __init__(self, spec):
        self.spec = spec
        self.ns = leaf_ns(spec)
        self.active = [i for i, n in enumerate(self.ns) if n]
        self.lengths = [self.ns[i] for i in self.active]
        self.size = 1
        for n in self.lengths:
            self.size *= n + 1

    def val(self, ks_active) -> tuple:
        ks = [0] * len(self.ns)
        for i, k in zip(self.active, ks_active):
            ks[i] = k
        return value(self.spec, ks)

    def indicator(self, chosen) -> str:
        """The Boolean element that is 1 on the chosen active factors."""
        return fmt(self.val([n if c else 0 for n, c in zip(self.lengths, chosen)]))

    def carrier(self):
        """Active leaf index vectors, in the program's carrier order."""
        return itertools.product(*(range(n + 1) for n in self.lengths))

    def sorted_fmt(self, vectors) -> list[str]:
        return [fmt(v) for v in sorted(self.val(ks) for ks in vectors)]


def chain_root(n: int, k: int):
    """Index of the square root of k/n in M(n), or None."""
    if k == 0:
        return n // 2
    return (k + n) // 2 if (k + n) % 2 == 0 else None


def _odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


# ---------------------------------------------------------------------------
# group descriptors


@dataclass(frozen=True)
class Scaled:
    tag: str  # "Z" or "D"
    q: int

    def text(self) -> str:
        return f"{self.tag}/{self.q}"


@dataclass(frozen=True)
class Rat:
    def text(self) -> str:
        return "Q"


@dataclass(frozen=True)
class Quad:
    """Z + Z*alpha (dyadic coefficients when ``dyadic``), alpha = s + t*sqrt(d)."""

    s: F
    t: F
    d: int
    dyadic: bool = False

    def text(self) -> str:
        radical = f"{fmt(abs(self.t))}*sqrt({self.d})"
        if self.s == 0:
            alpha = radical if self.t > 0 else "-" + radical
        else:
            alpha = f"{fmt(self.s)}{'+' if self.t > 0 else '-'}{radical}"
        return f"{'dquad' if self.dyadic else 'quad'}({alpha})"


@dataclass(frozen=True)
class Lex:
    head: object
    tail: object

    def text(self) -> str:
        return f"lex({self.head.text()},{self.tail.text()})"


@dataclass(frozen=True)
class Twist:
    arity: int  # 3 or 4
    tag: str

    def text(self) -> str:
        return f"twist{self.arity}({self.tag})"


@dataclass(frozen=True)
class GProd:
    factors: tuple

    def text(self) -> str:
        return "prod(" + ",".join(f.text() for f in self.factors) + ")"


@dataclass(frozen=True)
class Gamma:
    group: object

    def text(self) -> str:
        return f"gamma({self.group.text()})"


def _is_dyadic(x: F) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


def _tag_ok(tag: str, x: F) -> bool:
    return x.denominator == 1 if tag == "Z" else (_is_dyadic(x) if tag == "D" else True)


def _sign(x: F) -> int:
    return (x > 0) - (x < 0)


def _quad_sign(g: Quad, a: F, b: F) -> int:
    """Sign of a + b*alpha, exactly."""
    p, r = a + b * g.s, b * g.t  # p + r*sqrt(d)
    if r == 0 or p == 0 or _sign(p) == _sign(r):
        return _sign(p) or _sign(r)
    return _sign(p * p - r * r * g.d) * _sign(p)


def contains(g, p) -> bool:
    if isinstance(g, Scaled):
        return isinstance(p, F) and _tag_ok(g.tag, p * g.q)
    if isinstance(g, Rat):
        return isinstance(p, F)
    if isinstance(g, Quad):
        return (isinstance(p, tuple) and len(p) == 2
                and all(isinstance(c, F) and _tag_ok("D" if g.dyadic else "Z", c) for c in p))
    if isinstance(g, Lex):
        return (isinstance(p, tuple) and len(p) == 2
                and contains(g.head, p[0]) and contains(g.tail, p[1]))
    if isinstance(g, Twist):
        return (isinstance(p, tuple) and len(p) == g.arity
                and all(isinstance(c, F) and _tag_ok(g.tag, c) for c in p))
    return (isinstance(p, tuple) and len(p) == len(g.factors)
            and all(contains(f, c) for f, c in zip(g.factors, p)))


def zero(g):
    if isinstance(g, (Scaled, Rat)):
        return F(0)
    if isinstance(g, Quad):
        return (F(0), F(0))
    if isinstance(g, Lex):
        return (zero(g.head), zero(g.tail))
    if isinstance(g, Twist):
        return (F(0),) * g.arity
    return tuple(zero(f) for f in g.factors)


def unit(g):
    if isinstance(g, (Scaled, Rat)):
        return F(1)
    if isinstance(g, Quad):
        return (F(1), F(0))
    if isinstance(g, Lex):
        return (unit(g.head), zero(g.tail))
    if isinstance(g, Twist):
        return (F(1),) + (F(0),) * (g.arity - 1)
    return tuple(unit(f) for f in g.factors)


def add(g, p, q):
    if isinstance(g, (Scaled, Rat)):
        return p + q
    if isinstance(g, (Quad, Lex)):
        parts = (g.head, g.tail) if isinstance(g, Lex) else (Rat(), Rat())
        return tuple(add(h, a, b) for h, a, b in zip(parts, p, q))
    if isinstance(g, Twist):
        s = [a + b for a, b in zip(p, q)]
        s[-1] += p[0] * q[1] if g.arity == 3 else p[1] * q[2]
        return tuple(s)
    return tuple(add(f, a, b) for f, a, b in zip(g.factors, p, q))


def halve(g, p):
    """The h with h + h = p in the group law, or None when h is not in the group."""
    if isinstance(g, Twist) and g.arity == 3:
        h = (p[0] / 2, p[1] / 2, (p[2] - p[0] * p[1] / 4) / 2)
    elif isinstance(g, Twist):
        h = (p[0] / 2, p[1] / 2, p[2] / 2, (p[3] - p[1] * p[2] / 4) / 2)
    elif isinstance(g, (Scaled, Rat)):
        h = p / 2
    elif isinstance(g, Quad):
        h = (p[0] / 2, p[1] / 2)
    else:
        parts = (g.head, g.tail) if isinstance(g, Lex) else g.factors
        hs = [halve(f, c) for f, c in zip(parts, p)]
        return None if any(x is None for x in hs) else tuple(hs)
    return h if contains(g, h) else None


def cmp(g, p, q):
    """-1, 0, 1, or None when incomparable."""
    if isinstance(g, (Scaled, Rat)):
        return _sign(p - q)
    if isinstance(g, Quad):
        return _quad_sign(g, p[0] - q[0], p[1] - q[1])
    if isinstance(g, Lex):
        return cmp(g.head, p[0], q[0]) or cmp(g.tail, p[1], q[1])
    if isinstance(g, Twist):
        return next((_sign(a - b) for a, b in zip(p, q) if a != b), 0)
    signs = {cmp(f, a, b) for f, a, b in zip(g.factors, p, q)} - {0}
    if None in signs or len(signs) > 1:
        return None
    return signs.pop() if signs else 0


def scaled(p, c):
    """Every coordinate of ``p`` multiplied by ``c``."""
    return tuple(scaled(x, c) for x in p) if isinstance(p, tuple) else p * c


def in_interval(g, p) -> bool:
    return contains(g, p) and cmp(g, zero(g), p) in (-1, 0) and cmp(g, p, unit(g)) in (-1, 0)


def meet(g, p, q):
    if isinstance(g, GProd):
        return tuple(meet(f, a, b) for f, a, b in zip(g.factors, p, q))
    if isinstance(g, Lex):
        c = cmp(g.head, p[0], q[0])
        return (p if c < 0 else q) if c else (p[0], meet(g.tail, p[1], q[1]))
    return p if cmp(g, p, q) <= 0 else q


def is_linear(g) -> bool:
    if isinstance(g, Lex):
        return is_linear(g.tail)
    return not isinstance(g, GProd)


def is_abelian(g) -> bool:
    if isinstance(g, Twist):
        return False
    if isinstance(g, Lex):
        return is_abelian(g.head) and is_abelian(g.tail)
    if isinstance(g, GProd):
        return all(is_abelian(f) for f in g.factors)
    return True


def two_divisible(g) -> bool:
    if isinstance(g, Scaled):
        return g.tag == "D"
    if isinstance(g, Quad):
        return g.dyadic
    if isinstance(g, Lex):
        return two_divisible(g.head) and two_divisible(g.tail)
    if isinstance(g, Twist):
        return g.tag != "Z"
    if isinstance(g, GProd):
        return all(two_divisible(f) for f in g.factors)
    return True


def noncentral_witness(g):
    """An element not commuting with the unit (only the twisted Z^3 has one)."""
    if isinstance(g, Twist) and g.arity == 3:
        return (F(0), F(1), F(0))
    if isinstance(g, GProd):
        for i, f in enumerate(g.factors):
            w = noncentral_witness(f)
            if w is not None:
                return tuple(w if j == i else zero(h) for j, h in enumerate(g.factors))
    return None


def closed_group(g):
    """The two-divisible closure of a factor (Z/n -> D/odd(n), quad -> dquad, ...)."""
    if isinstance(g, Scaled):
        return Scaled("D", _odd_part(g.q)) if g.tag == "Z" else g
    if isinstance(g, Quad):
        return Quad(g.s, g.t, g.d, dyadic=True)
    if isinstance(g, Lex):
        return Lex(closed_group(g.head), closed_group(g.tail))
    if isinstance(g, Twist):
        return Twist(g.arity, "D" if g.tag in ("Z", "D") else "Q")
    if isinstance(g, GProd):
        return GProd(tuple(closed_group(f) for f in g.factors))
    return g


class Unsupported(Exception):
    """The program is expected to answer ``unsupported`` (exit 2)."""


def zero_root(g):
    """Top of the nilpotent elements, or None when they have no top."""
    h = halve(g, unit(g))
    if h is not None:
        return h
    if isinstance(g, Scaled):  # Z/q with q odd
        return F(g.q // 2, g.q)
    if isinstance(g, GProd):
        parts = [zero_root(f) for f in g.factors]
        return None if any(p is None for p in parts) else tuple(parts)
    return None


def group_root(g, x):
    """("exists", root) or ("not_exists", reason); raises Unsupported."""
    if g == Twist(3, "Z"):
        if x == zero(g):
            return "not_exists", NO_MAX
        if x[0] == 0 or x[1].denominator != 1 or x[1] % 2 or x[2] % 2:
            return "not_exists", NO_CANDIDATE
        return "exists", (F(1), x[1] / 2, x[2] / 2)
    if isinstance(g, Twist) and g.arity == 3:
        if x == zero(g):
            r = zero_root(g)
            return ("exists", r) if r is not None else ("not_exists", NO_MAX)
        if x == unit(g):
            return "exists", unit(g)
        raise Unsupported
    if is_linear(g) and noncentral_witness(g) is None:
        if x == zero(g):
            r = zero_root(g)
            return ("exists", r) if r is not None else ("not_exists", NO_MAX)
        h = halve(g, add(g, x, unit(g)))
        return ("exists", h) if h is not None else ("not_exists", NO_CANDIDATE)
    if isinstance(g, GProd):
        parts = []
        for f, c in zip(g.factors, x):
            status, r = group_root(f, c)
            if status != "exists":
                return status, r
            parts.append(r)
        return "exists", tuple(parts)
    raise Unsupported


def has_root(g, x) -> bool:
    try:
        return group_root(g, x)[0] == "exists"
    except Unsupported:
        return False


def boolean_skeleton(g):
    if is_linear(g):
        return [zero(g), unit(g)]
    if isinstance(g, GProd) and all(is_linear(f) for f in g.factors):
        return sorted(itertools.product(*([zero(f), unit(f)] for f in g.factors)))
    return None


# ---------------------------------------------------------------------------
# expectations


@dataclass
class Expectation:
    exit_code: int
    status: str
    fields: dict = field(default_factory=dict)  # payload key -> exact value
    unordered: dict = field(default_factory=dict)  # payload key -> list, compared sorted
    predicates: list = field(default_factory=list)  # (label, payload -> bool)


def _ok(fields=None, **kw) -> Expectation:
    return Expectation(0, "ok", fields or {}, **kw)


def _neg(status: str, fields=None, **kw) -> Expectation:
    return Expectation(1, status, fields or {}, **kw)


def _unsupported() -> Expectation:
    return Expectation(2, "unsupported")


@dataclass(frozen=True)
class Request:
    """One CLI call: what the generator drew and the argv it becomes."""

    verb: str
    algebra: object = None  # Chain/Prod/Interval or Gamma
    element: object = None  # structured value, when the verb takes one
    flags: tuple = ()
    as_json: bool = True

    def argv(self) -> list[str]:
        out = [self.verb]
        if self.algebra is not None:
            out.append(self.algebra.text())
        out.extend(self.flags)
        if self.as_json:
            out.append("--json")
        if self.element is not None:
            element = fmt(self.element)
            # "--" keeps argparse from reading a negative rational as an option
            out.extend(["--", element] if element.startswith("-") else [element])
        return out

    def flag(self, name: str):
        return self.flags[self.flags.index(name) + 1] if name in self.flags else None


def expect(req: Request) -> Expectation:
    try:
        if req.verb == "verify-paper":
            return _expect_verify()
        if isinstance(req.algebra, Gamma):
            return _GROUP_VERBS[req.verb](req, req.algebra.group)
        if isinstance(req.algebra, Chain) and req.verb in _CHAIN_VERBS:
            return _CHAIN_VERBS[req.verb](req, req.algebra.n)
        return _FINITE_VERBS[req.verb](req, Finite(req.algebra))
    except Unsupported:
        return _unsupported()


def _expect_verify() -> Expectation:
    return _ok(
        {"total": LEDGER_SIZE, "passed": LEDGER_SIZE, "failed": 0},
        predicates=[("every ledger check passes",
                     lambda p: len(p["checks"]) == LEDGER_SIZE and all(c["ok"] for c in p["checks"]))],
    )


# finite algebras ------------------------------------------------------------


def _finite_analyze(req, A: Finite) -> Expectation:
    fields = {
        "kind": "finite",
        "size": A.size,
        "symmetric": True,
        "boolean_skeleton": A.sorted_fmt(
            itertools.product(*((0, n) for n in A.lengths))),
        "chain_lengths": sorted(A.lengths),
    }
    return _ok(fields)


def _finite_sqrtmap(req, A: Finite) -> Expectation:
    if all(n == 1 for n in A.lengths):
        fields = {"strict": False, "r0": A.indicator([0] * len(A.lengths)),
                  "w": A.indicator([1] * len(A.lengths))}
        if A.size <= 32:  # Boolean algebra: every element is its own root
            fields["mapping"] = [[s, s] for s in A.sorted_fmt(A.carrier())]
        return _ok(fields)
    witness = next(ks for ks in A.carrier()
                   if any(chain_root(n, k) is None for n, k in zip(A.lengths, ks)))
    return _neg("absent", {"reason": "some element has no square root",
                           "witness": fmt(A.val(witness))})


def _finite_ideals(req, A: Finite) -> Expectation:
    ns = A.lengths
    k = len(ns)
    boolean = all(n == 1 for n in ns)
    ideals, x1, x2 = [], [], []
    for chosen in itertools.product((0, 1), repeat=k):  # carrier order of the tops
        size = 1
        for n, c in zip(ns, chosen):
            size *= (n + 1) if c else 1
        top = A.indicator(chosen)
        ideals.append({
            "top": top,
            "size": size,
            "proper": sum(chosen) < k,
            "normal": True,
            "prime": sum(chosen) >= k - 1,
            "boolean_ideal": all(n == 1 for n, c in zip(ns, chosen) if not c),
            "strict_square_ideal": (sum(chosen) == k) if boolean else None,
        })
        if sum(chosen) == k - 1:
            left_out = chosen.index(0)
            (x1 if ns[left_out] == 1 else x2).append(top)
    ones = [n == 1 for n in ns]
    fields = {
        "ideals": ideals,
        "x1_tops": x1,
        "x2_tops": x2,
        "i1_top": A.indicator([not o for o in ones]),
        "i2_top": A.indicator(ones),
        "bsi": not any(ones),
        "splitting_element": A.indicator(ones),
    }
    if boolean:
        fields.update({
            "strict_map": False,
            "least_strict_square_ideal_top": A.indicator(ones),
            "least_boolean_ideal_top": A.indicator([0] * k),
            "i1_equals_least_boolean": True,
            "i2_equals_least_strict": True,
            "w_decomposition": {
                "boolean_part_size": A.size,
                "strict_part_size": 1,
                "boolean_part_is_boolean": True,
                "strict_part_map_strict": True,
                "induced_root_matches": True,
            },
        })
    return _ok(fields)


def _closure_factor(n: int, kind: str) -> dict:
    if kind == "sqrt" and n == 1:  # Boolean factor: r(x) = x
        return {"base": "Z/1", "closed": "Z/1", "root": "identity"}
    return {"base": f"Z/{n}", "closed": f"D/{_odd_part(n)}", "root": "half_shift"}


def _finite_closure(req, A: Finite) -> Expectation:
    """Factors in any order: the program lists them in its own atom order."""
    kind = req.flag("--kind") or "strict"
    factors = [_closure_factor(n, kind) for n in A.lengths]
    exp = _ok({"kind": kind}, unordered={"factors": factors})
    if len(factors) == 1:
        exp.fields["closed"] = factors[0]["closed"]
    if all(f["root"] == "half_shift" for f in factors):
        exp.predicates.append(_certified)
    return exp


def _certified_check(p) -> bool:
    return p["criterion"]["ok"] is True and p["criterion"]["samples"] == 60


_certified = ("doubling certificate holds on 60 samples", _certified_check)


def _stage_step(n: int, current: frozenset, quantifier: str) -> frozenset:
    """One step of the greatest-subalgebra iteration on the chain M(n)."""
    out = set()
    for x in current:
        if quantifier == "ambient":
            r = chain_root(n, x)
            if r is not None and r in current:
                out.add(x)
            continue
        sq = {a: max(2 * a - n, 0) for a in current}
        candidates = [a for a in current if sq[a] == x]
        dominated = [y for y in current if sq[y] <= x]
        if any(all(y <= a for y in dominated) for a in candidates):
            out.add(x)
    return frozenset(out)


def _is_sub(n: int, s: frozenset) -> bool:
    return (0 in s and n in s and all(n - x in s for x in s)
            and all(min(x + y, n) in s for x in s for y in s))


def _greatest_payload(A: Finite, quantifier: str) -> dict:
    current = [frozenset(range(n + 1)) for n in A.lengths]
    stages = []
    while True:
        nxt = [_stage_step(n, c, quantifier) for n, c in zip(A.lengths, current)]
        stages.append(nxt)
        if nxt == current:
            break
        current = nxt

    def elems(sets):
        return A.sorted_fmt(itertools.product(*(sorted(s) for s in sets)))

    flags = [all(_is_sub(n, s) for n, s in zip(A.lengths, st)) for st in stages]
    return {
        "stages": [elems(st) for st in stages],
        "fixpoint": elems(stages[-1]),
        "stage_is_subalgebra": flags,
        "fixpoint_is_subalgebra": flags[-1],
    }


def _finite_greatest(req, A: Finite) -> Expectation:
    q = req.flag("--quantifier")
    if q is not None:
        return _ok({q: _greatest_payload(A, q)})
    amb, rel = _greatest_payload(A, "ambient"), _greatest_payload(A, "relative")
    return _ok({"ambient": amb, "relative": rel,
                "quantifiers_agree": amb["fixpoint"] == rel["fixpoint"]})


_FINITE_VERBS = {
    "analyze": _finite_analyze,
    "sqrtmap": _finite_sqrtmap,
    "ideals": _finite_ideals,
    "closure": _finite_closure,
    "greatest": _finite_greatest,
}


# element verbs on a single chain M(n) ---------------------------------------


def _chain_sqrt(req, n: int) -> Expectation:
    x = F(req.element)
    k = x * n
    fields = {"algebra": req.algebra.text(), "element": fmt(x)}
    r = chain_root(n, int(k))
    if r is None:
        return _neg("not_exists", {**fields, "reason": NO_CANDIDATE})
    return _ok({**fields, "root": fmt(F(r, n))})


def _chain_member(req, n: int) -> Expectation:
    x = req.element
    if isinstance(x, F) and 0 <= x <= 1 and (x * n).denominator == 1:
        return _ok({"member": True, "element": fmt(x)})
    return _ok({"member": False})


def _chain_decompose(req, n: int) -> Expectation:
    return _decompose(req, Scaled("Z", n))


_CHAIN_VERBS = {
    "sqrt": _chain_sqrt,
    "member": _chain_member,
    "decompose": _chain_decompose,
}


# group intervals -------------------------------------------------------------


def _group_sqrt(req, g) -> Expectation:
    x = req.element
    fields = {"algebra": req.algebra.text(), "element": fmt(x)}
    status, r = group_root(g, x)
    bound = req.flag("--bound")
    if bound is not None:
        if g != Twist(3, "Z"):
            raise NotImplementedError("--bound is generated for twist3(Z) only")
        fields["bounded_check"] = _BoundedCheck(int(bound))
    if status == "exists":
        return _ok({**fields, "root": fmt(r)})
    return _neg("not_exists", {**fields, "reason": r})


@dataclass(frozen=True)
class _BoundedCheck:
    bound: int

    def matches(self, got) -> bool:
        return isinstance(got, dict) and got.get("agrees") is True and got.get("bound") == self.bound


def _group_member(req, g) -> Expectation:
    x = req.element
    if in_interval(g, x):
        return _ok({"member": True, "element": fmt(x)})
    return _ok({"member": False})


def _decompose(req, g) -> Expectation:
    if any(isinstance(f, Twist) and f.arity == 3 for f in _flatten(g)):
        raise Unsupported  # no strict closure
    closed = closed_group(g)
    if not is_abelian(g):
        raise Unsupported
    x = req.element
    if not in_interval(closed, x):
        raise ValueError(f"{req.argv()}: the element lies outside the closed interval")
    n, y = 0, x
    while not contains(g, y):
        n, y = n + 1, add(g, y, y)
    parts = []
    for _ in range(2 ** n):
        p = meet(g, y, unit(g))
        parts.append(fmt(p))
        y = add(g, y, scaled(p, -1))  # the group is Abelian: -p is coordinatewise
    return _ok({
        "base": g.text(),
        "closed": closed.text(),
        "element": fmt(x),
        "doubling_exponent": n,
        "part_count": 2 ** n,
        "parts": parts,
        "minimal": True,
    })


def _group_analyze(req, g) -> Expectation:
    w = noncentral_witness(g)
    skeleton = boolean_skeleton(g)
    fields = {
        "kind": "group_interval",
        "group": g.text(),
        "linear": is_linear(g),
        "abelian": is_abelian(g),
        "two_divisible": two_divisible(g),
        "unit_central": w is None,
        "symmetric": w is None,
        "boolean_skeleton": "unsupported" if skeleton is None else [fmt(v) for v in skeleton],
    }
    if w is not None:
        fields["noncentral_witness"] = fmt(w)
        fields["asymmetry_witness"] = fmt(w)
    return _ok(fields)


def _group_sqrtmap(req, g) -> Expectation:
    w = noncentral_witness(g)
    if w is not None:
        return _neg("absent", {"reason": "the two negations differ, so no strict mapping exists",
                               "witness": fmt(w)})
    if two_divisible(g):
        return _ok({"strict": True, "formula": "(x + u) / 2",
                    "r0": fmt(halve(g, unit(g))), "w": fmt(zero(g))})
    if zero_root(g) is None:
        return _neg("absent", {"reason": "the set of nilpotents has no top", "witness": fmt(zero(g))})

    def rootless(p) -> bool:
        x = parse_value(p["witness"])
        return in_interval(g, x) and not has_root(g, x)

    return _neg("absent", {"reason": "an element of the interval has no square root"},
                predicates=[("witness lies in [0,u] and has no square root", rootless)])


def _flatten(g) -> list:
    return [h for f in g.factors for h in _flatten(f)] if isinstance(g, GProd) else [g]


def _sqrt_profile(g):
    """(I1 = 0, I2 = 0, has splitting element) for one factor of a closure."""
    if isinstance(g, Twist) and g.arity == 3:
        raise Unsupported
    if isinstance(g, Scaled) and g.tag == "Z" and g.q == 1:
        return True, False, True
    if isinstance(g, (Lex, Twist)):
        head = g
        while isinstance(head, Lex):
            head = head.head
        boolean_top = isinstance(g, Twist) or head == Scaled("Z", 1)
        return False, True, not boolean_top
    return False, True, True


def _group_closure(req, g) -> Expectation:
    factors = _flatten(g)
    if req.flag("--kind") != "sqrt":
        if any(isinstance(f, Twist) and f.arity == 3 for f in factors):
            raise Unsupported
        pairs = [(f, closed_group(f), "half_shift") for f in factors]
    else:
        profiles = [_sqrt_profile(f) for f in factors]
        if all(p[0] for p in profiles):
            pairs = [(f, f, "identity") for f in factors]
        elif all(p[1] for p in profiles):
            pairs = [(f, closed_group(f), "half_shift") for f in factors]
        elif not all(p[2] for p in profiles):
            return _neg("open_problem", {"factor_reports": [
                f"factor {i}: no element is 1 mod I1 and 0 mod I2"
                for i, p in enumerate(profiles) if not p[2]]})
        else:
            pairs = [(f, f, "identity") if p[0] else (f, closed_group(f), "half_shift")
                     for f, p in zip(factors, profiles)]
    closed = [c for _, c, _ in pairs]
    exp = _ok({
        "kind": req.flag("--kind") or "strict",
        "factors": [{"base": b.text(), "closed": c.text(), "root": r} for b, c, r in pairs],
        "closed": closed[0].text() if len(closed) == 1 else GProd(tuple(closed)).text(),
    })
    if all(r == "half_shift" for _, _, r in pairs):
        exp.predicates.append(_certified)
    return exp


_GROUP_VERBS = {
    "sqrt": _group_sqrt,
    "member": _group_member,
    "decompose": _decompose,
    "analyze": _group_analyze,
    "sqrtmap": _group_sqrtmap,
    "closure": _group_closure,
}


# ---------------------------------------------------------------------------
# checking a report


def parse_report(stdout: str, as_json: bool) -> dict:
    """The report as {"status", "payload", "provenance"}; text reports are
    read back line by line (JSON for list and dict values)."""
    if as_json:
        return json.loads(stdout)
    lines = stdout.rstrip("\n").split("\n")
    status = lines[0].removeprefix("status: ")
    payload = {}
    for line in lines[1:]:
        key, _, raw = line.partition(": ")
        payload[key] = json.loads(raw) if raw[:1] in "[{" else raw
    payload.pop("provenance", None)
    return {"status": status, "payload": payload}


def _as_text(v):
    """How a scalar payload value reads in a text report."""
    if isinstance(v, (dict, list)):
        return v
    return str(v)


def check(exp: Expectation, exit_code, stdout: str, as_json: bool) -> list[str]:
    """Mismatches between one report and its expectation (empty when correct)."""
    problems = []
    if exit_code != exp.exit_code:
        problems.append(f"exit code {exit_code}, expected {exp.exit_code}")
    try:
        report = parse_report(stdout, as_json)
    except (ValueError, IndexError) as exc:
        return problems + [f"unreadable report: {exc}"]
    if report.get("status") != exp.status:
        problems.append(f"status {report.get('status')!r}, expected {exp.status!r}")
        return problems
    payload = report.get("payload", {})
    for key, want in exp.fields.items():
        got = payload.get(key)
        if isinstance(want, _BoundedCheck):
            ok = want.matches(got)
        else:
            ok = got == (want if as_json else _as_text(want))
        if not ok:
            problems.append(f"{key}: got {got!r}, expected {want!r}")
    for key, want in exp.unordered.items():
        got = payload.get(key)
        key_of = lambda d: json.dumps(d, sort_keys=True)  # noqa: E731
        if not isinstance(got, list) or sorted(map(key_of, got)) != sorted(map(key_of, want)):
            problems.append(f"{key}: got {got!r}, expected in any order {want!r}")
    for label, pred in exp.predicates:
        try:
            ok = pred(payload)
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError):
            ok = False
        if not ok:
            problems.append(f"violated: {label}")
    return problems
