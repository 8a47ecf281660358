"""Seeded request generators for the three workloads.

A workload is an endless sequence of blocks.  Every block holds the same
fixed mix of (verb, shape) slots, so each run measures the same kind of work
whatever the seed; the seed only picks the surface of each request (factor
order, nesting, interval wrappers, elements and their coordinate sizes) and
the order of the requests within a block.  Block ``i`` of seed ``s`` depends
on nothing but ``(s, i)``, so the same seed always yields the same argv list.

* ``finite-structure``: ideals, closure --kind sqrt, greatest, analyze and
  sqrtmap on chain products and intervals with 8 to 64 elements; almost no
  descriptor repeats.
* ``element-queries``: short sqrt, member, decompose, sqrtmap and analyze
  requests on one fixed catalog of algebras (every group family plus M(60),
  M(31) and M(8)); descriptors repeat by design, elements vary.
* ``certificates``: strict and square-root closures of group algebras, the
  twisted Z^3 root verdict re-verified on a box, and verify-paper.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

from oracle import (
    Chain,
    Gamma,
    GProd,
    Interval,
    Lex,
    Prod,
    Quad,
    Rat,
    Request,
    Scaled,
    Twist,
    add,
    cmp,
    closed_group,
    scaled,
    unit,
    zero,
)

# ---------------------------------------------------------------------------
# finite-structure


# (verb, flags, chain-length shapes); every shape appears once per block and
# no shape serves two verbs, so no algebra is asked about twice in a block
FINITE_SLOTS = (
    ("ideals", (), [(7,), (1, 3), (1, 1, 1), (2, 2), (1, 4), (1, 5), (2, 3), (1, 1, 2), (2, 4), (3, 3)]),
    ("closure", ("--kind", "sqrt"), [(9,), (11,), (13,), (1, 6), (1, 7), (1, 8), (2, 5), (2, 6), (3, 4)]),
    ("analyze", (), [(17,), (31,), (1, 1, 1, 1), (1, 1, 3), (2, 7), (1, 2, 3), (1, 11), (3, 7), (4, 5)]),
    ("greatest", (), [(19,), (5, 5), (4, 7), (1, 23), (2, 15), (3, 15), (1, 1, 7), (2, 2, 3), (1, 3, 7)]),
    ("sqrtmap", (), [(23,), (1, 1, 5), (2, 2, 2), (4, 6), (5, 6), (1, 2, 7), (6, 6), (7, 7), (1, 31),
                     (1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)]),
)
GREATEST_FLAGS = ((), ("--quantifier", "ambient"), ("--quantifier", "relative"))
FROZEN = (1, 2, 3)  # lengths of the extra factors that intervals pin to 0


def _size(shape) -> int:
    return math.prod(n + 1 for n in shape)


def _pinned(n: int, rng: random.Random) -> Interval:
    """M(n) cut out of prod(M(n), M(m)) (either order) by an interval."""
    pair, bound = (Chain(n), Chain(rng.choice(FROZEN))), (1, 0)
    if rng.random() < 0.5:
        pair, bound = pair[::-1], bound[::-1]
    return Interval(Prod(pair), bound)


PLAIN, PINNED, WRAPPED = range(3)


def finite_algebra(shape, rng: random.Random, form: int):
    """A seeded presentation of the chain product with these lengths.

    The seed picks the factor order, nesting and which factor an interval
    pins; ``form`` says whether one factor is cut out of a pair by an
    interval (PINNED) or an extra factor is pinned to 0 around the whole
    product (WRAPPED).  Forms cost differently, so blocks rotate them
    instead of drawing them."""
    ns = list(shape)
    rng.shuffle(ns)
    if len(ns) == 1:
        return Chain(ns[0]) if form == PLAIN else _pinned(ns[0], rng)
    parts = [Chain(n) for n in ns]
    if form == PINNED:
        i = rng.randrange(len(ns))
        parts[i] = _pinned(ns[i], rng)
    if form == WRAPPED:
        parts.insert(rng.randrange(len(parts) + 1), None)
    if len(parts) >= 3 and rng.random() < 0.5:  # nest two neighbours
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [parts[i:i + 2]]
    if form != WRAPPED:
        return Prod(tuple(Prod(tuple(p)) if isinstance(p, list) else p for p in parts))
    frozen = Chain(rng.choice(FROZEN if _size(shape) <= 32 else FROZEN[:1]))

    def build(p):
        return Prod(tuple(build(q) for q in p)) if isinstance(p, list) else (frozen if p is None else p)

    parent = build(parts)
    bound = tuple(0 if leaf is frozen else 1 for leaf in _leaves(parent))
    return Interval(parent, bound)


def _leaves(a):
    if isinstance(a, Chain):
        return [a]
    if isinstance(a, Prod):
        return [leaf for p in a.parts for leaf in _leaves(p)]
    return _leaves(a.parent)


def finite_block(seed: int, index: int) -> list[Request]:
    rng = random.Random(f"finite-structure/{seed}/{index}")
    out = []
    for verb, flags, shapes in FINITE_SLOTS:
        for i, shape in enumerate(shapes):
            f = GREATEST_FLAGS[(i + index) % 3] if verb == "greatest" else flags
            out.append(Request(verb, finite_algebra(shape, rng, (i + index) % 3), flags=f))
    return _finish(out, rng)


# ---------------------------------------------------------------------------
# group elements with seeded coordinate sizes


def _bits(rng: random.Random) -> int:
    return rng.choice((1, 4, 8, 16, 32, 64))


def _int(rng: random.Random, bits: int) -> int:
    return rng.randrange(-(1 << bits), (1 << bits) + 1)


def _quad_floor(g: Quad, b: F) -> int:
    """floor(b * alpha), exactly."""
    bt = b * g.t
    root = F(math.isqrt(math.floor(bt * bt * g.d * 4**20)), 2**20)  # |bt|*sqrt(d), from below
    guess = math.floor(b * g.s + (root if bt >= 0 else -root))
    v = (F(0), b)
    while cmp(g, v, (F(guess), F(0))) < 0:
        guess -= 1
    while cmp(g, v, (F(guess + 1), F(0))) >= 0:
        guess += 1
    return guess


def _even(rng: random.Random, k: int) -> int:
    """Half the time, round k to an even number (so halving works)."""
    return k - (k % 2) if rng.random() < 0.5 else k


def unit_element(g, rng: random.Random, den_bits: int = 5):
    """A seeded element of [0, u]; coordinates of varying bit length."""
    if isinstance(g, Scaled):
        den = g.q * (1 << rng.randint(0, den_bits) if g.tag == "D" else 1)
        return F(_even(rng, rng.randint(0, den)), den)
    if isinstance(g, Rat):
        den = rng.randint(1, 1 << rng.choice((2, 8, 24)))
        return F(rng.randint(0, den), den)
    if isinstance(g, Quad):  # (a + b*alpha) / scale with a = j - floor(b*alpha), 0 <= j < scale
        scale = 1 << rng.randint(0, den_bits) if g.dyadic else 1
        b = _even(rng, _int(rng, _bits(rng)))
        if b == 0:
            return (F(rng.randint(0, 1)), F(0))
        return (F(rng.randrange(scale) - _quad_floor(g, F(b)), scale), F(b, scale))
    if isinstance(g, Lex):  # head 0 needs tail >= 0, head 1 needs tail <= 0
        h = unit_element(g.head, rng, den_bits)
        t = free_element(g.tail, rng, den_bits)
        if (h == 0 and cmp(g.tail, t, zero(g.tail)) < 0) or (h == 1 and cmp(g.tail, t, zero(g.tail)) > 0):
            t = scaled(t, -1)
        return (h, t)
    if isinstance(g, Twist):
        rest = free_element(GProd((Rat(),) * (g.arity - 1)), rng, den_bits, tag=g.tag)
        positive = next((c > 0 for c in rest if c != 0), rng.random() < 0.5)
        return (F(0) if positive else F(1),) + rest
    return tuple(unit_element(f, rng, den_bits) for f in g.factors)


def free_element(g, rng: random.Random, den_bits: int = 5, tag: str | None = None):
    """A seeded group element with no interval constraint."""
    if isinstance(g, GProd):
        return tuple(free_element(f, rng, den_bits, tag) for f in g.factors)
    if isinstance(g, Quad):
        scale = 1 << rng.randint(0, den_bits) if g.dyadic else 1
        return tuple(F(_even(rng, _int(rng, _bits(rng))), scale) for _ in range(2))
    q = g.q if isinstance(g, Scaled) else 1
    tag = tag or (g.tag if isinstance(g, Scaled) else "Q")
    num = _even(rng, _int(rng, _bits(rng)))
    if tag == "Z":
        return F(num, q)
    if tag == "D":
        return F(num, q << rng.randint(0, den_bits))
    return F(num, rng.randint(1, 1 << 12))


def bit_length(v) -> int:
    """Largest numerator or denominator bit length among the coordinates."""
    if isinstance(v, tuple):
        return max((bit_length(c) for c in v), default=0)
    return max(abs(v.numerator).bit_length(), v.denominator.bit_length())


# ---------------------------------------------------------------------------
# element-queries


ALPHA_HALF_ROOT2 = Quad(F(0), F(1, 2), 2)
ALPHA_ROOT2_MINUS_1 = Quad(F(-1), F(1), 2, dyadic=True)
ALPHA_GOLDEN = Quad(F(-1, 2), F(1, 2), 5)

GROUPS = {
    "Z5": Scaled("Z", 5),
    "Z12": Scaled("Z", 12),
    "D3": Scaled("D", 3),
    "Q": Rat(),
    "quad": ALPHA_HALF_ROOT2,
    "dquad": ALPHA_ROOT2_MINUS_1,
    "lexZ": Lex(Scaled("Z", 1), Scaled("Z", 1)),
    "lexQ": Lex(Scaled("D", 1), ALPHA_GOLDEN),
    "twist3": Twist(3, "Z"),
    "twist4Z": Twist(4, "Z"),
    "twist4D": Twist(4, "D"),
    "prod": GProd((Scaled("Z", 3), Scaled("D", 5), Rat())),
    "prodT": GProd((Scaled("Z", 2), Twist(3, "Z"))),
}
ALL_GROUPS = tuple(GROUPS)
# sqrtmap asks these in place of Z5 and prod: on an interval whose unit cannot
# be halved but whose 0 has a root, the program's witness has a root when the
# unit is odd (see run.KNOWN_DEFECTS), so the timed mix keeps even units
GROUPS.update(Z4=Scaled("Z", 4), prod4=GProd((Scaled("Z", 4), Scaled("D", 5), Rat())))
CHAINS = {"M60": Chain(60), "M31": Chain(31), "M8": Chain(8)}

# (verb, algebra keys); one request per key per block
ELEMENT_SLOTS = (
    ("sqrt", ALL_GROUPS + ("M60",) * 5 + ("M31", "M8")),
    ("member", ("Z12", "quad", "lexZ", "lexQ", "twist3", "twist4Z", "prod", "prodT")
     + ("M60",) * 5 + ("M8",)),
    ("decompose", ("Z5", "D3", "Q", "dquad", "lexZ", "prod", "twist4Z", "M8")),
    ("sqrtmap", ("Z4", "Z12", "D3", "quad", "lexZ", "twist3", "prod4", "M60", "M31", "M8")),
    ("analyze", ("Q", "quad", "lexQ", "twist3", "twist4Z", "twist4D", "prod", "prodT", "M8")),
)


def _chain_element(n: int, rng: random.Random):
    return F(rng.randint(0, n), n)


def _non_member(g, x, rng: random.Random):
    """Perturb an in-interval element so that it (usually) leaves [0, u]."""
    how = rng.randrange(3)
    if how == 0:
        return add(g, x, unit(g)) if x != zero(g) else add(g, unit(g), unit(g))
    if how == 1:
        return scaled(add(g, x, unit(g)), -1)
    return scaled(x, F(1, 3))


def element_request(verb: str, key: str, rng: random.Random) -> Request:
    if key in CHAINS:
        chain = CHAINS[key]
        if verb == "decompose":
            x = unit_element(closed_group(Scaled("Z", chain.n)), rng)
        elif verb in ("sqrt", "member"):
            x = _chain_element(chain.n, rng)
            if verb == "member" and rng.random() < 0.5:
                x = x + F(1, 2 * chain.n + 1) if rng.random() < 0.5 else x + 1
        else:
            x = None
        return Request(verb, chain, x)
    g = GROUPS[key]
    algebra = Gamma(g)
    if verb in ("analyze", "sqrtmap"):
        return Request(verb, algebra)
    if verb == "decompose":
        return Request(verb, algebra, unit_element(closed_group(g), rng))
    x = unit_element(g, rng)
    if verb == "member" and rng.random() < 0.5:
        x = _non_member(g, x, rng)
    return Request(verb, algebra, x)


def element_block(seed: int, index: int) -> list[Request]:
    rng = random.Random(f"element-queries/{seed}/{index}")
    out = [element_request(verb, key, rng) for verb, keys in ELEMENT_SLOTS for key in keys]
    return _finish(out, rng)


# ---------------------------------------------------------------------------
# certificates


def _scalar_group(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        return Scaled("Z", rng.randint(1, 1 << rng.choice((2, 8, 20))))
    if kind == 1:
        return Scaled("D", 2 * rng.randint(0, 1 << rng.choice((2, 8, 20))) + 1)
    return Rat()


QUAD_ALPHAS = (
    ALPHA_HALF_ROOT2,
    Quad(F(-1), F(1), 2),
    Quad(F(-1), F(1), 3),
    Quad(F(0), F(1, 2), 3),
    ALPHA_GOLDEN,
    Quad(F(0), F(1, 3), 7),
    Quad(F(-3), F(1), 11),
)


def _family_group(family: str, rng: random.Random):
    if family == "scalar":
        return _scalar_group(rng)
    if family in ("quad", "dquad"):
        a = rng.choice(QUAD_ALPHAS)
        return Quad(a.s, a.t, a.d, dyadic=family == "dquad")
    if family == "lex":
        head = rng.choice((Scaled("Z", 1), Scaled("Z", rng.randint(2, 9)), Scaled("D", 1), Rat()))
        tail = _family_group(rng.choice(("scalar", "quad", "dquad")), rng)
        return Lex(head, tail)
    if family == "twist4":
        return Twist(4, rng.choice("ZDQ"))
    if family == "twist3":
        return Twist(3, "Z")
    if family == "unit":
        return Scaled("Z", 1)
    parts = rng.randint(2, 4)
    return GProd(tuple(_family_group(rng.choice(("scalar", "quad", "dquad", "lex", "twist4", "unit")), rng)
                       for _ in range(parts)))


CLOSURE_FAMILIES = ("scalar", "quad", "dquad", "lex", "twist4", "prod", "prod", "prod", "lex", "twist3")
# (box bound, kind of element); the four bound-11 roots are the slowest
# requests of a block, so its p90 falls inside one cluster
TWIST3_SLOTS = ((11, "root"),) * 4 + ((9, "head0"), (7, "odd"), (5, "zero"))


def _twist3_element(kind: str, rng: random.Random):
    """Elements of [0, u] in twisted Z^3 whose verdicts take each branch."""
    p, q = _int(rng, _bits(rng)), _int(rng, _bits(rng))
    if kind == "root":  # head 1, even coordinates, (p, q) <= 0
        return (F(1), F(-2 * abs(p) - 2), F(2 * q))
    if kind == "head0":  # squares to 0, never a square root
        return (F(0), F(abs(p) + 1), F(q))
    if kind == "odd":  # head 1 with an odd coordinate
        return (F(1), F(-abs(p) - 1), F(2 * q + 1))
    return (F(0), F(0), F(0))


def certificate_block(seed: int, index: int) -> list[Request]:
    rng = random.Random(f"certificates/{seed}/{index}")
    out = []
    for kind in ("strict", "sqrt"):
        for family in CLOSURE_FAMILIES:
            out.append(Request("closure", Gamma(_family_group(family, rng)), flags=("--kind", kind)))
    for bound, kind in TWIST3_SLOTS:
        x = _twist3_element(kind, rng)
        out.append(Request("sqrt", Gamma(Twist(3, "Z")), x, flags=("--bound", str(bound))))
    out.append(Request("verify-paper"))
    return _finish(out, rng)


# ---------------------------------------------------------------------------


def _finish(block: list[Request], rng: random.Random) -> list[Request]:
    """Shuffle a block and render every fourth request as text, not JSON."""
    rng.shuffle(block)
    return [Request(r.verb, r.algebra, r.element, r.flags, as_json=i % 4 != 3)
            for i, r in enumerate(block)]


WORKLOADS = {
    "finite-structure": finite_block,
    "element-queries": element_block,
    "certificates": certificate_block,
}


def blocks(workload: str, seed: int):
    make = WORKLOADS[workload]
    index = 0
    while True:
        yield make(seed, index)
        index += 1
