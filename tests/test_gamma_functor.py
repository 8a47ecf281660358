"""The Gamma functor as a metamorphic test: a chain product and its group agree.

A finite chain product M(n_1) x ... x M(n_k) is the unit interval of
(1/n_1) Z x ... x (1/n_k) Z with unit (1, ..., 1) (Mundici's Gamma functor),
so ``prod(M(n_1),...)``, which computes on chain coordinates, and
``gamma(prod(Z/n_1,...))``, which computes with the group laws, must answer
alike on values mapped value for value.  The isomorphism is the oracle, and
no answer is written down (Chen, Cheung and Yiu, "Metamorphic testing: a
new approach for generating next test cases", HKUST-CS98-01, 1998).

Every shape of at most 64 elements is checked: 197 multisets of chain
lengths, 7,498 element pairs.
"""

import json
import math
from fractions import Fraction

import pytest

from pmvroots import dsl, pmv, roots
from pmvroots.errors import CarrierError
from test_cli import run
from test_roots import chain_shapes

SHAPES = list(chain_shapes())


def texts(shape):
    """The finite and the group text of a chain product."""
    return (
        f"prod({','.join(f'M({n})' for n in shape)})",
        f"gamma(prod({','.join(f'Z/{n}' for n in shape)}))",
    )


def test_the_shapes_are_every_chain_product_of_at_most_64_elements():
    assert len(SHAPES) == len(set(SHAPES)) == 197
    assert sum(math.prod(n + 1 for n in s) for s in SHAPES) == 7498
    assert (63,) in SHAPES and (1,) * 6 in SHAPES and (1, 31) in SHAPES


def answer(A, x):
    """The status, reason and root value of ``element_sqrt``."""
    r = roots.element_sqrt(A, x)
    return r.status, r.reason, r.value and pmv.value_of(r.value)


def test_both_routes_agree_on_every_element():
    for shape in SHAPES:
        F, G = map(dsl.parse_algebra, texts(shape))
        assert isinstance(F, pmv.FiniteAlgebra) and isinstance(G, pmv.GammaAlgebra)
        assert F.size == math.prod(n + 1 for n in shape)
        for v in F.values:
            x, y = pmv.element_of(F, v), pmv.element_of(G, v)
            assert (pmv.value_of(x), pmv.value_of(y)) == (v, v)
            assert answer(F, x) == answer(G, y), (shape, v)
        # a value of the first chain's halves, off both carriers
        half = Fraction(1, 2 * shape[0])
        off = half if len(shape) == 1 else (half, *(Fraction(0),) * (len(shape) - 1))
        for A in (F, G):
            with pytest.raises(CarrierError):
                pmv.element_of(A, off)


VERBS = (["sqrtmap"], ["closure"], ["closure", "--kind", "sqrt"], ["analyze"])


def outcome(argv):
    """The exit code and the report's status of one CLI run."""
    code, out = run(argv + ["--json"])
    return code, json.loads(out)["status"]


def test_both_routes_exit_alike_on_every_structure_verb():
    for shape in SHAPES:
        finite, group = texts(shape)
        for verb in VERBS:
            assert outcome([verb[0], finite, *verb[1:]]) == outcome([verb[0], group, *verb[1:]]), (shape, verb)
