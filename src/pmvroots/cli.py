"""Command line front end.

Verbs map one-to-one onto library operations::

    analyze    structural facts about an algebra
    sqrt       square root of one element
    sqrtmap    the total square root mapping, exact or symbolic
    ideals     ideal lattice, prime partition, splitting element
    closure    strict or square-root closure descriptor (--kind)
    member     carrier membership of a value
    decompose  doubling exponent and greedy parts over the strict closure
    greatest   greatest square-root-closed subalgebra iteration
    verify-paper   replay every recorded reference computation

Reports carry a status (ok, not_exists, absent, open_problem,
unsupported, error), a verb-specific payload with exact values rendered
as strings, and the list of reference anchors exercised.  Exit codes:
0 ok, 1 negative mathematical outcome, 2 unsupported, 3 error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import closures as cl
from . import dsl
from . import ogroups as og
from . import pmv
from . import roots
from .errors import (
    CarrierError,
    DslError,
    ParameterError,
    PmvError,
    UnsupportedOperationError,
)
from .ideals import enumerate_ideals, is_bsi, nn12_element, normal_primes, root_map_ideals
from .records import Record
from .scalars import Fraction

EXIT_CODES = {
    "ok": 0,
    "not_exists": 1,
    "absent": 1,
    "open_problem": 1,
    "unsupported": 2,
    "error": 3,
}


class Report(Record):
    status: str
    payload: dict
    provenance: tuple[str, ...]

    def __init__(self, status, payload, provenance=()):  # positional: the base's fast path
        super().__init__(status, payload, provenance)

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]

    def to_json(self) -> str:
        body = {"status": self.status, "payload": self.payload, "provenance": list(self.provenance)}
        return json.dumps(body, indent=2, default=str)

    def to_text(self) -> str:
        lines = [f"status: {self.status}"]
        for key, value in self.payload.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{key}: {json.dumps(value, default=str)}")
            else:
                lines.append(f"{key}: {value}")
        if self.provenance:
            lines.append("provenance: " + ", ".join(self.provenance))
        return "\n".join(lines)


def _fmt(x: pmv.Element) -> str:
    return dsl.format_element(x)


def _approximate(value) -> object:
    if isinstance(value, tuple):
        return [_approximate(v) for v in value]
    return float(value)


def _sorted_values(elems) -> list[str]:
    return [dsl.format_element_value(v) for v in sorted(pmv.value_of(x) for x in elems)]


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_analyze(args) -> Report:
    A = dsl.parse_algebra(args.target)
    payload: dict = {}
    if isinstance(A, pmv.GammaAlgebra):
        desc = A.desc
        central, witness = og.is_unit_central(desc)
        symmetric, sym_witness = pmv.is_symmetric(A)
        payload.update(
            {
                "kind": "group_interval",
                "group": dsl.format_group(desc),
                "linear": desc.linear,
                "abelian": desc.abelian,
                "two_divisible": desc.two_divisible,
                "unit_central": central,
                "symmetric": symmetric,
            }
        )
        if witness is not None:
            payload["noncentral_witness"] = dsl.format_element_value(witness)
        if sym_witness is not None:
            payload["asymmetry_witness"] = _fmt(sym_witness)
        try:
            payload["boolean_skeleton"] = _sorted_values(pmv.boolean_skeleton(A))
        except UnsupportedOperationError:
            payload["boolean_skeleton"] = "unsupported"
    else:
        payload.update(
            {
                "kind": "finite",
                "size": A.size,
                "symmetric": pmv.is_symmetric(A)[0],
                "boolean_skeleton": _sorted_values(pmv.boolean_skeleton(A)),
            }
        )
        if A.size > 1:
            payload["chain_lengths"] = pmv.chain_lengths(A)
    return Report("ok", payload)


def _cmd_sqrt(args) -> Report:
    A = dsl.parse_algebra(args.target)
    x = dsl.parse_element(A, args.element)
    res = roots.element_sqrt(A, x)
    payload: dict = {"algebra": args.target, "element": _fmt(x)}
    if res.exists:
        payload["root"] = _fmt(res.value)
        if args.approx:
            payload["root_approx"] = _approximate(pmv.value_of(res.value))
        status = "ok"
    else:
        payload["reason"] = res.reason
        if res.witness is not None:
            payload["witness"] = _fmt(res.witness)
        status = "not_exists"
    if res.note:
        payload["note"] = res.note
    if args.bound is not None:
        if not (isinstance(A, pmv.GammaAlgebra) and A.desc == og.Twist3("Z")):
            raise ParameterError("--bound re-verification is specific to gamma(twist3(Z))")
        check = roots.twist3_bounded_check(A, x, bound=args.bound)
        payload["bounded_check"] = {
            "agrees": check["agrees"],
            "bound": check["bound"],
            "detail": check["detail"],
        }
    return Report(status, payload)


def _sqrtmap_finite(M: pmv.FiniteAlgebra) -> Report:
    smap = roots.sqrt_map(M)
    if smap is None:
        witness = next(x for x in pmv.carrier(M) if not roots.element_sqrt(M, x).exists)
        return Report(
            "absent",
            {"reason": "some element has no square root", "witness": _fmt(witness)},
        )
    payload = {
        "strict": smap.strict,
        "r0": _fmt(smap.r0),
        "w": _fmt(smap.w),
    }
    if M.size <= 32:
        payload["mapping"] = [[_fmt(x), _fmt(r)] for x, r in sorted(
            smap.mapping.items(), key=lambda kv: pmv.value_of(kv[0])
        )]
    return Report("ok", payload)


def _cmd_sqrtmap(args) -> Report:
    A = dsl.parse_algebra(args.target)
    if isinstance(A, pmv.FiniteAlgebra):
        return _sqrtmap_finite(A)
    desc = A.desc
    symmetric, witness = pmv.is_symmetric(A)
    if not symmetric:
        return Report(
            "absent",
            {
                "reason": "the two negations differ, so no strict mapping exists",
                "witness": _fmt(witness),
            },
        )
    C = cl.sqrt_closure(desc)
    if isinstance(C, cl.ClosureDescriptor) and all(f.closed == f.base for f in C.factors):
        # [0, u] is its own square-root closure, so the closure's root mapping
        # is total on it: x on Boolean factors, (x + u)/2 on the others; at 0
        # that is sqrt(0), 0 on the factors Z/1 and u/2 on the others
        r0 = roots.sqrt_zero(A).value
        strict = all(f.root == cl.HALF_SHIFT for f in C.factors)
        boolean = all(f.root == cl.IDENTITY for f in C.factors)
        return Report(
            "ok",
            {
                "strict": strict,
                "formula": "(x + u) / 2" if strict else "x" if boolean
                else "x on Boolean factors, (x + u) / 2 on the others",
                "r0": _fmt(r0),
                "w": _fmt(pmv.odot(pmv.lneg(r0), pmv.lneg(r0))),
            },
        )
    # the interval is not closed under the root formula; exhibit an element
    # without a square root
    r0 = roots.sqrt_zero(A)
    if not r0.exists:
        return Report(
            "absent",
            {"reason": "the set of nilpotents has no top", "witness": _fmt(pmv.zero_elem(A))},
        )
    payload = _rootless_payload(desc)
    if payload is not None:
        witness = pmv.element_of(A, payload)
        if not roots.element_sqrt(A, witness).exists:
            return Report(
                "absent",
                {"reason": "an element of the interval has no square root", "witness": _fmt(witness)},
            )
    raise UnsupportedOperationError("could not classify the square root mapping")


def _rootless_payload(desc: og.GroupDescriptor):
    """An element of [0, u] that (x + u)/2 takes out of the group, or None.

    On (1/n)Z a positive k/n halves into the group exactly when k + n is
    even, so 1/n (n even) or 2/n (n odd) is taken out; a lexicographic
    product takes out such a head with tail 0 or (0, 1/m) over a tail
    (1/m)Z; a direct product takes the first factor that has one, with 0
    elsewhere.
    """
    if isinstance(desc, og.ScaledInt):
        k = 1 + desc.n % 2
        return Fraction(k, desc.n) if k <= desc.n else None
    if isinstance(desc, og.Lex):
        head = _rootless_payload(desc.head)
        if head is not None:
            return (head, desc.tail.zero())
        if isinstance(desc.tail, og.ScaledInt):
            return (desc.head.zero(), Fraction(1, desc.tail.n))
        return None
    if isinstance(desc, og.ProductGroup):
        for i, f in enumerate(desc.factors):
            inner = _rootless_payload(f)
            if inner is not None:
                return tuple(inner if j == i else g.zero() for j, g in enumerate(desc.factors))
    return None


def _cmd_ideals(args) -> Report:
    A = dsl.parse_algebra(args.target)
    ideals = enumerate_ideals(A)
    primes = normal_primes(A)
    e = nn12_element(A)
    payload: dict = {
        "ideals": [
            {
                "top": _fmt(info.top),
                "size": len(info.members),
                "proper": info.is_proper,
                "normal": info.is_normal,
                "prime": info.is_prime,
                "boolean_ideal": info.is_boolean_ideal,
                "strict_square_ideal": info.is_strict_square_ideal,
            }
            for info in ideals
        ],
        # X1 holds the primes with a Boolean quotient, X2 the others
        "x1_tops": [_fmt(p.top) for p in primes if p.is_boolean_ideal],
        "x2_tops": [_fmt(p.top) for p in primes if not p.is_boolean_ideal],
        # I1 = [0, e-] and I2 = [0, e]
        "i1_top": _fmt(pmv.lneg(e)),
        "i2_top": _fmt(e),
        "bsi": is_bsi(A),
        "splitting_element": _fmt(e),
    }
    # the flags are None exactly when A has no total square root mapping
    if ideals[0].is_strict_square_ideal is not None:
        r = root_map_ideals(A)
        payload.update(
            strict_map=r.strict_map,
            least_strict_square_ideal_top=_fmt(r.least_strict_top),
            least_boolean_ideal_top=_fmt(r.least_boolean_top),
            i1_equals_least_boolean=r.i1_equals_least_boolean,
            i2_equals_least_strict=r.i2_equals_least_strict,
            w_decomposition=r.w_split.asdict(),
        )
    return Report("ok", payload)


def _closure_payload(C: cl.ClosureDescriptor) -> dict:
    crit = cl.crit_check(C)
    return {
        **C.to_json(),
        "criterion": {
            "ok": crit.ok,
            "samples": crit.samples_checked,
            "max_doubling_exponent": crit.max_exponent_seen,
        },
    }


def _cmd_closure(args) -> Report:
    A = dsl.parse_algebra(args.target)
    if args.kind == "strict":
        return Report("ok", _closure_payload(cl.strict_closure(A)))
    result = cl.sqrt_closure(A)
    if isinstance(result, cl.OpenProblem):
        return Report(
            "open_problem",
            {
                "explanation": result.explanation,
                "factor_reports": list(result.factor_reports),
            },
        )
    return Report("ok", _closure_payload(result))


def _cmd_member(args) -> Report:
    A = dsl.parse_algebra(args.target)
    value = dsl.parse_element_value(args.element)
    try:
        x = pmv.element_of(A, value)
    except (CarrierError, ParameterError) as exc:
        return Report("ok", {"member": False, "reason": str(exc)})
    return Report("ok", {"member": True, "element": _fmt(x)})


def _cmd_decompose(args) -> Report:
    A = dsl.parse_algebra(args.target)
    C = cl.strict_closure(A)
    closed = C.closed_algebra
    x = dsl.parse_element(closed, args.element)
    dec = cl.corrdp_decompose(C, x)
    payload = {
        "base": dsl.format_group(C.base),
        "closed": dsl.format_group(C.closed),
        "element": _fmt(x),
        "doubling_exponent": dec.n,
        "part_count": 2**dec.n,
        "parts": [_fmt(p) for p in dec.parts],
        "minimal": dec.minimal,
    }
    if args.approx:
        payload["element_approx"] = _approximate(pmv.value_of(x))
    return Report("ok", payload)


def _greatest_payload(res: roots.GreatestSqrtResult) -> dict:
    return {
        "stages": [_sorted_values(stage) for stage in res.stages],
        "fixpoint": _sorted_values(res.fixpoint),
        "stage_is_subalgebra": list(res.subalgebra_flags),
        "fixpoint_is_subalgebra": res.fixpoint_is_subalgebra,
    }


def _cmd_greatest(args) -> Report:
    A = dsl.parse_algebra(args.target)
    if not isinstance(A, pmv.FiniteAlgebra):
        raise UnsupportedOperationError("the stage iteration needs a finite algebra")
    if args.quantifier is not None:
        res = roots.greatest_sqrt_subalgebra(A, quantifier=args.quantifier)
        return Report("ok", {args.quantifier: _greatest_payload(res)})
    ambient = roots.greatest_sqrt_subalgebra(A, quantifier="ambient")
    relative = roots.greatest_sqrt_subalgebra(A, quantifier="relative")
    return Report(
        "ok",
        {
            "ambient": _greatest_payload(ambient),
            "relative": _greatest_payload(relative),
            "quantifiers_agree": ambient.fixpoint == relative.fixpoint,
        },
    )


def _cmd_verify(args) -> Report:
    from .worked_examples import run_all

    results = run_all()
    passed = sum(r.ok for r in results)
    payload = {
        "total": len(results),
        "passed": passed,
        "failed": len(results) - passed,
        "checks": [
            {"anchor": r.anchor, "ok": r.ok, "detail": r.detail} for r in results
        ],
    }
    status = "ok" if passed == len(results) else "error"
    return Report(status, payload, provenance=tuple(r.anchor for r in results))


# ---------------------------------------------------------------------------
# argument parsing


# argparse's own pattern (-3, -.5) widened by -p/q: such words are elements,
# not options, since no option of this grammar looks like a number
_NEGATIVE_NUMBER = re.compile(r"^-\d+(?:/\d+)?$|^-\d*\.\d+$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise DslError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The grammar, built at the first call and shared by every later one.

    ``parse_args`` leaves the parser as it was and returns a fresh namespace,
    so one parser serves every request of a process.
    """
    parser = _Parser(prog="pmvroots", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, handler, *, target=True, element=False):
        p = sub.add_parser(verb)
        if target:
            p.add_argument("target", help="algebra expression")
        if element:
            p.add_argument("element", help="element expression")
        p.add_argument("--json", action="store_true")
        p.add_argument("--approx", action="store_true")
        p.set_defaults(handler=handler, bound=None, kind="strict", quantifier=None)
        return p

    add("analyze", _cmd_analyze)
    p = add("sqrt", _cmd_sqrt, element=True)
    p.add_argument("--bound", type=int, default=None)
    add("sqrtmap", _cmd_sqrtmap)
    add("ideals", _cmd_ideals)
    p = add("closure", _cmd_closure)
    p.add_argument("--kind", choices=("strict", "sqrt"), default="strict")
    add("member", _cmd_member, element=True)
    add("decompose", _cmd_decompose, element=True)
    p = add("greatest", _cmd_greatest)
    p.add_argument("--quantifier", choices=("ambient", "relative"), default=None)
    add("verify-paper", _cmd_verify, target=False)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser().parse_args(argv)
        report = args.handler(args)
        as_json = args.json
    except Exception as exc:
        if isinstance(exc, UnsupportedOperationError):
            report = Report("unsupported", {"message": str(exc)})
        elif isinstance(exc, PmvError):
            report = Report("error", {"message": str(exc)})
        else:  # a fault of the program itself still ends in a report
            import logging  # only on this path: logging is not loaded otherwise

            logging.getLogger(__name__).debug("internal error", exc_info=exc)
            report = Report("error", {"message": f"internal error: {type(exc).__name__}: {exc}"})
        as_json = "--json" in argv
    try:
        print(report.to_json() if as_json else report.to_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (``| head``): send what is left, and the flush at
        # interpreter shutdown, to devnull so that no traceback follows
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
