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
import json
import os
import sys
from dataclasses import dataclass, field

from . import closures as cl
from . import dsl
from . import ogroups as og
from . import pmv
from . import roots
from .errors import (
    CarrierError,
    DslError,
    MismatchError,
    ParameterError,
    PmvError,
    ResourceLimitError,
    UnsupportedOperationError,
)
from .ideals import (
    decomposition_by_w,
    enumerate_ideals,
    is_bsi,
    nn12_element,
    partition_primes,
    strict_square_ideals,
)
from .scalars import Fraction

EXIT_CODES = {
    "ok": 0,
    "not_exists": 1,
    "absent": 1,
    "open_problem": 1,
    "unsupported": 2,
    "error": 3,
}


@dataclass(frozen=True)
class Report:
    status: str
    payload: dict
    provenance: tuple[str, ...] = field(default=())

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]

    def to_json(self) -> str:
        body = {
            "status": self.status,
            "payload": self.payload,
            "provenance": list(self.provenance),
        }
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


def _ideal_top(M: pmv.FiniteAlgebra, members) -> pmv.Element:
    for x in members:
        if all(pmv.leq(y, x) for y in members):
            return x
    raise ParameterError("member set has no top element")


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
                "linear": og.is_linear(desc),
                "abelian": og.is_abelian(desc),
                "two_divisible": og.is_two_divisible(desc),
                "unit_central": central,
                "symmetric": symmetric,
            }
        )
        if witness is not None:
            payload["noncentral_witness"] = dsl.format_element_value(witness.payload)
        if sym_witness is not None:
            payload["asymmetry_witness"] = _fmt(sym_witness)
        try:
            payload["boolean_skeleton"] = _sorted_values(pmv.boolean_skeleton(A))
        except UnsupportedOperationError:
            payload["boolean_skeleton"] = "unsupported"
    else:
        symmetric, sym_witness = pmv.is_symmetric(A)
        payload.update(
            {
                "kind": "finite",
                "size": A.size,
                "symmetric": symmetric,
                "boolean_skeleton": _sorted_values(pmv.boolean_skeleton(A)),
            }
        )
        if sym_witness is not None:
            payload["asymmetry_witness"] = _fmt(sym_witness)
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
        witness = next(
            x for x in pmv.carrier(M) if not roots.sqrt_element_finite(M, x).exists
        )
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
    if og.is_two_divisible(desc):
        half = og.try_halve(og.unit(desc))
        return Report(
            "ok",
            {
                "strict": True,
                "formula": "(x + u) / 2",
                "r0": dsl.format_element_value(half.payload),
                "w": dsl.format_element_value(og.zero(desc).payload),
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
            return (head, og.zero(desc.tail).payload)
        if isinstance(desc.tail, og.ScaledInt):
            return (og.zero(desc.head).payload, Fraction(1, desc.tail.n))
        return None
    if isinstance(desc, og.ProductGroup):
        for i, f in enumerate(desc.factors):
            inner = _rootless_payload(f)
            if inner is not None:
                return tuple(
                    inner if j == i else og.zero(g).payload for j, g in enumerate(desc.factors)
                )
    return None


def _cmd_ideals(args) -> Report:
    A = dsl.parse_algebra(args.target)
    if not isinstance(A, pmv.FiniteAlgebra):
        raise UnsupportedOperationError("ideal enumeration needs a finite algebra")
    smap = roots.sqrt_map(A)
    ideals = enumerate_ideals(A, smap=smap)
    part = partition_primes(A, ideals=ideals)
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
        "x1_tops": [_fmt(p.top) for p in part.x1],
        "x2_tops": [_fmt(p.top) for p in part.x2],
        "i1_top": _fmt(_ideal_top(A, part.i1)),
        "i2_top": _fmt(_ideal_top(A, part.i2)),
        "bsi": is_bsi(A, part=part),
    }
    a = nn12_element(A, part=part)
    payload["splitting_element"] = _fmt(a) if a is not None else None
    if smap is not None:
        report = strict_square_ideals(A, smap=smap, ideals=ideals, part=part)
        dec = decomposition_by_w(A, smap=smap)
        payload["strict_map"] = smap.strict
        payload["least_strict_square_ideal_top"] = _fmt(report.least_strict.top)
        payload["least_boolean_ideal_top"] = _fmt(report.least_boolean.top)
        payload["i1_equals_least_boolean"] = report.i1_equals_least_boolean
        payload["i2_equals_least_strict"] = report.i2_equals_least_strict
        payload["w_decomposition"] = {
            "boolean_part_size": dec.boolean_part.size,
            "strict_part_size": dec.strict_part.size,
            "boolean_part_is_boolean": dec.boolean_part_is_boolean,
            "strict_part_map_strict": dec.strict_part_map_strict,
            "induced_root_matches": dec.induced_root_matches,
        }
    return Report("ok", payload)


def _closure_payload(C: cl.ClosureDescriptor) -> dict:
    crit = cl.crit_check(C)
    return {
        "descriptor": C.to_text(),
        "kind": C.kind,
        "factors": C.to_json()["factors"],
        "base": dsl.format_group(C.base_descriptor()),
        "closed": dsl.format_group(C.closed_descriptor()),
        "embedding": "coordinatewise inclusion",
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
    closed = C.closed_algebra()
    x = dsl.parse_element(closed, args.element)
    dec = cl.corrdp_decompose(C, x)
    payload = {
        "base": dsl.format_group(C.base_descriptor()),
        "closed": dsl.format_group(C.closed_descriptor()),
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DslError(message)


def _build_parser() -> argparse.ArgumentParser:
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        report = args.handler(args)
    except UnsupportedOperationError as exc:
        report = Report("unsupported", {"message": str(exc)})
        args = argparse.Namespace(json="--json" in (argv or sys.argv[1:]))
    except (DslError, CarrierError, ParameterError, MismatchError, ResourceLimitError, PmvError) as exc:
        report = Report("error", {"message": str(exc)})
        args = argparse.Namespace(json="--json" in (argv or sys.argv[1:]))
    try:
        print(report.to_json() if getattr(args, "json", False) else report.to_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (``| head``): send what is left, and the flush at
        # interpreter shutdown, to devnull so that no traceback follows
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
