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

``-h`` or ``--help`` answers with the verb table, unless a bad option value
comes before it.  Reports carry a status (ok, not_exists, absent, open_problem,
unsupported, error), a verb-specific payload with exact values rendered
as strings, and the list of reference anchors exercised.  Exit codes:
0 ok, 1 negative mathematical outcome, 2 unsupported, 3 error.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

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
from .scalars import format_value

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


def _approximate(value) -> object:
    if isinstance(value, tuple):
        return [_approximate(v) for v in value]
    return float(value)


def _sorted_values(A: pmv.Algebra, elems) -> list[str]:
    """The values of elements of ``A`` in ascending order.  A finite algebra
    of the DSL lists its carrier in that order, so its elements sort by
    carrier index."""
    if isinstance(A, pmv.FiniteAlgebra):
        return [format_value(A.values[i]) for i in sorted(x.payload for x in elems)]
    return [format_value(v) for v in sorted(pmv.value_of(x) for x in elems)]


def _absent(reason: str, witness: pmv.Element) -> Report:
    return Report("absent", {"reason": reason, "witness": pmv.format_element(witness)})


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_analyze(args) -> Report:
    A = dsl.parse_algebra(args.target)
    if isinstance(A, pmv.GammaAlgebra):
        desc = A.desc
        central, witness = og.is_unit_central(desc)
        symmetric, sym_witness = pmv.is_symmetric(A)
        payload = {
            "kind": "group_interval",
            "group": dsl.format_group(desc),
            "linear": desc.linear,
            "abelian": desc.abelian,
            "two_divisible": desc.two_divisible,
            "unit_central": central,
            "symmetric": symmetric,
        }
        if witness is not None:
            payload["noncentral_witness"] = format_value(witness)
        if sym_witness is not None:
            payload["asymmetry_witness"] = pmv.format_element(sym_witness)
        try:
            payload["boolean_skeleton"] = _sorted_values(A, pmv.boolean_skeleton(A))
        except UnsupportedOperationError:
            payload["boolean_skeleton"] = "unsupported"
    else:
        payload = {
            "kind": "finite",
            "size": A.size,
            "symmetric": pmv.is_symmetric(A)[0],
            "boolean_skeleton": _sorted_values(A, pmv.boolean_skeleton(A)),
        }
        if A.size > 1:
            payload["chain_lengths"] = pmv.chain_lengths(A)
    return Report("ok", payload)


def _cmd_sqrt(args) -> Report:
    A = dsl.parse_algebra(args.target)
    x = dsl.parse_element(A, args.element)
    res = roots.element_sqrt(A, x)
    payload: dict = {"algebra": args.target, "element": pmv.format_element(x)}
    if res.exists:
        payload["root"] = pmv.format_element(res.value)
        if args.approx:
            payload["root_approx"] = _approximate(pmv.value_of(res.value))
        status = "ok"
    else:
        payload["reason"] = res.reason
        if res.witness is not None:
            payload["witness"] = pmv.format_element(res.witness)
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
        return _absent("some element has no square root", witness)
    payload = {
        "strict": smap.strict,
        "r0": pmv.format_element(smap.r0),
        "w": pmv.format_element(smap.w),
    }
    if M.size <= 32:
        payload["mapping"] = [[pmv.format_element(x), pmv.format_element(r)] for x, r in sorted(
            smap.mapping.items(), key=lambda kv: kv[0].payload
        )]
    return Report("ok", payload)


def _cmd_sqrtmap(args) -> Report:
    A = dsl.parse_algebra(args.target)
    if isinstance(A, pmv.FiniteAlgebra):
        return _sqrtmap_finite(A)
    desc = A.desc
    symmetric, witness = pmv.is_symmetric(A)
    if not symmetric:
        return _absent("the two negations differ, so no strict mapping exists", witness)
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
                "r0": pmv.format_element(r0),
                "w": pmv.format_element(pmv.odot(pmv.lneg(r0), pmv.lneg(r0))),
            },
        )
    # the interval is not closed under the root formula; exhibit an element
    # without a square root
    r0 = roots.sqrt_zero(A)
    if not r0.exists:
        return _absent("the set of nilpotents has no top", pmv.zero_elem(A))
    payload = desc.rootless()
    if payload is not None:
        witness = pmv.element_of(A, payload)
        if not roots.element_sqrt(A, witness).exists:
            return _absent("an element of the interval has no square root", witness)
    raise UnsupportedOperationError("could not classify the square root mapping")


def _cmd_ideals(args) -> Report:
    A = dsl.parse_algebra(args.target)
    ideals = enumerate_ideals(A)
    primes = normal_primes(A)
    e = nn12_element(A)
    payload: dict = {
        "ideals": [
            {
                "top": pmv.format_element(info.top),
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
        "x1_tops": [pmv.format_element(p.top) for p in primes if p.is_boolean_ideal],
        "x2_tops": [pmv.format_element(p.top) for p in primes if not p.is_boolean_ideal],
        # I1 = [0, e-] and I2 = [0, e]
        "i1_top": pmv.format_element(pmv.lneg(e)),
        "i2_top": pmv.format_element(e),
        "bsi": is_bsi(A),
        "splitting_element": pmv.format_element(e),
    }
    # the flags are None exactly when A has no total square root mapping
    if ideals[0].is_strict_square_ideal is not None:
        r = root_map_ideals(A)
        payload.update(
            strict_map=r.strict_map,
            least_strict_square_ideal_top=pmv.format_element(r.least_strict_top),
            least_boolean_ideal_top=pmv.format_element(r.least_boolean_top),
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
    return Report("ok", {"member": True, "element": pmv.format_element(x)})


def _cmd_decompose(args) -> Report:
    A = dsl.parse_algebra(args.target)
    C = cl.strict_closure(A)
    closed = C.closed_algebra
    x = dsl.parse_element(closed, args.element)
    dec = cl.corrdp_decompose(C, x)
    payload = {
        "base": dsl.format_group(C.base),
        "closed": dsl.format_group(C.closed),
        "element": pmv.format_element(x),
        "doubling_exponent": dec.n,
        "part_count": 2**dec.n,
        "parts": [pmv.format_element(p) for p in dec.parts],
        "minimal": dec.minimal,
    }
    if args.approx:
        payload["element_approx"] = _approximate(pmv.value_of(x))
    return Report("ok", payload)


def _greatest_payload(A: pmv.FiniteAlgebra, res: roots.GreatestSqrtResult) -> dict:
    return {
        "stages": [_sorted_values(A, stage) for stage in res.stages],
        "fixpoint": _sorted_values(A, res.fixpoint),
        "stage_is_subalgebra": list(res.subalgebra_flags),
        "fixpoint_is_subalgebra": res.fixpoint_is_subalgebra,
    }


def _cmd_greatest(args) -> Report:
    A = dsl.parse_algebra(args.target)
    if not isinstance(A, pmv.FiniteAlgebra):
        raise UnsupportedOperationError("the stage iteration needs a finite algebra")
    if args.quantifier is not None:
        res = roots.greatest_sqrt_subalgebra(A, quantifier=args.quantifier)
        return Report("ok", {args.quantifier: _greatest_payload(A, res)})
    ambient = roots.greatest_sqrt_subalgebra(A, quantifier="ambient")
    relative = roots.greatest_sqrt_subalgebra(A, quantifier="relative")
    return Report(
        "ok",
        {
            "ambient": _greatest_payload(A, ambient),
            "relative": _greatest_payload(A, relative),
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


# each verb's handler, positionals and valued options; every verb also takes
# the flags --json, --approx and -h/--help
_VERBS = {
    "analyze": (_cmd_analyze, ("target",), ()),
    "sqrt": (_cmd_sqrt, ("target", "element"), ("--bound",)),
    "sqrtmap": (_cmd_sqrtmap, ("target",), ()),
    "ideals": (_cmd_ideals, ("target",), ()),
    "closure": (_cmd_closure, ("target",), ("--kind",)),
    "member": (_cmd_member, ("target", "element"), ()),
    "decompose": (_cmd_decompose, ("target", "element"), ()),
    "greatest": (_cmd_greatest, ("target",), ("--quantifier",)),
    "verify-paper": (_cmd_verify, (), ()),
}
# a valued option's values, an int or one of the choices; its field is its name
_VALUED = {"--bound": int, "--kind": ("strict", "sqrt"), "--quantifier": ("ambient", "relative")}
_HELP = ("-h", "--help")
_FLAGS = ("--json", "--approx", *_HELP)

# argparse's pattern (-3, -.5) widened by -p/q: such words are elements, not
# options, since no option of this grammar looks like a number
_NEGATIVE_NUMBER = re.compile(r"^-\d+(?:/\d+)?$|^-\d*\.\d+$")


def _is_positional(word: str, known) -> bool:
    """A word that names no option in ``known``, alone or before ``=``, and
    does not start with ``-``, or is ``-``, a negative number or has a space."""
    return word[:1] != "-" or word.partition("=")[0] not in known and (
        len(word) == 1 or " " in word or _NEGATIVE_NUMBER.match(word) is not None)


def _value(name: str, value: str, values):
    """``value`` read as ``values`` says: an int, or one of the choices."""
    if values is int:
        try:
            return int(value)
        except ValueError:
            raise DslError(f"argument {name}: invalid int value: {value!r}") from None
    if value not in values:
        choices = ", ".join(map(repr, values))
        raise DslError(f"argument {name}: invalid choice: {value!r} (choose from {choices})")
    return value


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The fields the handlers read, or None when argv asks for the usage.

    Options may come before, between or after the positionals, as ``--opt
    value`` or ``--opt=value``, and a repeated one keeps its last value; an
    option is named in full, never by a prefix.  Every word after the first
    ``--`` is a positional, and so is a negative number.  Errors carry
    argparse's messages, in its order: a bad option as it is met, then a
    missing positional, then the unrecognized words.  Among those, as in
    argparse, is a ``--`` met when every positional is filled, unless the
    word before it filled the last one.
    """
    args = {"approx": False, "bound": None, "kind": "strict", "quantifier": None}
    known, slots, extras, dashed = _HELP, None, [], False
    i = filled = 0  # the next word, and the one after the last that filled a positional
    while i < len(argv):
        word, i = argv[i], i + 1
        option, eq, value = word.partition("=")
        if word == "--" and slots is not None and not dashed:
            dashed = True
            if not slots and filled != i - 1:
                extras.append(word)
        elif dashed or _is_positional(word, known) or word == "--" and i < len(argv):
            if slots is None:  # the verb
                args["handler"], names, valued = _VERBS[_value("verb", word, _VERBS)]
                slots, known = list(names), (*_FLAGS, *valued)
            elif slots:
                args[slots.pop(0)], filled = word, i
            else:
                extras.append(word)
        elif option not in known:
            extras.append(word)
        elif option in _FLAGS:
            if eq:
                name = "-h/--help" if option in _HELP else option
                raise DslError(f"argument {name}: ignored explicit argument {value!r}")
            if option in _HELP:
                return None
            if option == "--approx":  # main reads --json off argv
                args["approx"] = True
        else:
            if not eq:
                if i == len(argv) or not _is_positional(argv[i], known):
                    raise DslError(f"argument {option}: expected one argument")
                value, i = argv[i], i + 1
            args[option[2:]] = _value(option, value, _VALUED[option])
    missing = ["verb"] if slots is None else slots
    if missing:
        raise DslError("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise DslError("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**args)


def _usage() -> Report:
    """The report of -h and --help: the verb table."""

    def shown(option):
        values = _VALUED[option]
        return f"[{option} {'INT' if values is int else '|'.join(values)}]"

    verbs = [" ".join((verb, *names, *map(shown, valued))) for verb, (_, names, valued) in _VERBS.items()]
    return Report("ok", {"usage": "pmvroots VERB [TARGET] [ELEMENT] [--json] [--approx] [OPTION VALUE]",
                         "verbs": verbs})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the one reading of --json, for the report and the error alike: no verb
    # takes the word as a value
    as_json = "--json" in argv
    try:
        args = _parse(argv)
        report = _usage() if args is None else args.handler(args)
    except Exception as exc:
        if isinstance(exc, UnsupportedOperationError):
            report = Report("unsupported", {"message": str(exc)})
        elif isinstance(exc, PmvError):
            report = Report("error", {"message": str(exc)})
        else:  # a fault of the program itself still ends in a report
            import logging  # only on this path: logging is not loaded otherwise

            logging.getLogger(__name__).debug("internal error", exc_info=exc)
            report = Report("error", {"message": f"internal error: {type(exc).__name__}: {exc}"})
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
