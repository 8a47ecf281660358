"""The benchmark's tracer keeps its contract with the package.

``perfbench/tracer.py`` re-binds every public function and method of each
layer module, runs hooks after some of them and puts everything back on
``uninstall``.  A traced benchmark run fails as a whole when any of that
raises outside a request, so this test installs a tracer, runs one request
of every verb through ``cli.main`` and requires:

* every report, exit code included, to equal the untraced one;
* every per-layer metric to be a finite number, and the after-hooks to have
  counted what they count;
* the spans to be written as one JSON object a line;
* ``uninstall`` to put back every attribute of the package, its layer
  modules and their classes, the very same objects.
"""

import contextlib
import importlib
import io
import json
import math
import pathlib
import sys
import time

import pmvroots
from pmvroots import cli
from pmvroots.errors import PmvError

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from tracer import LAYERS, Tracer  # noqa: E402

ARGVS = [
    ["analyze", "prod(M(1),M(2))"],
    ["analyze", "M(3"],
    ["sqrt", "M(3)", "1/3"],
    ["sqrt", "gamma(twist3(Z))", "(0,0,0)", "--bound", "5"],
    ["sqrt", "gamma(twist3(Z))", "(1,-4,6)", "--bound", "5", "--json"],
    ["sqrt", "gamma(twist3(Z))", "(1,-1,2)", "--bound", "5"],
    ["sqrtmap", "gamma(Z/3)"],
    ["ideals", "prod(M(2),M(3))", "--json"],
    ["closure", "M(6)", "--kind", "strict"],
    ["closure", "gamma(twist4(Z))", "--kind", "strict", "--json"],
    ["closure", "gamma(twist4(D))", "--kind", "sqrt"],
    ["closure", "gamma(lex(Z/2,quad(-1+1*sqrt(2))))", "--kind", "strict", "--json"],
    ["closure", "gamma(lex(Z/1,Z/3))", "--kind", "sqrt"],
    ["closure", "gamma(prod(twist4(Q),Z/6))", "--kind", "strict"],
    ["closure", "gamma(prod(Z/1,twist4(D),Z/1))", "--kind", "sqrt", "--json"],
    ["member", "gamma(twist4(Z))", "(0,3,-2,10)", "--json"],
    ["decompose", "gamma(D/3)", "1/3"],
    ["decompose", "gamma(twist4(Z))", "(0,10,-7,5)"],
    ["greatest", "M(4)", "--quantifier", "relative"],
    ["greatest", "interval(prod(M(7),M(1),M(4)),(1,0,1))", "--json"],
    ["verify-paper"],
    ["verify-paper", "--json"],
    ["-h"],
    ["bogus"],
]


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def attributes():
    """(owner, name, value) for every attribute of the package, its layer
    modules and the classes those modules define."""
    modules = [pmvroots] + [importlib.import_module(f"pmvroots.{layer}") for layer in LAYERS]
    owners = modules + [obj for mod in modules for obj in vars(mod).values()
                        if isinstance(obj, type) and obj.__module__ == mod.__name__]
    return [(owner, name, value) for owner in owners for name, value in vars(owner).items()]


def test_a_traced_request_of_every_verb_keeps_the_report_and_the_package(tmp_path):
    before = attributes()
    untraced = [run(argv) for argv in ARGVS]
    add, main = pmvroots.ogroups.Twist3.add, cli.main
    tracer = Tracer(pmvroots, PmvError)
    t0 = time.perf_counter()
    tracer.install()
    try:
        assert pmvroots.ogroups.Twist3.add is not add and cli.main is not main
        traced = []
        for i, argv in enumerate(ARGVS):
            tracer.begin_request(i)
            traced.append(run(argv))
            tracer.end_request()
    finally:
        tracer.uninstall()
    for argv, want, got in zip(ARGVS, untraced, traced):
        assert got == want, argv

    metrics = tracer.metrics(len(ARGVS), 1.0)
    assert all(math.isfinite(m["value"]) for m in metrics.values()), metrics
    for name in ("closures.crit_samples", "worked_examples.checks_passed", "ogroups.op_calls",
                 "pmv.table_cells_built", "dsl.errors"):
        assert metrics[name]["value"] > 0, name
    assert tracer.extra["checks_passed"] == 2 * 28  # two verify-paper requests

    spans = tmp_path / "spans.jsonl"
    tracer.write_spans(spans, t0)
    lines = [json.loads(line) for line in spans.read_text().splitlines()]
    assert lines and all(set(s) == {"id", "parent", "request", "name", "start", "end"} for s in lines)
    assert {s["request"] for s in lines} == set(range(len(ARGVS)))

    after = attributes()
    assert [(owner, name) for owner, name, _ in after] == [(owner, name) for owner, name, _ in before]
    moved = [f"{getattr(owner, '__name__', owner)}.{name}"
             for (owner, name, old), (_, _, new) in zip(before, after) if new is not old]
    assert moved == []
