"""Per-layer tracing of pmvroots, installed from outside the package.

Every public function of each layer module is replaced by a timing wrapper,
in its own module and wherever a sibling module re-bound it with
``from .x import y``.  So are the public methods of the layer's classes,
``FiniteAlgebra.__init__`` and ``__hash__`` and the arithmetic of
``QuadValue``.  ``uninstall`` puts every original back.

Each wrapped call keeps its self time: its duration minus the time of the
wrapped calls it made.  A call that enters a layer from another layer (or
from the benchmark) is a boundary call.  Boundary calls are recorded as spans
(name, start, end, parent span, request), except for the element-level
operations (``PMV_OPS``, ``HOT_EXTRA`` and everything in ``HOT_LAYERS``),
which are only counted and timed so the trace stays small.  Spans stay in
memory until ``write_spans``.
"""

from __future__ import annotations

import inspect
import itertools
import json
import time
import types
from collections import Counter, defaultdict

LAYERS = ("scalars", "ogroups", "pmv", "roots", "ideals", "closures", "dsl", "cli", "worked_examples")

# element-level operations of pmv, counted as pmv.op_calls
PMV_OPS = frozenset(
    f"pmv.{name}"
    for name in ("oplus", "odot", "lneg", "rneg", "join", "meet", "arrow", "leq", "ominus",
                 "is_boolean_elem", "distance", "element_of", "value_of", "zero_elem", "one_elem")
)
HASH = "pmv.FiniteAlgebra.__hash__"
CONSTRUCT = "pmv.FiniteAlgebra.__init__"
QUAD_PREFIX = "scalars.QuadValue."
RENDER = frozenset({"cli.Report.to_json", "cli.Report.to_text"})
# called per element: counted and timed, never recorded as spans
HOT_EXTRA = frozenset({HASH, "pmv.carrier", "pmv.format_value", "pmv.format_element",
                       "dsl.format_element", "dsl.format_element_value", "dsl.format_group",
                       "roots.sqrt_element_finite", "roots.sqrt_in_subset"})
HOT_LAYERS = frozenset({"scalars", "ogroups"})
QUAD_DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__lt__", "__le__", "__gt__", "__ge__")


class Tracer:
    def __init__(self, package, error_type):
        self.package = package
        self.error_type = error_type
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.total_time = defaultdict(float)
        self.entries = Counter()  # boundary calls into each layer
        self.errors = Counter()  # errors raised out of each layer
        self.spans = []
        self.extra = Counter()  # table cells, certificate samples, ledger checks
        self.request = None
        self._distinct = defaultdict(dict)  # per request: key -> {id: object}
        self.distinct_total = Counter()
        self._restore = []
        self._frames = []  # [layer, time spent in wrapped children] per active call
        self._span_stack = []
        self._ids = itertools.count()

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(key, layer, owner, attribute name, original) for everything wrapped."""
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    yield f"{layer}.{name}", layer, mod, name, obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, member in vars(obj).items():
                        wanted = (not attr.startswith("_")
                                  or f"{layer}.{name}.{attr}" in (HASH, CONSTRUCT)
                                  or (name == "QuadValue" and attr in QUAD_DUNDERS))
                        if wanted and isinstance(member, (staticmethod, types.FunctionType)):
                            yield f"{layer}.{name}.{attr}", layer, obj, attr, member

    def install(self):
        wrappers = {}
        hooks = self._after_hooks()
        for key, layer, owner, attr, original in self._targets():
            func = original.__func__ if isinstance(original, staticmethod) else original
            wrapper = self._wrap(key, layer, func, hooks.get(key))
            wrappers[func] = wrapper
            self._set(owner, attr, staticmethod(wrapper) if isinstance(original, staticmethod) else wrapper)
        # names that sibling modules (and the package) bound with ``from .x import y``
        for mod in [self.package] + [getattr(self.package, layer) for layer in LAYERS]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, name, wrappers[obj])

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, key, layer, func, after):
        hot = layer in HOT_LAYERS or key in PMV_OPS or key in HOT_EXTRA or key.startswith(QUAD_PREFIX)
        frames, span_stack, spans = self._frames, self._span_stack, self.spans
        calls, self_time, total_time = self.calls, self.self_time, self.total_time
        entries, errors, error_type = self.entries, self.errors, self.error_type
        next_id, clock = self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = frames[-1] if frames else None
            boundary = parent is None or parent[0] != layer
            span = next(next_id) if boundary and not hot else None
            frame = [layer, 0.0]
            frames.append(frame)
            if span is not None:
                span_stack.append(span)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except error_type:
                if boundary:
                    errors[layer] += 1
                raise
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                self_time[key] += elapsed - frame[1]
                total_time[key] += elapsed
                calls[key] += 1
                if parent is not None:
                    parent[1] += elapsed
                if boundary:
                    entries[layer] += 1
                if span is not None:
                    span_stack.pop()
                    spans.append((span, span_stack[-1] if span_stack else None,
                                  self.request, key, start, end))
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        wrapper.__qualname__ = func.__qualname__
        wrapper.__doc__ = func.__doc__
        return wrapper

    def _after_hooks(self):
        extra = self.extra

        def cells(args, _):
            extra["table_cells"] += 4 * args[0].size ** 2  # oplus, odot, join and meet tables

        def distinct(key):
            def note(args, _):
                self._distinct[key][id(args[0])] = args[0]
            return note

        def samples(_, result):
            extra["crit_samples"] += result.samples_checked

        def ledger(_, result):
            extra["checks_passed"] += sum(r.ok for r in result)

        return {
            CONSTRUCT: cells,
            "roots.sqrt_map": distinct("roots.sqrt_map"),
            "ideals.enumerate_ideals": distinct("ideals.enumerate_ideals"),
            "closures.crit_check": samples,
            "worked_examples.run_all": ledger,
        }

    # -- requests ---------------------------------------------------------

    def begin_request(self, request_id):
        self.request = request_id

    def end_request(self):
        for key, objects in self._distinct.items():
            self.distinct_total[key] += len(objects)
        self._distinct.clear()
        self.request = None

    # -- results ----------------------------------------------------------

    def metrics(self, requests: int, overhead_ratio: float) -> dict:
        """Per-layer metrics, each normalised per request (base ``requests``)."""
        per = 1.0 / requests

        def ms(keys):
            return 1000.0 * sum(self.self_time[k] for k in keys) * per

        by_layer = defaultdict(list)
        for key in self.self_time:
            by_layer[key.split(".", 1)[0]].append(key)

        def useful(key):
            return self.distinct_total[key] / self.calls[key] if self.calls[key] else 1.0

        total_self = sum(self.self_time.values())
        m = {
            "pmv.algebra_hash_calls": (self.calls[HASH] * per, "calls/req"),
            "pmv.algebra_hash_ms": (ms([HASH]), "ms/req"),
            "pmv.algebra_hash_share": (self.self_time[HASH] / total_self if total_self else 0.0, "ratio"),
            "pmv.construct_calls": (self.calls[CONSTRUCT] * per, "calls/req"),
            "pmv.construct_ms": (ms([CONSTRUCT]), "ms/req"),
            "pmv.table_cells_built": (self.extra["table_cells"] * per, "cells/req"),
            "pmv.op_calls": (sum(self.calls[k] for k in PMV_OPS) * per, "calls/req"),
            "pmv.op_self_ms": (ms(PMV_OPS), "ms/req"),
            "pmv.self_ms": (ms(by_layer["pmv"]), "ms/req"),
            "roots.sqrt_map_calls": (self.calls["roots.sqrt_map"] * per, "calls/req"),
            "roots.sqrt_map_useful_ratio": (useful("roots.sqrt_map"), "ratio"),
            "roots.self_ms": (ms(by_layer["roots"]), "ms/req"),
            "ideals.enumerate_calls": (self.calls["ideals.enumerate_ideals"] * per, "calls/req"),
            "ideals.partition_calls": (self.calls["ideals.partition_primes"] * per, "calls/req"),
            "ideals.enumerate_useful_ratio": (useful("ideals.enumerate_ideals"), "ratio"),
            "ideals.self_ms": (ms(by_layer["ideals"]), "ms/req"),
            "closures.calls": (self.entries["closures"] * per, "calls/req"),
            "closures.crit_samples": (self.extra["crit_samples"] * per, "samples/req"),
            "closures.self_ms": (ms(by_layer["closures"]), "ms/req"),
            "ogroups.op_calls": (sum(n for k, n in self.calls.items() if k.startswith("ogroups.")) * per,
                                 "calls/req"),
            "ogroups.self_ms": (ms(by_layer["ogroups"]), "ms/req"),
            "scalars.quad_calls": (sum(n for k, n in self.calls.items() if k.startswith(QUAD_PREFIX)) * per,
                                   "calls/req"),
            "scalars.self_ms": (ms(by_layer["scalars"]), "ms/req"),
            "dsl.calls": (self.entries["dsl"] * per, "calls/req"),
            "dsl.self_ms": (ms(by_layer["dsl"]), "ms/req"),
            "cli.self_ms": (ms(by_layer["cli"]), "ms/req"),
            "cli.render_ms": (1000.0 * sum(self.total_time[k] for k in RENDER) * per, "ms/req"),
            "worked_examples.self_ms": (ms(by_layer["worked_examples"]), "ms/req"),
            "worked_examples.checks_passed": (self.extra["checks_passed"] * per, "checks/req"),
        }
        for layer in LAYERS:
            m[f"{layer}.errors"] = (self.errors[layer] * per, "errors/req")
        m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return {name: {"value": v, "unit": unit} for name, (v, unit) in m.items()}

    def write_spans(self, path, t0: float):
        """One JSON object per span; times in seconds from ``t0``."""
        with open(path, "w") as fh:
            for span, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": span, "parent": parent, "request": request, "name": name,
                                     "start": round(start - t0, 7), "end": round(end - t0, 7)}) + "\n")
