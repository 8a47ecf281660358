#!/usr/bin/env python3
"""Benchmark for pmvroots: seeded CLI workloads driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
One client calls ``pmvroots.cli.main(argv)`` in a closed loop (the next
request goes out when the previous report is back), single process, no
threads.  Requests come in whole blocks until ``--seconds`` of busy time
have passed.  Each report is checked as it arrives, outside the timed span,
against the independent oracle in ``oracle.py`` and, for ``--json``
reports, against ``docs/report-schema.json``; the run keeps only
latencies, counters and failures, so its own memory does not grow with the
number of requests.

``--trace 0`` prints the end-to-end metrics: requests per second of busy
time, p50 and p90 latency of ``cli.main`` (parse, compute and render), the
median cold import time of ``pmvroots.cli`` in fresh interpreters, and the
peak resident memory of this process.  Times are scaled to a reference
machine speed measured around them (see ``REFERENCE_LOOP_MS``); the
measured values are printed next to them.  ``--trace 1`` runs a third of the time untraced, replays the
same requests with ``tracer.py`` installed, checks that both give identical
reports, and prints the per-layer metrics with the tracing overhead.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines above it give
the same metrics with units, the traffic mix, and every failing argv.
Details, and the spans of a traced run, go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "report-schema.json"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

IMPORT_REPEATS = 11
# On a shared virtual machine the CPU speed drifts by a quarter within tens of
# seconds and jumps between slow and fast spells within seconds, so every run
# times a fixed piece of Python work (outside the timed spans) before and
# after each stretch of requests, and reports each time scaled by the two
# loops around it to the speed at which that work takes REFERENCE_LOOP_MS.
# One factor for the whole run steadies sums (requests per second) but not
# percentiles, which jump with the share of time spent in slow spells.
REFERENCE_LOOP_MS = 4.0
CALIBRATE_EVERY_S = 0.25  # busy seconds between two timings of the loop
# A cold import runs in a child, maybe on another CPU than this process, so the
# child times a loop of its own just before and just after the import.  That
# loop uses built-ins only: building Fractions first would import modules that
# pmvroots.cli imports and take them out of the measured import.
IMPORT_LOOP_REFERENCE_MS = 1.5
IMPORT_PROBE = """
import sys, time
def loop():
    start = time.perf_counter()
    table = {}
    for i in range(3000):
        key = (i * 7919 % 1013, i % 13, (i, -i))
        table[key] = hash(key) ^ i
    sum(v for k, v in table.items() if k[1] < 7)
    return time.perf_counter() - start
before = min(loop(), loop())
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import pmvroots.cli
took = time.perf_counter() - start
print(took, before, min(loop(), loop()))
"""
# one request per verb on tiny inputs, run before timing so lazy imports are done
WARMUP = (
    ["analyze", "M(2)"], ["sqrt", "M(3)", "1/3"], ["sqrtmap", "gamma(Z/3)"], ["ideals", "M(2)"],
    ["closure", "M(2)", "--kind", "sqrt"], ["member", "gamma(Q)", "1/2"],
    ["decompose", "M(2)", "1/2"], ["greatest", "M(2)"], ["verify-paper", "--json"],
)

# Requests the oracle rejects because of a known program defect: on a group
# interval whose unit cannot be halved but whose 0 has a root, sqrtmap names a
# witness that has a square root.  They stay out of the timed mix and are
# checked once per run, outside ``attempted``; the report says whether each
# defect is still there.
KNOWN_DEFECTS = (
    oracle.Request("sqrtmap", oracle.Gamma(oracle.Scaled("Z", 5))),
    oracle.Request("sqrtmap", oracle.Gamma(oracle.GProd(
        (oracle.Scaled("Z", 3), oracle.Scaled("D", 5), oracle.Rat())))),
)


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program, no schema)."""


def load_program():
    if not (SRC / "pmvroots" / "cli.py").is_file() or not SCHEMA.is_file():
        raise SetupError(f"no pmvroots sources or report schema under {ROOT}")
    sys.path.insert(0, str(SRC))
    import pmvroots
    from pmvroots import cli
    from pmvroots.errors import PmvError

    if Path(pmvroots.__file__).resolve().parent != SRC / "pmvroots":
        raise SetupError(f"imported pmvroots from {pmvroots.__file__}, not from {SRC}")
    return pmvroots, cli, PmvError


def measure_setup() -> tuple[float, float]:
    """Median cold import time of pmvroots.cli in fresh interpreters:
    (at reference speed, as measured).  Each import is scaled by the child's
    own loops run just before and just after it."""
    scaled, measured = [], []
    for i in range(IMPORT_REPEATS + 1):
        out = subprocess.run([sys.executable, "-E", "-s", "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        took, before, after = map(float, out.stdout.split())
        if i:  # the first import may write bytecode caches
            measured.append(took)
            scaled.append(took * 2 * IMPORT_LOOP_REFERENCE_MS / 1000.0 / (before + after))
    return statistics.median(scaled), statistics.median(measured)


def calibration_loop() -> float:
    """Milliseconds taken by fixed work that never touches pmvroots.

    It does what the program does most (build Fractions, hash tuples of
    them, fill a dict), so it slows down with the machine the way the
    program does; a plain integer loop tracked the drift less well."""
    start = time.perf_counter()
    table = {}
    for i in range(1500):
        key = (Fraction(i, 7), i % 13, (i, -i))
        table[key] = hash(key) ^ i
    sum(v for k, v in table.items() if k[1] < 7)
    return (time.perf_counter() - start) * 1000.0


def call(cli, argv):
    """One request: (exit code, stdout, escaped exception, seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
        escaped = None
    except (Exception, SystemExit) as exc:  # an escaping exception is a failed request
        code, escaped = None, f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), escaped, time.perf_counter() - start


def problems_of(req, code, out, escaped, validator) -> list[str]:
    """Why one report is wrong (empty when the oracle and the schema accept it)."""
    if escaped is not None:
        return [f"exception escaped cli.main: {escaped}"]
    problems = oracle.check(oracle.expect(req), code, out, req.as_json)
    if req.as_json:
        try:
            problems += [f"schema: {e.message}" for e in validator.iter_errors(json.loads(out))]
        except ValueError as exc:
            problems.append(f"not JSON: {exc}")
    return problems


def known_defects(cli, validator) -> list[tuple[list[str], list[str]]]:
    """(argv, problems) of each KNOWN_DEFECTS request; no problems once fixed."""
    out = []
    for req in KNOWN_DEFECTS:
        argv = req.argv()
        code, text, escaped, _ = call(cli, argv)
        out.append((argv, problems_of(req, code, text, escaped, validator)))
    return out


def _size_bucket(size: int) -> str:
    return "8-15" if size < 16 else "16-31" if size < 32 else "32-63" if size < 64 else "64"


def _bits_bucket(bits: int) -> str:
    return "<=8" if bits <= 8 else "9-16" if bits <= 16 else "17-32" if bits <= 32 else "33-64" if bits <= 64 else ">64"


class Run:
    """Latencies, failures and traffic counters of one run."""

    def __init__(self, validator, keep_reports: bool):
        self.validator = validator
        self.latencies = array("d")  # ms, in request order
        self.kinds = []  # verb (with --kind/--quantifier) of each request
        self.calibration = array("d")  # ms per calibration loop, sampled through the run
        self.calibrated_at = array("l")  # number of requests done before each loop
        self.raw = None  # end-to-end metrics before scaling
        self.failures = []  # (request index, argv, problems)
        self.reports = [] if keep_reports else None  # (request, argv, code, out, escaped)
        self.seen, self.repeats = set(), 0
        self.sizes, self.bits, self.json_count = Counter(), Counter(), 0

    def add(self, req, argv, code, out, escaped, seconds):
        index = len(self.latencies)
        self.latencies.append(seconds * 1000.0)
        problems = problems_of(req, code, out, escaped, self.validator)
        if problems:
            self.failures.append((index, argv, problems))
        if self.reports is not None:
            self.reports.append((req, argv, code, out, escaped))
        key = req.algebra.text() if req.algebra is not None else req.verb
        self.repeats += key in self.seen
        self.seen.add(key)
        flag = req.flags[:2] if req.flags[:1] in (("--kind",), ("--quantifier",)) else ()
        self.kinds.append(sys.intern(" ".join((req.verb, *flag))))
        if req.algebra is not None and not isinstance(req.algebra, oracle.Gamma):
            self.sizes[_size_bucket(oracle.Finite(req.algebra).size)] += 1
        if req.element is not None:
            self.bits[_bits_bucket(workloads.bit_length(req.element))] += 1
        self.json_count += req.as_json

    def traffic(self) -> dict:
        """Input properties: descriptor repeats, sizes or coordinate bits, verb mix."""
        n = len(self.latencies)
        out = {"requests": n, "descriptor_repeat_share": round(self.repeats / n, 4),
               "verb_mix": {k: round(v / n, 4) for k, v in sorted(Counter(self.kinds).items())},
               "json_share": round(self.json_count / n, 4)}
        if self.sizes:
            out["carrier_sizes"] = dict(sorted(self.sizes.items()))
        if self.bits:
            out["element_coordinate_bits"] = dict(sorted(self.bits.items()))
        return out

    def latency_by_verb(self) -> dict:
        by = defaultdict(list)
        for kind, ms in zip(self.kinds, self.latencies):
            by[kind].append(ms)
        return {k: {"count": len(v), "median_ms": statistics.median(v), "max_ms": max(v)}
                for k, v in sorted(by.items())}


def scale(calibration) -> float:
    """Factor from measured times to times at reference speed, for sums."""
    return REFERENCE_LOOP_MS / statistics.fmean(calibration)


def at_reference_speed(run) -> list[float]:
    """Each latency scaled by the two calibration loops run around it."""
    marks, loops, out = run.calibrated_at, run.calibration, []
    for k in range(len(marks) - 1):
        factor = 2 * REFERENCE_LOOP_MS / (loops[k] + loops[k + 1])
        out.extend(ms * factor for ms in run.latencies[marks[k]:marks[k + 1]])
    return out


def run_blocks(cli, blocks, seconds, validator, keep_reports=False) -> Run:
    """Whole blocks until ``seconds`` of busy time."""
    run, busy, next_calibration = Run(validator, keep_reports), 0.0, 0.0
    while busy < seconds:
        for req in next(blocks):
            if busy >= next_calibration:
                run.calibrated_at.append(len(run.latencies))
                run.calibration.append(calibration_loop())
                next_calibration = busy + CALIBRATE_EVERY_S
            argv = req.argv()
            code, out, escaped, dt = call(cli, argv)
            busy += dt
            run.add(req, argv, code, out, escaped, dt)
    run.calibrated_at.append(len(run.latencies))
    run.calibration.append(calibration_loop())
    return run


def end_to_end(latencies, setup_s) -> dict:
    """The run's metrics from its latencies (ms) and the set-up time."""
    return {
        "requests_per_s": {"value": 1000.0 * len(latencies) / sum(latencies), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(latencies), "unit": "ms"},
        "latency_p90_ms": {"value": statistics.quantiles(latencies, n=10)[-1], "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def traced_run(pmvroots, cli, error_type, blocks, seconds, validator, spans_path):
    """Untraced for a third of the time, then the same requests traced."""
    run = run_blocks(cli, blocks, seconds / 3.0, validator, keep_reports=True)
    tracer = Tracer(pmvroots, error_type)
    traced_busy, next_calibration, calibration = 0.0, 0.0, []
    t0 = time.perf_counter()
    tracer.install()
    try:
        for i, (req, argv, code, out, escaped) in enumerate(run.reports):
            if traced_busy >= next_calibration:
                calibration.append(calibration_loop())
                next_calibration = traced_busy + CALIBRATE_EVERY_S
            tracer.begin_request(i)
            got = call(cli, argv)
            tracer.end_request()
            traced_busy += got[-1]
            if got[:3] != (code, out, escaped):
                run.failures.append((i, argv, ["traced report differs from the untraced one"]))
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path, t0)
    ratio = traced_busy * 1000.0 / sum(run.latencies)
    metrics = tracer.metrics(len(run.latencies), ratio)
    factor = scale(calibration)
    for m in metrics.values():
        if m["unit"] == "ms/req":
            m["value"] *= factor
    return run, metrics, factor


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        pmvroots, cli, error_type = load_program()
        import jsonschema

        validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
        setup = None if args.trace else measure_setup()
    except (SetupError, ImportError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    for warm in WARMUP:
        call(cli, warm)
    blocks = workloads.blocks(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        run, metrics, factor = traced_run(pmvroots, cli, error_type, blocks, args.seconds, validator,
                                          OUT_DIR / f"{stem}-spans.jsonl")
    else:
        run = run_blocks(cli, blocks, args.seconds, validator)
        scaled = at_reference_speed(run)
        factor = sum(scaled) / sum(run.latencies)
        metrics = end_to_end(scaled, setup[0])
        run.raw = end_to_end(run.latencies, setup[1])
    report(args, stem, run, metrics, factor, known_defects(cli, validator))
    return 0


def report(args, stem, run, metrics, factor, defects):
    n = len(run.latencies)
    failed = len({i for i, _, _ in run.failures})
    p90 = statistics.quantiles(run.latencies, n=10)[-1]
    mix = run.traffic()
    print(f"workload {args.workload}, seed {args.seed}: {n} requests, {sum(run.latencies) / 1000:.2f} s busy; "
          f"closed loop, one client, in-process")
    if args.trace:
        print(f"per-layer metrics (traced replay, per request, base {n} requests):")
    else:
        print("end-to-end metrics (tracing off):")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  times are at reference speed: measured x {factor:.4f} on the whole (calibration loop "
          f"{REFERENCE_LOOP_MS / factor:.3f} ms, reference {REFERENCE_LOOP_MS} ms)")
    if not args.trace:
        print("  measured: " + ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in run.raw.items()))
        print(f"  latency samples: {n}, {sum(x > p90 for x in run.latencies)} beyond p90")
    print(f"  {'failed_share':32s} {failed / n:.6g} ({failed} of {n} requests failed)")
    print("traffic: " + json.dumps(mix))
    if run.failures:
        print("failed requests:")
        by_argv = Counter(" ".join(a) for _, a, _ in run.failures)
        first = {}
        for _, a, problems in run.failures:
            first.setdefault(" ".join(a), problems)
        for line, count in by_argv.most_common():
            print(f"  [x{count}] {line} :: {'; '.join(first[line])[:300]}")
    print("known program defects (checked once, outside the timed mix and the counts):")
    for argv, problems in defects:
        state = f"still present: {'; '.join(problems)[:300]}" if problems else "fixed"
        print(f"  {' '.join(argv)} :: {state}")
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "attempted": n,
               "failed": failed, "metrics": metrics, "measured": run.raw,
               "scale_to_reference_speed": factor, "traffic": mix, "latency_by_verb": run.latency_by_verb(),
               "failures": [{"request": i, "argv": a, "problems": p} for i, a, p in run.failures],
               "known_defects": [{"argv": a, "problems": p} for a, p in defects]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
