"""Self-test of the benchmark: seeded generators and the oracle.

    python3 -m pytest perfbench -q

Needs neither the program nor a timed run.
"""

import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracle import Chain, Gamma, Request, Twist  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _argvs(workload, seed, count=3):
    gen = workloads.blocks(workload, seed)
    return [r.argv() for _ in range(count) for r in next(gen)]


def test_generators_are_deterministic():
    for workload in workloads.WORKLOADS:
        assert _argvs(workload, 11) == _argvs(workload, 11)
        assert _argvs(workload, 11) != _argvs(workload, 12)


def test_argv_lists_do_not_depend_on_the_process():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
             "print([r.argv() for make in workloads.WORKLOADS.values() for i in range(2) for r in make(3, i)])")
    outs = {subprocess.run([sys.executable, "-c", probe, str(HERE)], capture_output=True, text=True, check=True,
                           env={"PYTHONHASHSEED": seed}).stdout for seed in ("1", "2")}
    assert len(outs) == 1


def test_blocks_have_a_fixed_mix():
    for workload, make in workloads.WORKLOADS.items():
        mixes = {tuple(sorted(r.verb for r in make(seed, 0))) for seed in range(5)}
        assert len(mixes) == 1, workload


def test_finite_presentations_keep_their_shape():
    for seed in range(3):
        for req in workloads.finite_block(seed, 0):
            assert 8 <= oracle.Finite(req.algebra).size <= 64


def test_generated_elements_lie_in_their_intervals():
    for seed in range(3):
        for req in workloads.element_block(seed, 0):
            if req.verb == "sqrt" and isinstance(req.algebra, Gamma):
                assert oracle.in_interval(req.algebra.group, req.element), req.argv()


def test_readme_sqrt_m3():
    exp = oracle.expect(Request("sqrt", Chain(3), F(1, 3), as_json=False))
    assert exp.fields["root"] == "2/3"
    readme = "status: ok\nalgebra: M(3)\nelement: 1/3\nroot: 2/3\n"
    assert oracle.check(exp, 0, readme, as_json=False) == []
    assert oracle.check(exp, 0, readme.replace("root: 2/3", "root: 1/3"), as_json=False)


def test_readme_closure_m6():
    exp = oracle.expect(Request("closure", Chain(6)))
    assert exp.unordered["factors"] == [{"base": "Z/6", "closed": "D/3", "root": "half_shift"}]
    readme = {"status": "ok", "payload": {
        "descriptor": "strict[ Z/6 -> D/3 ]", "kind": "strict",
        "factors": [{"base": "Z/6", "closed": "D/3", "root": "half_shift"}],
        "base": "Z/6", "closed": "D/3", "embedding": "coordinatewise inclusion",
        "criterion": {"ok": True, "samples": 60, "max_doubling_exponent": 5}}, "provenance": []}
    assert oracle.check(exp, 0, json.dumps(readme), as_json=True) == []


def test_readme_twist3_zero_has_no_root():
    exp = oracle.expect(Request("sqrt", Gamma(Twist(3, "Z")), (F(0),) * 3, ("--bound", "3")))
    assert (exp.exit_code, exp.status, exp.fields["reason"]) == (1, "not_exists", oracle.NO_MAX)
    report = {"status": "not_exists", "payload": {
        "algebra": "gamma(twist3(Z))", "element": "(0,0,0)", "reason": "no_max_of_nilpotents",
        "bounded_check": {"agrees": True, "bound": 3, "detail": "..."}}, "provenance": []}
    assert oracle.check(exp, 1, json.dumps(report), as_json=True) == []
    report["payload"]["bounded_check"]["agrees"] = False
    assert oracle.check(exp, 1, json.dumps(report), as_json=True)


def test_chain_product_closed_forms():
    exp = oracle.expect(Request("ideals", oracle.Prod((Chain(1), Chain(3)))))
    f = exp.fields
    assert len(f["ideals"]) == 4 and sum(i["prime"] and i["proper"] for i in f["ideals"]) == 2
    assert (f["i1_top"], f["i2_top"], f["bsi"], f["splitting_element"]) == ("(0,1)", "(1,0)", False, "(1,0)")


def test_benchmark_json_matches_the_metrics_printed():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    e2e = run.end_to_end([float(i + 1) for i in range(20)], 0.05)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    layer = Tracer(None, Exception).metrics(1, 1.0)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {k: v["unit"] for k, v in layer.items()}
    described = json.loads((HERE / "metrics.json").read_text())
    assert set(described["per_layer"]) == set(layer)
    assert set(described["end_to_end"]) == set(e2e)


def test_latencies_scale_by_the_loops_around_them():
    r = run.Run(None, keep_reports=False)
    r.latencies.extend([1.0, 2.0, 3.0])
    r.calibrated_at.extend([0, 2, 3])
    r.calibration.extend([4.0, 12.0, 4.0])
    assert run.at_reference_speed(r) == [0.5, 1.0, 1.5]
