"""Tests of the benchmark itself: the checker must reject wrong answers.

Run with: python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gutterlp  # noqa: E402
from gutterlp import SolveResult, Verdict, testkit  # noqa: E402

import bench  # noqa: E402
import layers  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from workloads import Instance, Kind  # noqa: E402


def _instance(task: str, seed: int = 3, n: int = 3, m: int = 8) -> Instance:
    gen = testkit.gen_feasible(n, m, workloads.SLACK, seed)
    objective = ("max", np.array([1.0, -0.5, 0.25])) if task == "optimize" else None
    return Instance(Kind(n, m, "feasible", task), seed, gen.lp.matrix(), gen.lp.offsets(),
                    gen.certificate, objective)


def _bounded_optimize_instance() -> Instance:
    for seed in range(50):
        inst = _instance("optimize", seed)
        if verify.reference(inst).verdict is Verdict.OPTIMAL:
            return inst
    raise AssertionError("no bounded instance among 50 seeds")


def _judge(inst, result):
    return verify.judge(inst, workloads.build_lp(inst), verify.reference(inst), result)


def test_self_test_passes_on_the_real_checker():
    assert verify.self_test() == []


def test_perturbed_feasible_point_is_rejected():
    inst = _instance("feasibility")
    z = np.array(inst.certificate.point)
    assert _judge(inst, SolveResult(Verdict.FEASIBLE, z)) is None
    # step just past row 0's plane
    margin = float(inst.normals[0] @ z - inst.offsets[0])
    outside = z - (margin + 1e-6) * inst.normals[0]
    assert _judge(inst, SolveResult(Verdict.FEASIBLE, outside)) == "bad_point"


def test_optimal_value_off_by_1e_3_is_rejected():
    inst = _bounded_optimize_instance()
    ref = verify.reference(inst)
    assert _judge(inst, SolveResult(Verdict.OPTIMAL, ref.point, ref.value)) is None
    assert _judge(inst, SolveResult(Verdict.OPTIMAL, ref.point, ref.value + 1e-3)) == "wrong_value"


def test_swapped_unbounded_and_optimal_are_rejected():
    bounded = _bounded_optimize_instance()
    assert _judge(bounded, SolveResult(Verdict.UNBOUNDED)) == "unbounded_mismatch"
    # dropping every row that bounds the objective leaves x >= 0 under max of a positive c
    unbounded = Instance(Kind(2, 2, "feasible", "optimize"), 0, np.eye(2), np.zeros(2),
                         testkit.FeasibleInterior(np.ones(2), 1.0), ("max", np.ones(2)))
    assert verify.reference(unbounded).verdict is Verdict.UNBOUNDED
    assert _judge(unbounded, SolveResult(Verdict.OPTIMAL, np.ones(2), 2.0)) == "unbounded_mismatch"
    assert _judge(unbounded, SolveResult(Verdict.UNBOUNDED)) is None


def test_stalled_and_wrong_verdicts_are_failures():
    inst = _instance("feasibility")
    assert _judge(inst, SolveResult(Verdict.STALLED)) == "stalled"
    assert _judge(inst, SolveResult(Verdict.INFEASIBLE)) == "wrong_verdict"


@pytest.mark.parametrize("broken", ["judge", "point_ok"])
def test_a_broken_checker_fails_its_self_test(monkeypatch, broken):
    if broken == "judge":
        monkeypatch.setattr(verify, "judge", lambda *args: None)
    else:
        monkeypatch.setattr(verify, "point_ok", lambda *args: True)
    assert verify.self_test() != []


def test_reference_disagreement_is_a_benchmark_error(monkeypatch):
    inst = _bounded_optimize_instance()
    ref = verify.reference(inst)
    monkeypatch.setattr(testkit, "oracle_solve", lambda lp, bound=100.0: testkit.OracleResult(
        Verdict.OPTIMAL, ref.point, ref.value + 1.0))
    with pytest.raises(verify.BenchError):
        verify.reference(inst, cross_check=True)


def test_tracer_restores_every_patch_and_reports_absent_names(monkeypatch):
    from gutterlp import geometry, gram, solver
    before = (solver.signed_distance, solver._slide_direction, gram.GutterBasis.append_row,
              geometry.Ray.__init__)
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + (
        ("geometry.Gone", "gutterlp.geometry", "Gone", layers.CLASS),))
    tracer = layers.Tracer()
    inst = _instance("optimize")
    lp = workloads.build_lp(inst)
    plain = gutterlp.solve_optimum(lp)
    with tracer.installed():
        assert solver.signed_distance is not before[0]
        with tracer.solve(0, inst.kind.m):
            traced = gutterlp.solve_optimum(lp, trace=tracer.sink)
    after = (solver.signed_distance, solver._slide_direction, gram.GutterBasis.append_row,
             geometry.Ray.__init__)
    assert after == before
    assert tracer.absent == ["geometry.Gone"]
    assert traced.verdict is plain.verdict and traced.iterations == plain.iterations
    totals = {}
    tracer.fold_spans(totals)
    metrics = layers.layer_metrics(tracer, totals)
    assert metrics["geometry.signed_distance.calls"][0] > 0
    assert metrics["solver.resolve_constraint.calls"][0] == \
        metrics["solver.outer_iters"][0] + metrics["solver.phase2_cycles"][0]


def test_each_instance_counts_once_at_its_median_and_keeps_a_failure():
    times = [(1.0, None), (5.0, None), (3.0, None), (2.0, "stalled")]
    attempts = [bench.Attempt("cell", seconds, reason) for seconds, reason in times]
    instances = bench.per_instance(attempts, 2)
    assert [(a.seconds, a.reason) for a in instances] == [(2.0, None), (3.5, "stalled")]


def _run(cwd: Path, *extra):
    return subprocess.run([sys.executable, "perfbench/run.py", *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_declared_metric(trace):
    proc = _run(ROOT, "--workload", "tiny-text", "--seed", "5", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if trace == "1" else "end_to_end"]
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True and record["attempted"] >= 1
    assert set(record["metrics"]) == {m["name"] for m in wanted}
    if trace == "0":
        assert all(record["metrics"][m["name"]]["value"] > 0 for m in wanted)
        assert record["failed"] > 0   # the known wrong optima on this workload show


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "tiny-text", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
