"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 3-5 share their suite runs with criterion 6 (trace checks) through
session-scoped fixtures, so the whole module stays fast.
"""
import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from gutterlp import cli, testkit
from gutterlp.geometry import project_onto_intersection
from gutterlp.gram import GutterBasis
from gutterlp.model import (
    Direction,
    LinearProgram,
    Objective,
    SolverConfig,
    Verdict,
    check_point,
    normalize,
)
from gutterlp.solver import EventKind, solve_feasibility, solve_optimum

CONFIG = SolverConfig(epsilon=0.01)


def _report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


@dataclass
class SuiteRun:
    lp: LinearProgram
    result: object
    events: list
    elapsed: float
    seed: int


@pytest.fixture(scope="session")
def feasible_suite():
    rng = np.random.default_rng(12345)
    runs = []
    for seed in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(3, 16))
        slack = float(rng.uniform(0.1, 0.4))
        inst = testkit.gen_feasible(n, m, slack, seed)
        events = []
        t0 = time.perf_counter()
        result = solve_feasibility(inst.lp, CONFIG, trace=events.append)
        elapsed = time.perf_counter() - t0
        runs.append(SuiteRun(inst.lp, result, events, elapsed, seed))
    return runs


@pytest.fixture(scope="session")
def infeasible_suite():
    rng = np.random.default_rng(777)
    runs = []
    for seed in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(2, 16))
        inst = testkit.gen_infeasible(n, m, seed)
        events = []
        t0 = time.perf_counter()
        result = solve_feasibility(inst.lp, CONFIG, trace=events.append)
        elapsed = time.perf_counter() - t0
        runs.append(SuiteRun(inst.lp, result, events, elapsed, seed))
    return runs


@pytest.fixture(scope="session")
def optimum_suite():
    rng = np.random.default_rng(4242)
    runs = []
    for seed in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(3, 9))
        slack = float(rng.uniform(0.15, 0.3))
        inst = testkit.gen_feasible(n, m, slack, seed)
        normals = np.vstack([inst.lp.A, np.eye(n), -np.eye(n)])
        offsets = np.concatenate([inst.lp.b, np.full(2 * n, -3.0)])
        c = rng.standard_normal(n)
        c /= np.linalg.norm(c)
        lp = LinearProgram.from_arrays(normals, offsets,
                                       objective=Objective(Direction.MAX, c))
        oracle = testkit.oracle_solve(lp, bound=50.0)
        events = []
        t0 = time.perf_counter()
        result = solve_optimum(lp, CONFIG, trace=events.append)
        elapsed = time.perf_counter() - t0
        run = SuiteRun(lp, result, events, elapsed, seed)
        run.oracle = oracle
        runs.append(run)
    return runs


def test_criterion_01_projection_equivalence():
    """1000 random (basis, point) pairs: fast projection vs dense KKT oracle."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        t = int(rng.integers(1, n))
        rows = rng.standard_normal((t, n))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        offsets = rng.uniform(-1.0, 1.0, t)
        targets = rng.uniform(-0.5, 0.5, t)
        p = rng.standard_normal(n)
        basis = GutterBasis(n)
        for k in range(t):
            assert basis.append_row(k, rows[k], float(offsets[k]))
        fast = project_onto_intersection(basis, p, targets)
        true = testkit.oracle_projection(rows, offsets, p, targets)
        worst = max(worst, float(np.max(np.abs(fast - true))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, f"max projection error {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(f"1 projection equivalence (max err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_incremental_inverse_equivalence():
    """200 append sequences: (G G^T)^-1 from the incremental basis vs from-scratch, degeneracy vs rank."""
    rng = np.random.default_rng(2002)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 17))
        t = int(rng.integers(1, n))
        rows = rng.standard_normal((t, n))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        basis = GutterBasis(n)
        for k in range(t):
            assert basis.append_row(k, rows[k])
            G = basis.normals_matrix()
            direct = np.linalg.inv(G @ G.T)
            worst = max(worst, float(np.max(np.abs(basis.gram_inverse - direct))))
        # dependent append must be flagged exactly when a rank oracle says so
        weights = rng.standard_normal(t)
        if np.linalg.norm(weights) < 1e-6:
            weights[0] = 1.0
        dependent = weights @ rows
        dependent /= np.linalg.norm(dependent)
        probe = basis.copy()
        assert not probe.append_row(500, dependent)
        if t < n:
            fresh = rng.standard_normal(n)
            fresh /= np.linalg.norm(fresh)
            rank_ok = np.linalg.matrix_rank(np.vstack([rows, fresh]), tol=1e-8) == t + 1
            probe = basis.copy()
            assert probe.append_row(501, fresh) == rank_ok
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"max inverse error {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(f"2 incremental inverse (max err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_03_feasible_suite(feasible_suite):
    """200 certified-feasible instances: >=99% FEASIBLE, all witnesses sound."""
    feasible = 0
    stalled_seeds = []
    worst_time = 0.0
    for run in feasible_suite:
        worst_time = max(worst_time, run.elapsed)
        if run.result.verdict is Verdict.FEASIBLE:
            feasible += 1
            assert check_point(run.lp, run.result.point, CONFIG.feas_tol), \
                f"unsound witness on seed {run.seed}"
        else:
            stalled_seeds.append((run.seed, run.result.verdict.name,
                                  run.result.diagnostics))
    for seed, verdict, diag in stalled_seeds:
        print(f"  non-feasible run: seed={seed} verdict={verdict} diag={diag}")
    rate = feasible / len(feasible_suite)
    assert rate >= 0.99, f"feasible rate {rate:.3f}"
    assert worst_time < 1.0, f"slowest instance took {worst_time:.2f}s"
    _report(f"3 feasible suite ({feasible}/200 FEASIBLE, slowest {worst_time*1e3:.1f}ms)")


def test_criterion_04_infeasible_suite(infeasible_suite):
    """100 certified-infeasible instances: no false FEASIBLE verdicts."""
    verdicts = {}
    for run in infeasible_suite:
        verdicts[run.result.verdict] = verdicts.get(run.result.verdict, 0) + 1
        assert run.result.verdict is not Verdict.FEASIBLE, f"false witness on seed {run.seed}"
        assert run.result.verdict in (Verdict.INFEASIBLE, Verdict.STALLED)
    summary = {k.name: v for k, v in verdicts.items()}
    _report(f"4 infeasible suite (verdicts {summary})")


def test_criterion_05_phase_two_accuracy(optimum_suite):
    """100 bounded instances with random objectives vs the vertex oracle."""
    close = 0
    disagreements = []
    for run in optimum_suite:
        assert run.oracle.verdict is Verdict.OPTIMAL
        if run.result.verdict is Verdict.OPTIMAL:
            value = run.result.objective_value
            assert value <= run.oracle.value + 1e-6, \
                f"seed {run.seed}: solver value {value} exceeds oracle {run.oracle.value}"
            if abs(value - run.oracle.value) <= 1e-4:
                close += 1
            else:
                disagreements.append((run.seed, value, run.oracle.value))
        else:
            disagreements.append((run.seed, run.result.verdict.name, run.oracle.value))
    for seed, got, want in disagreements:
        print(f"  disagreement: seed={seed} solver={got} oracle={want}")
    assert close >= 90, f"only {close}/100 within 1e-4"
    _report(f"5 phase II accuracy ({close}/100 within 1e-4, 0 above oracle)")


def test_criterion_06_trace_invariants(feasible_suite, infeasible_suite, optimum_suite):
    """Every trace from criteria 3-5 passes the independent checker."""
    checked = 0
    for suite in (feasible_suite, infeasible_suite, optimum_suite):
        for run in suite:
            problems = testkit.check_trace(run.lp, run.events, CONFIG.epsilon,
                                           CONFIG.feas_tol, ortho_tol=1e-8)
            assert problems == [], f"seed {run.seed}: {problems[:3]}"
            checked += len(run.events)
    _report(f"6 trace invariants ({checked} events clean)")


def test_criterion_07_epsilon_zero_regression():
    """Near-coincident walls: a zero-radius ball fails, the default ball succeeds."""
    lp = normalize(LinearProgram.from_arrays(
        np.array([[0.0, 1.0], [0.0, 1.0], [0.6, -0.8]]),
        np.array([0.0, 0.006, 0.6])))
    start = np.array([-2.0, 1.5])
    with_ball = solve_feasibility(lp, SolverConfig(epsilon=0.01), start=start)
    assert with_ball.verdict is Verdict.FEASIBLE
    assert check_point(lp, with_ball.point, 1e-8)
    without_ball = solve_feasibility(lp, SolverConfig(epsilon=0.0), start=start)
    assert without_ball.verdict in (Verdict.STALLED, Verdict.INFEASIBLE)
    _report(f"7 epsilon regression (0.01 -> FEASIBLE, 0 -> {without_ball.verdict.name})")


def test_criterion_08_repair_fixtures():
    """Wedge fixtures: shrink, equality switch, and separated-apex infeasibility."""
    wall = np.sqrt(17.0)
    rows = np.array([[-4.0 / wall, 1.0 / wall], [4.0 / wall, 1.0 / wall], [0.0, -1.0]])
    start = np.array([0.2, 1.0])

    lp = LinearProgram.from_arrays(rows, np.array([0.0, 0.0, -0.02]))
    events = []
    shrunk = solve_feasibility(lp, CONFIG, start=start, trace=events.append)
    assert shrunk.verdict is Verdict.FEASIBLE
    assert any(e.kind is EventKind.SHRINK_BALL for e in events)
    assert check_point(lp, shrunk.point, CONFIG.feas_tol)

    lp = LinearProgram.from_arrays(rows, np.array([0.0, 0.0, 0.0]))
    events = []
    pinned = solve_feasibility(lp, CONFIG, start=start, trace=events.append)
    assert pinned.verdict is Verdict.FEASIBLE
    assert any(e.kind is EventKind.EQUALITY_SWITCH for e in events)
    assert np.max(np.abs(lp.A @ pinned.point - lp.b)) <= 1e-8

    lp = LinearProgram.from_arrays(rows, np.array([0.0, 0.0, 0.02]))
    separated = solve_feasibility(lp, CONFIG, start=start)
    assert separated.verdict is Verdict.INFEASIBLE
    _report("8 repair fixtures (shrink, equality switch, separated apex)")


def test_criterion_09_one_dimensional_infeasibility():
    """{x >= 1, -x >= 0} concludes INFEASIBLE through a full gutter, fast."""
    lp = LinearProgram.from_arrays(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
    events = []
    result = solve_feasibility(lp, CONFIG, trace=events.append)
    assert result.verdict is Verdict.INFEASIBLE
    assert result.iterations <= 5
    full = [e for e in events if e.kind is EventKind.GUTTER_FULL]
    assert full and len(full[0].gutter_indices) == 1
    _report(f"9 one-dimensional infeasibility ({result.iterations} inner iterations)")


def test_criterion_10_determinism(tmp_path, capsys):
    """Identical (file, flags) runs produce byte-identical records and traces."""
    path = tmp_path / "inst.lp"
    code = cli.main(["gen", "--feasible", "-n", "4", "-m", "10", "--slack", "0.12",
                     "--seed", "33", "-o", str(path)])
    capsys.readouterr()
    assert code == 0
    records = []
    traces = []
    for run in range(2):
        trace_path = tmp_path / f"t{run}.jsonl"
        code = cli.main(["solve", str(path), "--epsilon", "0.01",
                         "--trace", str(trace_path)])
        assert code == 0
        records.append(capsys.readouterr().out)
        traces.append(trace_path.read_bytes())
    assert records[0] == records[1]
    assert traces[0] == traces[1]

    gen_again = testkit.gen_feasible(4, 10, 0.12, 33)
    lp_file = cli.parse_lp(path.read_text())
    assert np.allclose(lp_file.A, gen_again.lp.A)
    _report("10 determinism (byte-identical records and traces)")
