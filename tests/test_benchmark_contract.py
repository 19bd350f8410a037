"""The package API that the benchmark under perfbench/ calls.

The benchmark is versioned apart from the package: it draws its pools with
`testkit`, copies the rows out with `LinearProgram.matrix()`/`offsets()`,
parses LP text with `cli.parse_lp`, judges answers with `check_point`, the
generator certificates and `oracle_solve`, and traces the solver by wrapping
names that `perfbench/layers.TARGETS` lists. Removing or renaming any of these
breaks the benchmark without breaking a solver test, so this module pins them.
"""
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

import gutterlp
from gutterlp import cli, testkit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layers  # noqa: E402

# gone from the package (the projection is GutterBasis.project now); layers.TARGETS
# still names them, and the traced run reports them as absent until the benchmark
# drops them
EXPECTED_ABSENT = {"geometry.signed_distance", "geometry.Ray", "geometry.project_onto_intersection",
                   "model.Constraint"}


def test_top_level_names():
    for name in ("Direction", "LinearProgram", "Objective", "SolveResult", "Verdict",
                 "check_point", "solve_feasibility", "solve_optimum"):
        assert hasattr(gutterlp, name), name


def test_row_copies_and_text_parsing():
    inst = testkit.gen_feasible(3, 8, 0.1, 0)
    A, b = inst.lp.matrix(), inst.lp.offsets()
    assert np.array_equal(A, inst.lp.A) and np.array_equal(b, inst.lp.b)
    A[0, 0] += 1.0
    b[0] += 1.0
    assert not np.array_equal(A, inst.lp.A) and not np.array_equal(b, inst.lp.b)
    lp = cli.parse_lp("vars 2\nobjective max 1 1\nc -1 0 >= -2\nc 0 -1 >= -1\n")
    assert isinstance(lp, gutterlp.LinearProgram) and lp.objective is not None


def test_generators_certificates_and_oracle():
    feasible = testkit.gen_feasible(3, 8, 0.1, 1)
    assert isinstance(feasible.certificate, testkit.FeasibleInterior)
    assert feasible.certificate.point.shape == (3,) and feasible.certificate.slack > 0
    infeasible = testkit.gen_infeasible(3, 8, 1)
    assert isinstance(infeasible.certificate, testkit.InfeasiblePair)
    assert {infeasible.certificate.index_a, infeasible.certificate.index_b} <= set(range(8))
    assert testkit.FeasibleInterior(np.ones(2), 1.0).slack == 1.0
    lp = gutterlp.LinearProgram.from_arrays(
        np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([-2.0, -1.0, 0.0, 0.0]),
        objective=gutterlp.Objective(gutterlp.Direction("max"), np.array([1.0, 1.0])))
    oracle = testkit.oracle_solve(lp, bound=100.0)
    assert oracle.verdict is gutterlp.Verdict.OPTIMAL and oracle.value == pytest.approx(3.0)
    assert oracle.point is not None
    assert gutterlp.check_point(lp, oracle.point, 1e-8)
    assert testkit.OracleResult(gutterlp.Verdict.INFEASIBLE).value is None


def test_solve_result_fields():
    fields = {f.name for f in dataclasses.fields(gutterlp.SolveResult)}
    assert {"verdict", "point", "objective_value", "iterations"} <= fields
    result = gutterlp.solve_feasibility(testkit.gen_feasible(3, 8, 0.1, 2).lp)
    assert result.verdict is gutterlp.Verdict.FEASIBLE and result.iterations >= 0


def test_every_traced_name_resolves():
    missing = {metric for metric, module, path, _ in layers.TARGETS
               if layers._lookup(module, path) is None}
    assert missing == EXPECTED_ABSENT
