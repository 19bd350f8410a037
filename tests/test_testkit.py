import numpy as np
import pytest

from gutterlp.geometry import project_onto_intersection
from gutterlp.gram import GutterBasis
from gutterlp.model import (
    Direction,
    LinearProgram,
    Objective,
    Sense,
    Verdict,
    check_point,
    normalize,
)
from gutterlp import testkit


def make_lp(rows, offsets, senses=None, objective=None):
    return normalize(LinearProgram.from_arrays(
        np.asarray(rows, float), np.asarray(offsets, float), senses, objective))


class TestOracleSolve:
    def test_triangle_maximum(self):
        lp = make_lp([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [0.0, 0.0, -2.0],
                     objective=Objective(Direction.MAX, np.array([1.0, 1.0])))
        result = testkit.oracle_solve(lp, bound=100.0)
        assert result.verdict is Verdict.OPTIMAL
        assert result.value == pytest.approx(2.0, abs=1e-9)
        assert result.point @ np.array([1.0, 1.0]) == pytest.approx(2.0, abs=1e-9)

    def test_one_dimensional_infeasible(self):
        lp = make_lp([[1.0], [-1.0]], [1.0, 0.0])
        assert testkit.oracle_solve(lp).verdict is Verdict.INFEASIBLE

    def test_unbounded(self):
        lp = make_lp([[1.0]], [0.0], objective=Objective(Direction.MAX, np.array([1.0])))
        assert testkit.oracle_solve(lp).verdict is Verdict.UNBOUNDED

    def test_feasible_without_objective(self):
        lp = make_lp([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        result = testkit.oracle_solve(lp)
        assert result.verdict is Verdict.FEASIBLE
        assert check_point(lp, result.point, 1e-8)

    def test_minimization(self):
        lp = make_lp([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [0.0, 0.0, -2.0],
                     objective=Objective(Direction.MIN, np.array([1.0, 1.0])))
        result = testkit.oracle_solve(lp)
        assert result.verdict is Verdict.OPTIMAL
        assert result.value == pytest.approx(0.0, abs=1e-9)

    def test_scale_cap(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((21, 2))
        lp = make_lp(rows, np.full(21, -10.0))
        with pytest.raises(testkit.ScaleExceededError):
            testkit.oracle_solve(lp)

    def test_equality_handled(self):
        lp = make_lp([[1.0, 1.0], [1.0, 0.0], [-1.0, 0.0]], [2.0, 0.0, -2.0],
                     [Sense.EQ, Sense.GE, Sense.GE],
                     objective=Objective(Direction.MAX, np.array([1.0, 0.0])))
        result = testkit.oracle_solve(lp, bound=10.0)
        assert result.verdict is Verdict.OPTIMAL
        assert result.value == pytest.approx(2.0, abs=1e-9)


class TestOracleProjection:
    def test_single_plane(self):
        q = testkit.oracle_projection(np.array([[1.0, 0.0]]), [1.0], [0.0, 0.0], [0.0])
        assert np.allclose(q, [1.0, 0.0])

    def test_two_planes(self):
        q = testkit.oracle_projection(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                                      [0.0, 0.0], [1.0, 2.0, 3.0], [0.0, 0.0])
        assert np.allclose(q, [1.0, 0.0, 0.0])

    def test_diagonal_plane(self):
        s = 1.0 / np.sqrt(2.0)
        q = testkit.oracle_projection(np.array([[s, s]]), [np.sqrt(2.0)], [0.0, 0.0], [0.0])
        assert np.allclose(q, [1.0, 1.0])

    def test_rank_deficient_raises(self):
        with pytest.raises(testkit.RankDeficientError):
            testkit.oracle_projection(np.array([[1.0, 0.0], [1.0, 0.0]]),
                                      [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])

    def test_agrees_with_incremental_path(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            t = int(rng.integers(1, n))
            rows = rng.standard_normal((t, n))
            rows /= np.linalg.norm(rows, axis=1)[:, None]
            offsets = rng.uniform(-1, 1, t)
            targets = rng.uniform(-0.5, 0.5, t)
            p = rng.standard_normal(n)
            basis = GutterBasis(n)
            for k in range(t):
                assert basis.append_row(k, rows[k], float(offsets[k]))
            q_fast = project_onto_intersection(basis, p, targets)
            q_true = testkit.oracle_projection(rows, offsets, p, targets)
            assert np.max(np.abs(q_fast - q_true)) <= 1e-8


class TestGenerators:
    def test_feasible_certificate_holds(self):
        inst = testkit.gen_feasible(2, 3, 0.1, 7)
        cert = inst.certificate
        assert isinstance(cert, testkit.FeasibleInterior)
        assert check_point(inst.lp, cert.point, 1e-12)
        assert np.min(inst.lp.A @ cert.point - inst.lp.b) >= cert.slack - 1e-12

    def test_forced_origin_interior(self):
        inst = testkit.gen_feasible(3, 5, 1.0, 11, interior=np.zeros(3))
        assert np.all(inst.lp.offsets() <= -1.0)

    def test_same_seed_identical(self):
        a = testkit.gen_feasible(4, 9, 0.2, 123)
        b = testkit.gen_feasible(4, 9, 0.2, 123)
        assert np.array_equal(a.lp.matrix(), b.lp.matrix())
        assert np.array_equal(a.lp.offsets(), b.lp.offsets())
        assert np.array_equal(a.certificate.point, b.certificate.point)

    def test_infeasible_pair_structure(self):
        inst = testkit.gen_infeasible(3, 6, 5)
        cert = inst.certificate
        assert isinstance(cert, testkit.InfeasiblePair)
        A, b = inst.lp.A, inst.lp.b
        assert np.allclose(A[cert.index_a], -A[cert.index_b])
        assert b[cert.index_a] + b[cert.index_b] >= 0.5

    def test_infeasible_by_oracle(self):
        for seed in range(10):
            inst = testkit.gen_infeasible(2, 4, seed)
            assert testkit.oracle_solve(inst.lp).verdict is Verdict.INFEASIBLE

    def test_infeasible_same_seed_identical(self):
        a = testkit.gen_infeasible(3, 6, 9)
        b = testkit.gen_infeasible(3, 6, 9)
        assert np.array_equal(a.lp.matrix(), b.lp.matrix())
        assert np.array_equal(a.lp.offsets(), b.lp.offsets())

    def test_oracle_agrees_with_certificates(self):
        for seed in range(15):
            feas = testkit.gen_feasible(3, 6, 0.2, seed)
            assert testkit.oracle_solve(feas.lp).verdict is Verdict.FEASIBLE
            infeas = testkit.gen_infeasible(3, 6, seed)
            assert testkit.oracle_solve(infeas.lp).verdict is Verdict.INFEASIBLE
