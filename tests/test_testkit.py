import dataclasses
import math

import numpy as np
import pytest

from gutterlp.gram import GutterBasis
from gutterlp.model import (
    Direction,
    LinearProgram,
    Objective,
    Sense,
    SolverConfig,
    Verdict,
    check_point,
    normalize,
)
from gutterlp import testkit
from gutterlp.solver import EventKind, SolverState, resolve_constraint


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


class TestGenerators:
    def test_feasible_certificate_holds(self):
        inst = testkit.gen_feasible(2, 3, 0.1, 7)
        cert = inst.certificate
        assert isinstance(cert, testkit.FeasibleInterior)
        assert check_point(inst.lp, cert.point, 1e-12)
        assert np.min(inst.lp.A @ cert.point - inst.lp.b) >= cert.slack - 1e-12

    @pytest.mark.parametrize("slack", [0.0, -0.1, math.nan, math.inf])
    def test_slack_must_be_positive_and_finite(self, slack):
        with pytest.raises(ValueError, match="slack must be positive and finite"):
            testkit.gen_feasible(2, 3, slack, 7)

    def test_forced_origin_interior(self):
        inst = testkit.gen_feasible(3, 5, 1.0, 11, interior=np.zeros(3))
        assert np.all(inst.lp.b <= -1.0)

    def test_same_seed_identical(self):
        a = testkit.gen_feasible(4, 9, 0.2, 123)
        b = testkit.gen_feasible(4, 9, 0.2, 123)
        assert np.array_equal(a.lp.A, b.lp.A)
        assert np.array_equal(a.lp.b, b.lp.b)
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
        assert np.array_equal(a.lp.A, b.lp.A)
        assert np.array_equal(a.lp.b, b.lp.b)

    def test_oracle_agrees_with_certificates(self):
        for seed in range(15):
            feas = testkit.gen_feasible(3, 6, 0.2, seed)
            assert testkit.oracle_solve(feas.lp).verdict is Verdict.FEASIBLE
            infeas = testkit.gen_infeasible(3, 6, seed)
            assert testkit.oracle_solve(infeas.lp).verdict is Verdict.INFEASIBLE


class TestCheckTraceBackoff:
    """A backed-off obstacle must join the gutter in the step that backed off from it."""

    # heading for x >= 2 from (0, 0.5), the ball backs off from x + y <= 1.5
    LP = make_lp([[-1.0, -1.0], [1.0, 0.0]], [-1.5, 2.0])

    def _trace(self):
        state = SolverState(p0=np.array([0.0, 0.5]), epsilon=0.01,
                            gutter=GutterBasis(2), target_index=1)
        events = []
        resolve_constraint(self.LP, state, SolverConfig(), events.append)
        assert [e.kind for e in events][1:3] == [EventKind.OBSTACLE_BACKOFF,
                                                 EventKind.GUTTER_APPEND]
        return events

    def test_solver_trace_passes(self):
        assert testkit.check_trace(self.LP, self._trace(), 0.01) == []

    @pytest.mark.parametrize("change", ["drop", "later", "other-plane", "skip-other-plane"])
    def test_backoff_without_its_append_is_reported(self, change):
        events = self._trace()
        append = events[2]
        if change == "drop":
            del events[2]
        elif change == "later":
            events[2] = dataclasses.replace(append, iteration=append.iteration + 1)
        elif change == "other-plane":
            events[2] = dataclasses.replace(append, detail="plane=1")
        else:
            events[2] = dataclasses.replace(append, kind=EventKind.GUTTER_SKIP_DEGENERATE,
                                            detail="plane=1")
        problems = testkit.check_trace(self.LP, events, 0.01)
        assert len(problems) == 1
        assert problems[0].startswith("event 1: OBSTACLE_BACKOFF not followed by the "
                                      "gutter append of plane=0 in iteration 1")

    def test_backoff_at_the_end_of_a_trace_is_reported(self):
        problems = testkit.check_trace(self.LP, self._trace()[:2], 0.01)
        assert problems == ["event 1: OBSTACLE_BACKOFF not followed by the "
                            "gutter append of plane=0 before the trace ends"]

    def test_zero_radius_backoff_ends_its_step(self):
        events = self._trace()
        del events[2]
        assert testkit.check_trace(self.LP, events, 0.0) == []
