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
from gutterlp.solver import (
    EventKind,
    InconsistentEqualityError,
    ResolveOutcome,
    SolverState,
    initial_point,
    resolve_constraint,
    solve_feasibility,
    solve_optimum,
)
from gutterlp import testkit


def make_lp(rows, offsets, senses=None, objective=None):
    return normalize(LinearProgram.from_arrays(
        np.asarray(rows, float), np.asarray(offsets, float), senses, objective))


def kinds(events):
    return [e.kind for e in events]


CFG = SolverConfig(epsilon=0.01)


class TestInitialPoint:
    def test_no_equalities_gives_origin(self):
        lp = make_lp([[1.0, 0.0]], [2.0])
        assert np.allclose(initial_point(lp), [0.0, 0.0])

    def test_projects_onto_equalities(self):
        lp = make_lp([[1.0, 1.0]], [2.0], [Sense.EQ])
        assert np.allclose(initial_point(lp), [1.0, 1.0])

    def test_contradictory_equalities(self):
        lp = make_lp([[1.0], [1.0]], [1.0, 2.0], [Sense.EQ, Sense.EQ])
        with pytest.raises(InconsistentEqualityError):
            initial_point(lp)


class TestResolveConstraint:
    def test_single_unobstructed_move(self):
        lp = make_lp([[0.0, 1.0], [1.0, 0.0]], [0.0, 2.0])
        state = SolverState(p0=np.array([0.0, 1.0]), epsilon=0.01,
                            gutter=GutterBasis(2), target_index=1)
        outcome, _ = resolve_constraint(lp, state, CFG)
        assert outcome is ResolveOutcome.RESOLVED
        assert np.allclose(state.p0, [2.01, 1.0])

    def test_one_dimensional_gutter_full(self):
        lp = make_lp([[1.0], [-1.0]], [1.0, 0.0])
        state = SolverState(p0=np.array([1.01]), epsilon=0.01,
                            gutter=GutterBasis(1), target_index=1)
        outcome, _ = resolve_constraint(lp, state, CFG)
        assert outcome is ResolveOutcome.GUTTER_FULL
        assert state.gutter.indices == (0,)

    def test_three_planes_slide_along_one_wall(self):
        # start satisfies planes 0 and 1 and violates 2; the direct move meets
        # the two near-coincident walls, the ball touches only the upper one,
        # slides along it and resolves with a one-plane gutter
        lp = make_lp([[0.0, 1.0, 0.0],
                      [0.002, 1.0, 0.05],
                      [0.6, -0.8, 0.0]],
                     [0.0, 0.006, 0.6])
        start = np.array([-2.0, 1.5, 0.0])
        assert (np.sign(lp.A @ start - lp.b) == [1, 1, -1]).all()
        events = []
        result = solve_feasibility(lp, CFG, start=start, trace=events.append)
        assert result.verdict is Verdict.FEASIBLE
        assert check_point(lp, result.point, CFG.feas_tol)
        appended = [e for e in events if e.kind is EventKind.GUTTER_APPEND]
        assert [e.gutter_indices for e in appended] == [(1,)]


class TestSolveFeasibility:
    def test_two_plane_example(self):
        lp = make_lp([[0.0, 1.0], [1.0, 0.0]], [0.0, 2.0])
        result = solve_feasibility(lp, CFG, start=np.array([0.0, 1.0]))
        assert result.verdict is Verdict.FEASIBLE
        assert np.allclose(result.point, [2.01, 1.0])
        assert result.epsilon_final == pytest.approx(0.01)

    def test_one_dimensional_infeasible(self):
        lp = make_lp([[1.0], [-1.0]], [1.0, 0.0])
        events = []
        result = solve_feasibility(lp, CFG, trace=events.append)
        assert result.verdict is Verdict.INFEASIBLE
        assert result.iterations <= 5
        assert EventKind.GUTTER_FULL in kinds(events)

    def test_start_already_feasible(self):
        lp = make_lp([[1.0, 0.0]], [0.0])
        result = solve_feasibility(lp, CFG, start=np.array([1.0, 1.0]))
        assert result.verdict is Verdict.FEASIBLE
        assert result.iterations == 0
        assert np.allclose(result.point, [1.0, 1.0])

    def test_equality_program(self):
        lp = make_lp([[1.0, 1.0], [1.0, -1.0], [1.0, 0.0]],
                     [2.0, 0.0, 0.5],
                     [Sense.EQ, Sense.EQ, Sense.GE])
        result = solve_feasibility(lp, CFG)
        assert result.verdict is Verdict.FEASIBLE
        assert np.allclose(result.point, [1.0, 1.0], atol=1e-7)

    def test_contradictory_equalities_infeasible(self):
        lp = make_lp([[1.0], [1.0]], [1.0, 2.0], [Sense.EQ, Sense.EQ])
        result = solve_feasibility(lp, CFG)
        assert result.verdict is Verdict.INFEASIBLE

    def test_supplied_start_projected_onto_equalities(self):
        lp = make_lp([[0.0, 1.0], [1.0, 0.0]], [1.0, -5.0], [Sense.EQ, Sense.GE])
        result = solve_feasibility(lp, CFG, start=np.array([0.0, 4.0]))
        assert result.verdict is Verdict.FEASIBLE
        assert abs(lp.A[0] @ result.point - lp.b[0]) <= 1e-8

    def test_strict_constraints_resolved_strictly(self):
        lp = make_lp([[1.0], [-1.0]], [0.0, -1.0], [Sense.GT, Sense.GT])
        result = solve_feasibility(lp, CFG)
        assert result.verdict is Verdict.FEASIBLE
        assert result.point[0] > 0
        assert result.point[0] < 1


class TestRepairFixtures:
    WALL = np.sqrt(17.0)

    def wedge(self, target_offset):
        return make_lp([[-4.0 / self.WALL, 1.0 / self.WALL],
                        [4.0 / self.WALL, 1.0 / self.WALL],
                        [0.0, -1.0]],
                       [0.0, 0.0, target_offset])

    def test_oversized_ball_shrinks_then_feasible(self):
        lp = self.wedge(-0.02)
        events = []
        result = solve_feasibility(lp, CFG, start=np.array([0.2, 1.0]), trace=events.append)
        assert result.verdict is Verdict.FEASIBLE
        assert EventKind.SHRINK_BALL in kinds(events)
        assert result.epsilon_final < 0.01
        assert check_point(lp, result.point, CFG.feas_tol)

    def test_apex_tangent_switches_to_equalities(self):
        lp = self.wedge(0.0)
        events = []
        result = solve_feasibility(lp, CFG, start=np.array([0.2, 1.0]), trace=events.append)
        assert result.verdict is Verdict.FEASIBLE
        assert EventKind.EQUALITY_SWITCH in kinds(events)
        assert np.max(np.abs(lp.A @ result.point - lp.b)) <= 1e-8

    def test_separated_apex_is_infeasible(self):
        lp = self.wedge(0.02)
        result = solve_feasibility(lp, CFG, start=np.array([0.2, 1.0]))
        assert result.verdict is Verdict.INFEASIBLE


class TestEpsilonRegression:
    def fixture(self):
        # two near-coincident walls plus a tilted target; with a ball the first
        # obstacle is unambiguous and the slide along the upper wall succeeds,
        # without one the walk lands exactly on planes and never settles
        return make_lp([[0.0, 1.0], [0.0, 1.0], [0.6, -0.8]],
                       [0.0, 0.006, 0.6]), np.array([-2.0, 1.5])

    def test_with_ball_feasible(self):
        lp, start = self.fixture()
        result = solve_feasibility(lp, SolverConfig(epsilon=0.01), start=start)
        assert result.verdict is Verdict.FEASIBLE
        assert check_point(lp, result.point, 1e-8)

    def test_without_ball_fails(self):
        lp, start = self.fixture()
        result = solve_feasibility(lp, SolverConfig(epsilon=0.0), start=start)
        assert result.verdict in (Verdict.STALLED, Verdict.INFEASIBLE)


class TestSolveOptimum:
    def test_box_maximum(self):
        lp = make_lp([[-1.0, 0.0], [0.0, -1.0]], [-2.0, -1.0],
                     objective=Objective(Direction.MAX, np.array([1.0, 1.0])))
        events = []
        result = solve_optimum(lp, CFG, start=np.array([0.0, 0.0]), trace=events.append)
        assert result.verdict is Verdict.OPTIMAL
        assert np.allclose(result.point, [2.0, 1.0], atol=1e-9)
        assert result.objective_value == pytest.approx(3.0, abs=1e-9)
        full = [e for e in events if e.kind is EventKind.GUTTER_FULL]
        assert full and set(full[0].gutter_indices) == {0, 1}

    def test_one_dimensional_maximum(self):
        lp = make_lp([[-1.0]], [-1.0], objective=Objective(Direction.MAX, np.array([1.0])))
        result = solve_optimum(lp, CFG)
        assert result.verdict is Verdict.OPTIMAL
        assert result.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_unbounded(self):
        lp = make_lp([[1.0]], [0.0], objective=Objective(Direction.MAX, np.array([1.0])))
        result = solve_optimum(lp, CFG)
        assert result.verdict is Verdict.UNBOUNDED

    def test_minimize_by_negation(self):
        lp = make_lp([[-1.0, 0.0], [0.0, -1.0]], [-2.0, -1.0],
                     objective=Objective(Direction.MIN, np.array([-1.0, -1.0])))
        result = solve_optimum(lp, CFG, start=np.array([0.0, 0.0]))
        assert result.verdict is Verdict.OPTIMAL
        assert result.objective_value == pytest.approx(-3.0, abs=1e-9)
        assert np.allclose(result.point, [2.0, 1.0], atol=1e-9)

    def test_phase_one_failure_propagates(self):
        lp = make_lp([[1.0], [-1.0]], [1.0, 0.0],
                     objective=Objective(Direction.MAX, np.array([1.0])))
        result = solve_optimum(lp, CFG)
        assert result.verdict is Verdict.INFEASIBLE

    def test_missing_objective_rejected(self):
        lp = make_lp([[1.0]], [0.0])
        with pytest.raises(ValueError):
            solve_optimum(lp, CFG)

    def test_objective_constant_on_equality_flat(self):
        lp = make_lp([[1.0, 0.0], [0.0, -1.0]], [2.0, -5.0], [Sense.EQ, Sense.GE],
                     objective=Objective(Direction.MAX, np.array([1.0, 0.0])))
        result = solve_optimum(lp, CFG)
        assert result.verdict is Verdict.OPTIMAL
        assert result.objective_value == pytest.approx(2.0, abs=1e-8)


class TestTraceInvariants:
    def test_random_feasible_traces_clean(self):
        rng = np.random.default_rng(99)
        for seed in range(30):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(3, 12))
            inst = testkit.gen_feasible(n, m, 0.15, seed)
            events = []
            result = solve_feasibility(inst.lp, CFG, trace=events.append)
            assert result.verdict is Verdict.FEASIBLE
            assert testkit.check_trace(inst.lp, events, CFG.epsilon, CFG.feas_tol) == []
            assert testkit.monotone_approach_violations(inst.lp, events) == []

    def test_resolved_points_pass_check(self):
        rng = np.random.default_rng(100)
        for seed in range(30):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(2, 12))
            inst = testkit.gen_infeasible(n, m, seed)
            result = solve_feasibility(inst.lp, CFG)
            assert result.verdict is not Verdict.FEASIBLE

    def test_determinism_same_inputs_same_trace(self):
        inst = testkit.gen_feasible(4, 10, 0.12, 7)
        runs = []
        for _ in range(2):
            events = []
            result = solve_feasibility(inst.lp, CFG, trace=events.append)
            runs.append((result.verdict, tuple(result.point), tuple(events)))
        assert runs[0] == runs[1]
