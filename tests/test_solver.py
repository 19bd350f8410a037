import itertools
import math

import numpy as np
import pytest

from gutterlp.gram import GutterBasis
from gutterlp.model import (
    DimensionMismatchError,
    Direction,
    LinearProgram,
    Objective,
    Sense,
    SolverConfig,
    Verdict,
    ZeroNormalError,
    check_point,
    normalize,
)
from gutterlp.solver import (
    EventKind,
    InconsistentEqualityError,
    ResolveOutcome,
    SolverState,
    _slide_direction,
    initial_point,
    resolve_constraint,
    solve_feasibility,
    solve_optimum,
)
from gutterlp import cli, testkit


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

    def test_given_start_projected_onto_equalities(self):
        lp = make_lp([[1.0, 1.0], [1.0, 0.0]], [2.0, 5.0], [Sense.EQ, Sense.GE])
        start = [3.0, 1.0]
        assert np.allclose(initial_point(lp, start=start), [2.0, 0.0])
        assert start == [3.0, 1.0]

    def test_given_start_kept_without_equalities(self):
        lp = make_lp([[1.0, 0.0]], [2.0])
        start = np.array([-1.0, 4.0])
        point = initial_point(lp, start=start)
        assert np.array_equal(point, start) and point is not start

    def test_start_of_wrong_length_rejected(self):
        lp = make_lp([[1.0, 0.0]], [2.0])
        with pytest.raises(DimensionMismatchError, match="start point has length 3"):
            initial_point(lp, start=[0.0, 0.0, 0.0])

    @pytest.mark.parametrize("start", [[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
    def test_non_finite_start_rejected(self, start):
        lp = make_lp([[1.0, 0.0]], [2.0])
        with pytest.raises(ValueError, match="start point must be finite"):
            initial_point(lp, start=start)


class TestResolveConstraint:
    def test_single_unobstructed_move(self):
        lp = make_lp([[0.0, 1.0], [1.0, 0.0]], [0.0, 2.0])
        state = SolverState(p0=np.array([0.0, 1.0]), epsilon=0.01,
                            gutter=GutterBasis(2), target_index=1)
        outcome = resolve_constraint(lp, state, CFG)
        assert outcome is ResolveOutcome.RESOLVED
        assert np.allclose(state.p0, [2.01, 1.0])

    def test_one_dimensional_gutter_full(self):
        lp = make_lp([[1.0], [-1.0]], [1.0, 0.0])
        state = SolverState(p0=np.array([1.01]), epsilon=0.01,
                            gutter=GutterBasis(1), target_index=1)
        outcome = resolve_constraint(lp, state, CFG)
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


class TestGivenTarget:
    """resolve_constraint's target: a row of the program, or phase II's `objective` direction."""

    def resolve(self, lp, p0, target_index=-1, objective=None):
        state = SolverState(p0=np.array(p0), epsilon=0.01, gutter=GutterBasis(2),
                            target_index=target_index)
        events = []
        outcome = resolve_constraint(lp, state, CFG, events.append, objective=objective)
        return outcome, state, events

    def test_tie_with_an_obstacle_goes_to_the_obstacle(self):
        # x <= 1 (row 0) and the target x >= 1 (row 1) are both reached at t = 1
        # from the origin, and the tie goes to the lower index
        lp = make_lp([[-1.0, 0.0], [1.0, 0.0]], [-1.0, 1.0])
        outcome, state, events = self.resolve(lp, [0.0, 0.0], target_index=1)
        assert outcome is ResolveOutcome.NO_SLOPE
        assert state.gutter.indices == (0,)
        assert (EventKind.OBSTACLE_BACKOFF, "obstacle=0") in [(e.kind, e.detail) for e in events]
        # the same target as row 0 of the program beats the obstacle, now row 1
        lp = make_lp([[1.0, 0.0], [-1.0, 0.0]], [1.0, -1.0])
        outcome, state, _ = self.resolve(lp, [0.0, 0.0], target_index=0)
        assert outcome is ResolveOutcome.RESOLVED
        assert state.gutter.size == 0 and np.array_equal(state.p0, [1.0, 0.0])

    def test_strict_target_on_its_plane_moves_to_the_standoff(self):
        rows, offsets = [[0.0, 1.0], [1.0, 0.0]], [-5.0, 2.0]
        lp = make_lp(rows, offsets, [Sense.GE, Sense.GT])
        outcome, state, _ = self.resolve(lp, [2.0, 0.0], target_index=1)
        assert outcome is ResolveOutcome.RESOLVED
        assert np.allclose(state.p0, [2.01, 0.0])
        # a GE target on its plane is already met
        outcome, state, events = self.resolve(make_lp(rows, offsets), [2.0, 0.0], target_index=1)
        assert outcome is ResolveOutcome.RESOLVED
        assert np.array_equal(state.p0, [2.0, 0.0]) and kinds(events) == [EventKind.RESOLVED]

    def test_equality_target_rejected(self):
        lp = make_lp([[0.0, 1.0], [1.0, 0.0]], [-5.0, 2.0], [Sense.GE, Sense.EQ])
        with pytest.raises(ValueError, match="GE or GT"):
            self.resolve(lp, [0.0, 0.0], target_index=1)

    @pytest.mark.parametrize("target_index", [-1, 2])
    def test_target_outside_the_rows_rejected(self, target_index):
        # -1, SolverState's default, would otherwise target the last row and win its ties
        lp = make_lp([[-1.0, 0.0], [1.0, 0.0]], [-1.0, 1.0])
        with pytest.raises(ValueError, match=r"in 0\.\.1, got"):
            self.resolve(lp, [0.0, 0.0], target_index=target_index)

    def test_target_at_infinity_never_resolves(self):
        # phase II's target: the walk up (1, 1) ends in the box's corner, and
        # on the open quadrant nothing stops it
        up = np.array([1.0, 1.0]) / math.sqrt(2.0)
        box = make_lp([[-1.0, 0.0], [0.0, -1.0]], [-1.0, -1.0])
        outcome, state, events = self.resolve(box, [0.0, 0.0], objective=up)
        assert outcome is ResolveOutcome.GUTTER_FULL
        assert set(state.gutter.indices) == {0, 1}
        assert np.allclose(state.p0, [0.99, 0.99])
        # the objective is reported as index m, one past the program's rows
        assert events[-1].kind is EventKind.GUTTER_FULL and events[-1].detail == "target=2 rows=2"
        quadrant = make_lp([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        outcome, state, events_q = self.resolve(quadrant, [0.0, 0.0], objective=up)
        assert outcome is ResolveOutcome.UNBOUNDED_RAY
        assert state.gutter.size == 0 and np.allclose(state.dir, up)
        assert EventKind.RESOLVED not in kinds(events) + kinds(events_q)

    def test_slide_direction_is_an_array_or_none(self):
        proj = np.array([3.0, 4.0])
        direction = _slide_direction(proj, -1.0, 1e-9, 1e-8, 0.01)
        assert type(direction) is np.ndarray and np.array_equal(direction, [0.6, 0.8])
        # the objective's distance, -inf, leaves the direction to proj alone
        assert np.array_equal(_slide_direction(proj, -math.inf, 1e-9, 1e-8, 0.01), direction)
        # no slope along the gutter, or a target met by more than epsilon: nothing to travel
        assert _slide_direction(np.zeros(2), -1.0, 1e-9, 1e-8, 0.01) is None
        assert _slide_direction(proj, 0.5, 1e-9, 1e-8, 0.01) is None


class TestStallSite:
    """Every way a resolve cycle stops short of its target, as the trace reports it."""

    # from the origin, target row 1 (y >= 1) is reached along row 2 (y <= x + 0.5)
    # at its vertex with row 0 (y <= 1), the opposed copy of row 1; row 3 is x >= 0.7
    PAIR = ([[0.0, -1.0], [0.0, 1.0], [1.0, -1.0], [1.0, 0.0]], [-1.0, 1.0, -0.5, 0.7])

    def test_full_gutter_after_an_equality_switch_has_no_slope_at_cycle_start(self):
        # the switch pins rows 0, 1 and 2 at (0.5, 1); the next cycle's target, row 3,
        # starts with n gutter rows and no direction, which is NO_SLOPE, not GUTTER_FULL
        lp = make_lp(*self.PAIR)
        events = []
        result = solve_feasibility(lp, CFG, trace=events.append)
        assert kinds(events)[-5:] == [EventKind.GUTTER_APPEND, EventKind.GUTTER_FULL,
                                      EventKind.EQUALITY_SWITCH, EventKind.SELECT_TARGET,
                                      EventKind.STALL]
        assert events[-1].detail == "no-slope at cycle start"
        assert events[-1].gutter_indices == (0, 2) and events[-1].dir == (0.0, 0.0)
        assert result.diagnostics == ("unresolvable constraint 3 (no-slope)",)

    def test_inner_cap_stops_with_a_zero_direction(self):
        lp = make_lp(*self.PAIR)
        config = SolverConfig(epsilon=0.01, max_iters=1)
        for events in (None, []):
            state = SolverState(p0=np.zeros(2), epsilon=0.01, gutter=GutterBasis(2),
                                target_index=1)
            sink = None if events is None else events.append
            assert resolve_constraint(lp, state, config, sink) is ResolveOutcome.INNER_CAP
            assert state.inner_iter == config.inner_cap(lp) + 1 == 2
            assert state.gutter.indices == (2,)
        assert (events[-1].kind, events[-1].detail) == (EventKind.STALL, "inner-iteration-cap")
        assert events[-1].dir == (0.0, 0.0) and events[-1].iteration == 2


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
        for start in (None, np.array([5.0])):
            result = solve_feasibility(lp, CFG, start=start)
            assert result.verdict is Verdict.INFEASIBLE
            assert result.iterations == 0
            assert result.diagnostics == ("contradictory equality constraints",)

    def test_supplied_start_projected_onto_equalities(self):
        lp = make_lp([[0.0, 1.0], [1.0, 0.0]], [1.0, -5.0], [Sense.EQ, Sense.GE])
        result = solve_feasibility(lp, CFG, start=np.array([0.0, 4.0]))
        assert result.verdict is Verdict.FEASIBLE
        assert abs(lp.A[0] @ result.point - lp.b[0]) <= 1e-8

    @pytest.mark.parametrize("start", [[np.nan, 0.0], [np.inf, 0.0]])
    def test_non_finite_start_rejected(self, start):
        lp = make_lp([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        with pytest.raises(ValueError, match="start point must be finite"):
            solve_feasibility(lp, CFG, start=start)

    def test_strict_constraints_resolved_strictly(self):
        lp = make_lp([[1.0], [-1.0]], [0.0, -1.0], [Sense.GT, Sense.GT])
        result = solve_feasibility(lp, CFG)
        assert result.verdict is Verdict.FEASIBLE
        assert result.point[0] > 0
        assert result.point[0] < 1


class TestStrictTargets:
    """GT-sense copies of certified-feasible programs.

    An early stop can leave a strict target a rounding error below its plane
    (d of order -1e-16). The slide direction must then count the gap up to the
    epsilon standoff as the travel left, as the hit-time scan does, instead of
    |d| ~ 1e-16, which reads as "no slope" and stalls.
    """

    @pytest.mark.parametrize("n,m,seed", [(5, 20, 52), (20, 200, 16), (20, 200, 18),
                                          (20, 200, 36), (20, 200, 40)])
    def test_strict_copy_of_feasible_program_is_solved(self, n, m, seed):
        base = testkit.gen_feasible(n, m, 0.1, seed).lp
        lp = LinearProgram.from_arrays(base.A, base.b, [Sense.GT] * m)
        result = solve_feasibility(lp, SolverConfig())
        assert result.verdict is Verdict.FEASIBLE, result.diagnostics
        assert check_point(lp, result.point)


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


def _phase2_cycles(events):
    return sum(e.kind is EventKind.SELECT_TARGET and "artificial" in e.detail for e in events)


def _multipliers(lp, rows, c):
    """-(G G^T)^-1 G c_hat for the given gutter rows, from scratch."""
    G = lp.A[list(rows)]
    c_hat = c / np.linalg.norm(c)
    return -np.linalg.solve(G @ G.T, G @ c_hat)


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
        # the README's box: the first stall's KKT test ends phase II
        assert result.diagnostics == ("optimum at gutter-full",)
        assert len(full) == 1 and _phase2_cycles(events) == 1

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

    @pytest.mark.parametrize("start", [[np.nan, 0.0], [np.inf, 0.0]])
    def test_non_finite_start_rejected(self, start):
        lp = make_lp([[-1.0, 0.0], [0.0, -1.0]], [-2.0, -1.0],
                     objective=Objective(Direction.MAX, np.array([1.0, 1.0])))
        with pytest.raises(ValueError, match="start point must be finite"):
            solve_optimum(lp, CFG, start=start)

    @pytest.mark.parametrize("direction,sign", [(Direction.MAX, 1.0), (Direction.MIN, -1.0)])
    def test_huge_objective_keeps_its_direction(self, direction, sign):
        # c . c overflows to inf; dividing by it would walk a zero objective
        lp = make_lp([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0, -5.0, -5.0],
                     objective=Objective(direction, sign * np.array([1e200, 1e200])))
        result = solve_optimum(lp, CFG)
        assert result.verdict is Verdict.OPTIMAL
        assert np.allclose(result.point, [5.0, 5.0], atol=1e-9)
        assert result.objective_value == pytest.approx(sign * 1e201, rel=1e-12)

    def test_objective_constant_on_equality_flat(self):
        lp = make_lp([[1.0, 0.0], [0.0, -1.0]], [2.0, -5.0], [Sense.EQ, Sense.GE],
                     objective=Objective(Direction.MAX, np.array([1.0, 0.0])))
        result = solve_optimum(lp, CFG)
        assert result.verdict is Verdict.OPTIMAL
        assert result.objective_value == pytest.approx(2.0, abs=1e-8)


class TestPhaseTwoStops:
    """Phase II ends at a KKT vertex or a recession ray, without a confirming cycle."""

    def test_open_quadrant_is_a_recession_ray(self):
        # max x + y subject to x, y >= 0: no plane stops the first cycle's walk along (1, 1)
        lp = make_lp([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0],
                     objective=Objective(Direction.MAX, np.array([1.0, 1.0])))
        events = []
        result = solve_optimum(lp, CFG, trace=events.append)
        assert result.verdict is Verdict.UNBOUNDED
        assert result.diagnostics == ("recession ray",)
        assert result.point is None
        assert _phase2_cycles(events) == 1

    def test_negative_multiplier_at_first_stall_retries(self):
        # max y below y <= 1 + x, y <= 1.5 + x / 2 and x <= 5: the walk climbs
        # y <= 1 + x into its corner with the second row at (1, 2), where the
        # first row's multiplier is negative; the retry slides along the second
        # row to the optimum (5, 4)
        lp = make_lp([[1.0, -1.0], [0.5, -1.0], [-1.0, 0.0]], [-1.0, -1.5, -5.0],
                     objective=Objective(Direction.MAX, np.array([0.0, 1.0])))
        events = []
        result = solve_optimum(lp, CFG, trace=events.append)
        first = next(e for e in events if e.kind is EventKind.GUTTER_FULL)
        assert set(first.gutter_indices) == {0, 1}
        y = _multipliers(lp, first.gutter_indices, lp.objective.coefficients)
        assert y[list(first.gutter_indices).index(0)] < 0
        assert result.verdict is Verdict.OPTIMAL
        assert np.allclose(result.point, [5.0, 4.0], atol=1e-9)
        assert result.objective_value == pytest.approx(4.0, abs=1e-9)
        assert _phase2_cycles(events) == 2
        oracle = testkit.oracle_solve(lp)
        assert oracle.verdict is Verdict.OPTIMAL
        assert oracle.value == pytest.approx(result.objective_value, abs=1e-9)

    def test_equality_row_multiplier_is_free(self):
        # max y on x + y = 2 with x >= 0.5: the optimum (0.5, 1.5) holds the
        # equality with a negative multiplier, which does not block the stop
        lp = make_lp([[1.0, 1.0], [1.0, 0.0]], [2.0, 0.5], [Sense.EQ, Sense.GE],
                     objective=Objective(Direction.MAX, np.array([0.0, 1.0])))
        events = []
        result = solve_optimum(lp, CFG, trace=events.append)
        assert result.verdict is Verdict.OPTIMAL
        assert np.allclose(result.point, [0.5, 1.5], atol=1e-9)
        assert _phase2_cycles(events) == 1
        y = _multipliers(lp, (0, 1), lp.objective.coefficients)
        assert y[0] < 0 < y[1]

    def test_ray_along_an_equality_row(self):
        # max x on x + y = 2 with x >= 0: the ray (1, -1) stays on the equality
        lp = make_lp([[1.0, 1.0], [1.0, 0.0]], [2.0, 0.0], [Sense.EQ, Sense.GE],
                     objective=Objective(Direction.MAX, np.array([1.0, 0.0])))
        events = []
        result = solve_optimum(lp, CFG, trace=events.append)
        assert result.verdict is Verdict.UNBOUNDED
        assert result.diagnostics == ("recession ray",)
        assert _phase2_cycles(events) == 1

    def test_unstopped_walk_without_a_proof_is_unbounded(self):
        # a tiny-text program: phase I ends on row 3's plane, and phase II's
        # scan drops that row (its hit time is 0) and walks through it, so no
        # plane stops the walk but the end is no recession ray
        seed, n = 1912383804, 3
        gen = testkit.gen_feasible(n, 8, 0.1, seed)
        rng = np.random.default_rng((seed, n, 0x0B))
        c = rng.standard_normal(n)
        direction = Direction.MAX if rng.random() < 0.5 else Direction.MIN
        lp = LinearProgram.from_arrays(gen.lp.A, gen.lp.b, objective=Objective(direction, c))
        events = []
        result = solve_optimum(lp, CFG, trace=events.append)
        assert result.verdict is Verdict.UNBOUNDED
        assert result.diagnostics == ("no plane stops the objective walk",)
        assert _phase2_cycles(events) == 1
        assert events[-1].kind is EventKind.STALL and events[-1].detail == "unbounded-ray"
        assert testkit.oracle_solve(lp).verdict is Verdict.UNBOUNDED

    def test_stall_without_a_proof_is_stalled(self):
        # optimize/3x8/10 of tests/test_equivalence.py: no stall's gutter vertex passes
        # the KKT test, and the best feasible one met (-0.31992) is not the optimum
        seed, n = 10, 3
        base = testkit.gen_feasible(n, 8, 0.1, seed).lp
        rng = np.random.default_rng((seed, n, 7))
        direction = Direction.MAX if rng.random() < 0.5 else Direction.MIN
        lp = LinearProgram.from_arrays(base.A, base.b,
                                       objective=Objective(direction, rng.standard_normal(n)))
        result = solve_optimum(lp, SolverConfig())
        assert result.verdict is Verdict.STALLED
        assert result.diagnostics == ("no optimality proof (gutter-full)",)
        assert result.point is None and result.objective_value is None
        oracle = testkit.oracle_solve(lp)
        assert oracle.verdict is Verdict.OPTIMAL
        assert oracle.value == pytest.approx(-0.38419, abs=1e-5)


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

    def test_full_gutters_keep_directions_orthogonal(self):
        # phase II fills gutters of up to 20 rows; the slide direction is one
        # projection, so its drift off the gutter planes must stay at rounding level
        worst = 0.0
        for seed in range(10):
            base = testkit.gen_feasible(20, 60, 0.1, seed).lp
            c = np.random.default_rng((seed, 20, 3)).standard_normal(20)
            lp = LinearProgram.from_arrays(base.A, base.b,
                                           objective=Objective(Direction.MAX, c))
            events = []
            solve_optimum(lp, CFG, trace=events.append)
            problems = testkit.check_trace(lp, events, CFG.epsilon, CFG.feas_tol)
            assert not [p for p in problems if "drift" in p]
            for event in events:
                if event.gutter_indices and any(event.dir):
                    drift = lp.A[list(event.gutter_indices)] @ np.asarray(event.dir)
                    worst = max(worst, float(np.max(np.abs(drift))))
        assert 0.0 < worst <= 1e-10

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


def _result_record(result):
    point = None if result.point is None else result.point.tobytes()
    return (result.verdict, result.iterations, point, result.objective_value,
            result.epsilon_final, result.diagnostics)


class TestFarObstacle:
    """A far obstacle is backed off from and joins the gutter in the same step."""

    def test_far_obstacle_backs_off_then_joins_the_gutter(self):
        # heading for x >= 2 from (0, 0.5), the ball meets x + y <= 1.5 far away
        lp = make_lp([[-1.0, -1.0], [1.0, 0.0]], [-1.5, 2.0])
        state = SolverState(p0=np.array([0.0, 0.5]), epsilon=0.01,
                            gutter=GutterBasis(2), target_index=1)
        events = []
        outcome = resolve_constraint(lp, state, CFG, events.append)
        assert outcome is ResolveOutcome.RESOLVED
        assert [(e.iteration, e.kind, e.detail) for e in events] == [
            (1, EventKind.MOVE, "advance t=9.858578644e-01"),
            (1, EventKind.OBSTACLE_BACKOFF, "obstacle=0"),
            (1, EventKind.GUTTER_APPEND, "plane=0"),
            (2, EventKind.MOVE, "advance t=1.448355698e+00"),
            (2, EventKind.RESOLVED, "target=1"),
        ]
        assert state.inner_iter == 2
        # the distances handed back belong to the final center
        assert np.array_equal(state.distances, lp.A @ state.p0 - lp.b)

    def test_tied_planes_append_the_lower_index(self):
        # x + y <= 1 and x - y <= 1 are both hit at t = 1 on the way to x >= 2
        lp = make_lp([[-1.0, -1.0], [-1.0, 1.0], [1.0, 0.0]], [-1.0, -1.0, 2.0])
        state = SolverState(p0=np.zeros(2), epsilon=0.01, gutter=GutterBasis(2), target_index=2)
        events = []
        outcome = resolve_constraint(lp, state, CFG, events.append)
        assert outcome is ResolveOutcome.GUTTER_FULL
        assert [(e.kind, e.detail) for e in events if e.kind is not EventKind.MOVE] == [
            (EventKind.OBSTACLE_BACKOFF, "obstacle=0"),
            (EventKind.GUTTER_APPEND, "plane=0"),
            (EventKind.GUTTER_APPEND, "plane=1"),
            (EventKind.GUTTER_FULL, "target=2 rows=2"),
        ]

    def test_zero_radius_backoff_is_its_own_step(self):
        # without a ball the center lands on x + y <= 1.5 and the next scan,
        # which drops planes at t = 0, lets it cross: nothing joins the gutter
        lp = make_lp([[-1.0, -1.0], [1.0, 0.0]], [-1.5, 2.0])
        state = SolverState(p0=np.array([0.0, 0.5]), epsilon=0.0,
                            gutter=GutterBasis(2), target_index=1)
        events = []
        outcome = resolve_constraint(lp, state, CFG, events.append)
        assert outcome is ResolveOutcome.RESOLVED
        assert [(e.iteration, e.kind, e.detail) for e in events] == [
            (1, EventKind.MOVE, "advance t=1.000000000e+00"),
            (1, EventKind.OBSTACLE_BACKOFF, "obstacle=0"),
            (2, EventKind.MOVE, "advance t=1.000000000e+00"),
            (2, EventKind.RESOLVED, "target=1"),
        ]
        assert state.inner_iter == 2
        assert state.gutter.size == 0
        assert lp.A[0] @ state.p0 - lp.b[0] < 0


def _lp_text(lp, objective=None):
    """The rows in the LP file format, one `c ... >= b` line each, as LP text is written."""
    lines = [f"vars {lp.dimension}"]
    if objective is not None:
        lines.append(f"objective {objective.direction.value} "
                     + " ".join(repr(float(x)) for x in objective.coefficients))
    lines += ["c " + " ".join(repr(float(x)) for x in a) + " >= " + repr(float(b))
              for a, b in zip(lp.A, lp.b)]
    return "\n".join(lines) + "\n"


def _instance(family, n, m, seed):
    text = family.startswith("text-")
    family = family.removeprefix("text-")
    solve, objective = solve_feasibility, None
    if family == "infeasible":
        lp = testkit.gen_infeasible(n, m, seed).lp
    elif family == "equality":
        # row 0 becomes an equality through the certified interior point
        inst = testkit.gen_feasible(n, m, 0.1, seed)
        offsets = inst.lp.b.copy()
        offsets[0] = float(inst.lp.A[0] @ inst.certificate.point)
        lp = LinearProgram.from_arrays(inst.lp.A, offsets, [Sense.EQ] + [Sense.GE] * (m - 1))
    else:
        lp = testkit.gen_feasible(n, m, 0.1, seed).lp
    if family == "strict":
        lp = LinearProgram.from_arrays(lp.A, lp.b, [Sense.GT] * m)
    if family == "optimize":
        c = np.random.default_rng((seed, n)).standard_normal(n)
        # LP text asks for both directions, as the benchmark's text workload does
        objective = Objective(Direction.MIN if text and seed % 2 else Direction.MAX, c)
        lp = LinearProgram.from_arrays(lp.A, lp.b, objective=objective)
        solve = solve_optimum
    if text:
        lp = cli.parse_lp(_lp_text(lp, objective))
    return lp, solve


@pytest.mark.parametrize("family,n,m", [("feasible", 3, 8), ("infeasible", 3, 8),
                                        ("optimize", 3, 8), ("feasible", 5, 20),
                                        ("infeasible", 5, 20), ("feasible", 10, 50),
                                        ("infeasible", 10, 50), ("optimize", 10, 50),
                                        ("feasible", 20, 200), ("infeasible", 20, 200),
                                        ("optimize", 20, 200),
                                        ("text-feasible", 2, 6), ("text-infeasible", 3, 8),
                                        ("text-optimize", 4, 12), ("strict", 5, 20),
                                        ("strict", 10, 50), ("equality", 3, 8),
                                        ("equality", 5, 20)])
def test_tracing_changes_no_result(family, n, m):
    # one program object is solved untraced and then traced, so a result that
    # depended on tracing or on state left by the first solve would show here.
    # Only a traced solve compares each moved center with the last one, and
    # that comparison holds -0.0 equal to +0.0, so starts of -0.0 are solved too
    for seed in range(10):
        lp, solve = _instance(family, n, m, seed)
        for start in (None, np.full(n, -0.0)):
            assert _result_record(solve(lp, start=start)) == \
                _result_record(solve(lp, start=start, trace=lambda event: None)), (seed, start)


def test_rounding_size_move_takes_the_same_center_traced_or_not():
    # the obstacle's distance rounds to 0.01 + 9.3e-12, so the center moves by
    # 9.3e-12 along (0, 1): 1e6 keeps its bits, and -0.0 + 0.0 becomes +0.0. A
    # traced solve must take that moved center too, and only skip its MOVE event
    lp = make_lp([[0.0, 1.0], [0.0, -1.0]], [1e6 + 1.0, -(1e6 + 0.01)])
    centers = []
    for events in (None, []):
        state = SolverState(p0=np.array([-0.0, 1e6]), epsilon=0.01, gutter=GutterBasis(2),
                            target_index=0)
        sink = None if events is None else events.append
        assert resolve_constraint(lp, state, CFG, sink) is ResolveOutcome.NO_SLOPE
        centers.append(state.p0.tobytes())
    assert centers[0] == centers[1] == np.array([0.0, 1e6]).tobytes()
    assert [(e.kind, e.detail) for e in events] == [(EventKind.GUTTER_APPEND, "plane=1"),
                                                    (EventKind.STALL, "no-slope")]


def _text_and_arrays(family, n, m, seed):
    """One program twice: as LP text read by `cli.parse_lp`, and from arrays.

    The mixed family holds `>=`, `>`, `=` and `<=` rows around the certified
    interior point; a `<=` row is written negated, as the parser flips it back.
    """
    inst = (testkit.gen_infeasible(n, m, seed) if family == "infeasible"
            else testkit.gen_feasible(n, m, 0.1, seed))
    A, b = inst.lp.A.copy(), inst.lp.b.copy()
    ops = [">="] * m
    objective = None
    if family == "mixed":
        ops = [[">=", ">", "=", "<="][k % 4] for k in range(m)]
        b[2::4] = A[2::4] @ inst.certificate.point
    if family.startswith("optimize"):
        direction = Direction.MAX if family == "optimize-max" else Direction.MIN
        objective = Objective(direction, np.random.default_rng((seed, n)).standard_normal(n))
    sign = np.array([-1.0 if op == "<=" else 1.0 for op in ops])
    text_rows = tuple((tuple(a.tolist()), op, r)
                      for a, op, r in zip(sign[:, None] * A, ops, (sign * b).tolist()))
    doc = cli.LpFileDocument(n, None if objective is None else (
        objective.direction.value, tuple(objective.coefficients.tolist())), text_rows)
    senses = [{">": Sense.GT, "=": Sense.EQ}.get(op, Sense.GE) for op in ops]
    arrays = LinearProgram.from_arrays(A, b, senses, objective)
    solve = solve_feasibility if objective is None else solve_optimum
    return cli.parse_lp(cli.serialize_lp(doc)), arrays, solve


@pytest.mark.parametrize("family,n,m", [("feasible", 2, 6), ("infeasible", 3, 8),
                                        ("optimize-max", 4, 12), ("optimize-min", 4, 12),
                                        ("mixed", 4, 12)])
def test_lp_text_and_arrays_give_identical_results(family, n, m):
    # a parsed program is normalized once, in parse_lp, as an array-built one is in the solve
    for seed in range(10):
        text, arrays, solve = _text_and_arrays(family, n, m, seed)
        text_events, array_events = [], []
        assert _result_record(solve(text, trace=text_events.append)) == \
            _result_record(solve(arrays, trace=array_events.append)), seed
        assert text_events == array_events, seed


def test_parsed_program_under_geom_tol_of_one_still_rejects_unit_rows():
    lp = cli.parse_lp("vars 2\nc 3 4 >= 1\nc 0 -2 >= -5\n")
    with pytest.raises(ZeroNormalError):
        solve_feasibility(lp, SolverConfig(epsilon=2.0, geom_tol=1.0))


def _bytes(arr):
    return None if arr is None else arr.tobytes()


class TestScanBuffers:
    """resolve_constraint's per-cycle buffers: what it is given or hands back is never reused."""

    @staticmethod
    def cycles(lp, config, trace=None):
        """Phase I's cycles from the origin, as (state, d, satisfied, outcome) per cycle."""
        state = SolverState(p0=np.zeros(lp.dimension), epsilon=config.epsilon,
                            gutter=GutterBasis(lp.dimension))
        d = lp.A @ state.p0 - lp.b
        for _ in range(20):
            satisfied = lp.satisfied(d, config.feas_tol)
            if satisfied.all():
                return
            state.target_index = int(np.where(satisfied, np.inf, d).argmin())
            state.gutter.reset()
            outcome = resolve_constraint(lp, state, config, trace, d, satisfied)
            yield state, d, satisfied, outcome
            if outcome is not ResolveOutcome.RESOLVED:
                return
            d = state.distances

    def test_given_and_returned_distances_are_left_as_they_were(self):
        # each cycle is handed the distances the one before returned, as phase I
        # does; neither the arrays handed in nor any cycle's returned distances
        # may change while later cycles run
        resolved = 0
        for seed in range(10):
            lp = normalize(testkit.gen_feasible(10, 50, 0.1, seed).lp)
            kept = []
            for state, d, satisfied, outcome in self.cycles(lp, CFG):
                kept += [(d, d.tobytes()), (satisfied, satisfied.tobytes())]
                if outcome is ResolveOutcome.RESOLVED:
                    resolved += 1
                    kept.append((state.distances, state.distances.tobytes()))
                    assert np.array_equal(state.distances, lp.A @ state.p0 - lp.b)
                for arr, data in kept:
                    assert arr.tobytes() == data, seed
        assert resolved >= 20

    @pytest.mark.parametrize("family", ["feasible", "optimize"])
    def test_returned_point_is_the_callers_own(self, family):
        lp, solve = _instance(family, 10, 50, 1)
        first = solve(lp)
        kept = first.point.tobytes()
        first.point[:] = 1e9
        assert solve(lp).point.tobytes() == kept

    @pytest.mark.parametrize("max_iters", [None, 3])
    def test_state_at_return_is_the_state_the_last_event_reports(self, max_iters):
        # the center, direction and step count live in locals during a cycle and
        # are written back before every return, traced or not
        config = SolverConfig(epsilon=0.01, max_iters=max_iters)
        outcomes = set()
        for family, seed in itertools.product(["feasible", "infeasible"], range(10)):
            lp = normalize(_instance(family, 5, 20, seed)[0])
            runs = []
            for events in (None, []):
                sink = None if events is None else events.append
                run = []
                for state, _, _, outcome in self.cycles(lp, config, sink):
                    run.append((outcome, _bytes(state.p0), _bytes(state.dir), state.inner_iter,
                                _bytes(state.distances)))
                    if events is not None:
                        assert events[-1].iteration == state.inner_iter
                        assert events[-1].p0 == tuple(state.p0.tolist())
                runs.append(run)
            assert runs[0] == runs[1], (family, seed)
            outcomes.update(outcome for outcome, *_ in runs[0])
        # RESOLVED, NO_SLOPE, and GUTTER_FULL or, under the cap, INNER_CAP
        assert len(outcomes) == 3
