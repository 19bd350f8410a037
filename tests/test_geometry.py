import re

import numpy as np
import pytest

from gutterlp import testkit
from gutterlp.gram import GutterBasis
from gutterlp.model import DimensionMismatchError, LinearProgram, Sense, SolverConfig, check_point, normalize
from gutterlp.solver import EventKind, SolverState, resolve_constraint, solve_feasibility


def basis_of(rows, dimension):
    basis = GutterBasis(dimension)
    for k, (normal, offset) in enumerate(rows):
        assert basis.append_row(k, np.asarray(normal, float), offset)
    return basis


def program(rows, offsets, senses=None):
    return normalize(LinearProgram(np.asarray(rows, float), np.asarray(offsets, float), senses))


def first_step(lp, target, p0, pinned=()):
    """One step of the obstacle scan with a zero-radius ball.

    Returns (plane, t, center): plane is the index of the first open plane
    hit, or None when the target comes first; t is how far the center moved.
    With a zero radius a far obstacle stops the center exactly on its plane.
    """
    state = SolverState(p0=np.asarray(p0, float), epsilon=0.0, gutter=GutterBasis(lp.dimension),
                        target_index=target, pinned_eq=set(pinned))
    events = []
    resolve_constraint(lp, state, SolverConfig(epsilon=0.0, max_iters=1), events.append)
    kinds = [e.kind for e in events]
    assert EventKind.MOVE in kinds, kinds
    t = float(np.linalg.norm(state.p0 - np.asarray(p0, float)))
    backoff = [e for e in events if e.kind is EventKind.OBSTACLE_BACKOFF]
    if backoff:
        return int(re.search(r"obstacle=(\d+)", backoff[0].detail).group(1)), t, state.p0
    assert EventKind.RESOLVED in kinds, kinds
    return None, t, state.p0


# the target x >= 2 lies at t = 2 from (0, 0.5) along +x
TARGET = ([1.0, 0.0], 2.0)
P0 = [0.0, 0.5]


class TestSignedDistance:
    """The residual A p - b and the per-row sense mask that every scan reads."""

    def test_positive_side(self):
        lp = program([[0.6, 0.8]] * 2, [2.0, 2.0], [Sense.GE, Sense.GT])
        d = lp.A @ np.array([5.0, 0.0]) - lp.b
        assert d == pytest.approx([1.0, 1.0])
        assert lp.satisfied(d, 1e-8).tolist() == [True, True]

    def test_negative_side(self):
        lp = program([[3.0, 4.0]], [10.0])
        events = []
        solve_feasibility(lp, SolverConfig(), start=np.zeros(2), trace=events.append)
        assert events[0].kind is EventKind.SELECT_TARGET
        assert events[0].detail == "target=0 distance=-2.000000000e+00"

    def test_on_plane(self):
        lp = program([[0.6, 0.8]] * 3, [2.0] * 3, [Sense.GE, Sense.GT, Sense.EQ])
        d = lp.A @ np.array([2.0, 1.0]) - lp.b
        assert np.max(np.abs(d)) <= 1e-15
        assert lp.satisfied(d, 1e-8).tolist() == [True, False, True]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            check_point(program([[1.0, 0.0]], [0.0]), [1.0])


class TestRayHit:
    def test_simple_hit(self):
        lp = program([[-1.0, 0.0], TARGET[0]], [-1.5, TARGET[1]])
        plane, t, center = first_step(lp, 1, P0)
        assert plane == 0
        assert t == pytest.approx(1.5)
        assert np.allclose(center, [1.5, 0.5])

    def test_parallel_is_none(self):
        lp = program([[0.0, 1.0], [0.0, -1.0], TARGET[0]], [0.0, -1.0, TARGET[1]])
        plane, t, center = first_step(lp, 2, P0)
        assert plane is None
        assert t == pytest.approx(2.0)

    def test_behind_is_none(self):
        lp = program([[1.0, 0.0], [1.0, 1.0], TARGET[0]], [-1.0, -3.0, TARGET[1]])
        plane, t, _ = first_step(lp, 2, P0)
        assert plane is None
        assert t == pytest.approx(2.0)

    def test_hit_point_on_plane(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            rows = rng.standard_normal((6, 4))
            p0 = rng.standard_normal(4)
            offsets = rows @ p0 - rng.uniform(0.1, 2.0, 6)
            offsets[5] = rows[5] @ p0 + 1.0
            lp = program(rows, offsets)
            plane, _, center = first_step(lp, 5, p0)
            hit = 5 if plane is None else plane
            assert abs(float(lp.A[hit] @ center - lp.b[hit])) <= 1e-9


class TestFirstObstacle:
    def test_closest_wins(self):
        lp = program([[-1.0, 0.0], [-1.0, 0.0], [-1.0, 0.1], TARGET[0]],
                      [-1.8, -1.2, -1.9, TARGET[1]])
        plane, t, _ = first_step(lp, 3, P0)
        assert plane == 1
        assert t == pytest.approx(1.2)

    def test_candidate_restriction(self):
        # a pinned row is never an obstacle, even one the ray would hit first
        lp = program([[-1.0, 0.0], [-1.0, 0.0], TARGET[0]], [-1.0, -1.5, TARGET[1]])
        assert first_step(lp, 2, P0)[0] == 0
        plane, t, _ = first_step(lp, 2, P0, pinned=[0])
        assert plane == 1
        assert t == pytest.approx(1.5)

    def test_skipped_rows_ignored_until_next_append(self):
        # the ball sits on the gutter plane x = 0 and heads for y >= 2; plane 1
        # is nearly parallel to the gutter plane, so its append is degenerate
        # and it stays out of the scan until plane 2 joins the gutter
        lp = program([[1.0, 0.0, 0.0], [-1.0, -2e-5, 0.0], [0.0, -1.0, -1.0], [0.0, 1.0, 0.0]],
                     [0.0, -1e-7, -0.005 * np.sqrt(2.0), 2.0])
        state = SolverState(p0=np.zeros(3), epsilon=0.01, gutter=basis_of([([1.0, 0.0, 0.0], 0.0)], 3),
                            target_index=3)
        events = []
        resolve_constraint(lp, state, SolverConfig(epsilon=0.01), events.append)
        steps = [(e.kind, e.detail) for e in events]
        assert steps == [
            (EventKind.GUTTER_SKIP_DEGENERATE, "plane=1"),
            (EventKind.GUTTER_APPEND, "plane=2"),
            (EventKind.GUTTER_SKIP_DEGENERATE, "plane=1"),
            (EventKind.MOVE, steps[3][1]),
            (EventKind.RESOLVED, "target=3"),
        ]

    def test_no_hit(self):
        lp = program([[-1.0, 0.0], [0.0, 1.0], TARGET[0]], [-5.0, 0.0, TARGET[1]])
        plane, t, _ = first_step(lp, 2, P0)
        assert plane is None
        assert t == pytest.approx(2.0)

    def test_tie_breaks_to_lowest_index(self):
        lp = program([[-1.0, 0.0], [-1.0, 0.0], TARGET[0]], [-1.5, -1.5, TARGET[1]])
        assert first_step(lp, 2, P0)[0] == 0
        # a plane tied with the target wins only with the lower index
        lp = program([[-1.0, 0.0], TARGET[0]], [-2.0, TARGET[1]])
        assert first_step(lp, 1, P0)[0] == 0
        lp = program([TARGET[0], [-1.0, 0.0]], [TARGET[1], -2.0])
        assert first_step(lp, 0, P0)[0] is None


class TestProjection:
    """GutterBasis.project lands on the planes; a prescribed signed distance t_k to plane k is
    a projection onto the shifted offset h_k + t_k, checked against the dense KKT oracle."""

    def test_single_plane(self):
        basis = basis_of([(np.array([1.0, 0.0]), 1.0)], 2)
        assert np.allclose(basis.project(np.zeros(2)), [1.0, 0.0])

    def test_axis_intersection(self):
        basis = basis_of([([0.0, 1.0, 0.0], 0.0), ([0.0, 0.0, 1.0], 0.0)], 3)
        q = basis.project(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(q, [1.0, 0.0, 0.0])

    def test_offset_target(self):
        # signed distance 0.5 from the plane x = 1 is the plane x = 1.5
        basis = basis_of([([1.0, 0.0], 1.0 + 0.5)], 2)
        assert np.allclose(basis.project(np.zeros(2)), [1.5, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            t = int(rng.integers(1, n))
            rows = rng.standard_normal((t, n))
            rows /= np.linalg.norm(rows, axis=1)[:, None]
            targets = rng.uniform(-0.5, 0.5, t)
            basis = GutterBasis(n)
            for k in range(t):
                basis.append_row(k, rows[k], float(rng.uniform(-1, 1)) + float(targets[k]))
            p = rng.standard_normal(n)
            q1 = basis.project(p)
            q2 = basis.project(q1)
            assert np.linalg.norm(q2 - q1) <= 1e-12

    def test_targets_achieved(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            t = int(rng.integers(1, n))
            rows = rng.standard_normal((t, n))
            rows /= np.linalg.norm(rows, axis=1)[:, None]
            offsets = rng.uniform(-1, 1, t)
            targets = rng.uniform(-0.5, 0.5, t)
            basis = GutterBasis(n)
            for k in range(t):
                assert basis.append_row(k, rows[k], float(offsets[k] + targets[k]))
            p = rng.standard_normal(n)
            q = basis.project(p)
            assert np.max(np.abs(rows @ q - offsets - targets)) <= 1e-9
            assert np.max(np.abs(q - testkit.oracle_projection(rows, offsets, p, targets))) <= 1e-8

    def test_correction_in_row_space(self):
        # the displacement p - q must be orthogonal to the intersection directions
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            t = int(rng.integers(1, n))
            rows = rng.standard_normal((t, n))
            rows /= np.linalg.norm(rows, axis=1)[:, None]
            basis = GutterBasis(n)
            for k in range(t):
                basis.append_row(k, rows[k], 0.0)
            G = basis.normals_matrix()
            _, _, vh = np.linalg.svd(G)
            null_space = vh[basis.size:]
            p = rng.standard_normal(n)
            q = basis.project(p)
            shift = p - q
            for w in null_space:
                bound = 1e-9 * max(np.linalg.norm(shift) * np.linalg.norm(w), 1e-30)
                assert abs(float(shift @ w)) <= max(bound, 1e-12)

    def test_empty_basis_is_identity(self):
        basis = GutterBasis(3)
        p = np.array([1.0, 2.0, 3.0])
        q = basis.project(p)
        assert np.array_equal(q, p) and q is not p
