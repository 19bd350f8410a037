import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gutterlp.model import (
    DimensionMismatchError,
    Direction,
    LinearProgram,
    Objective,
    Sense,
    SolverConfig,
    ZeroNormalError,
    check_point,
    normalize,
)
from gutterlp.solver import BIG_M_GROWTH, MAX_M_ESCALATIONS


def make_lp(rows, offsets, senses=None, objective=None):
    return LinearProgram.from_arrays(np.asarray(rows, float), np.asarray(offsets, float),
                                     senses, objective)


class TestNormalize:
    def test_divides_by_row_norm(self):
        lp = normalize(make_lp([[3.0, 4.0]], [10.0]))
        assert np.allclose(lp.A[0], [0.6, 0.8])
        assert lp.b[0] == pytest.approx(2.0)
        assert lp.senses[0] is Sense.GE

    def test_unit_rows_unchanged(self):
        lp = normalize(make_lp([[1.0, 0.0]], [1.0]))
        assert np.allclose(lp.A[0], [1.0, 0.0])
        assert lp.b[0] == 1.0

    def test_zero_normal_rejected(self):
        with pytest.raises(ZeroNormalError) as err:
            make_lp([[0.0, 0.0]], [1.0])
        assert err.value.index == 0

    def test_near_zero_normal_rejected_at_normalize(self):
        lp = make_lp([[1e-12, 0.0]], [1.0])
        with pytest.raises(ZeroNormalError):
            normalize(lp)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        lp = make_lp(rng.standard_normal((6, 4)) * 7.0, rng.standard_normal(6))
        once = normalize(lp)
        twice = normalize(once)
        assert np.array_equal(once.A, twice.A) and np.array_equal(once.b, twice.b)

    def test_returns_its_own_output_as_is(self):
        rng = np.random.default_rng(4)
        lp = make_lp(rng.standard_normal((40, 5)) * 3.0, rng.standard_normal(40),
                     [Sense.GE, Sense.GT, Sense.EQ, Sense.GE] * 10)
        once = normalize(lp)
        assert once is not lp
        for geom_tol in (1e-9, 1e-3, 0.49):
            assert normalize(once, geom_tol) is once
        # rows that are unit already but were not normalized here are divided again
        assert normalize(LinearProgram.from_arrays(once.A, once.b, once.senses)) is not once

    @pytest.mark.parametrize("geom_tol", [1.0, 2.0])
    def test_geom_tol_of_one_or_more_rejects_its_own_output(self, geom_tol):
        # a unit row's norm is 1 up to rounding, so the zero-normal test rejects it again
        once = normalize(make_lp([[3.0, 4.0], [0.0, 2.0]], [1.0, 1.0]))
        with pytest.raises(ZeroNormalError):
            normalize(once, geom_tol)

    def test_sign_of_distance_preserved(self):
        rng = np.random.default_rng(11)
        raw = make_lp(rng.standard_normal((8, 3)) * 5.0, rng.standard_normal(8))
        unit = normalize(raw)
        for _ in range(50):
            p = rng.standard_normal(3) * 3.0
            assert np.array_equal(np.sign(raw.A @ p - raw.b), np.sign(unit.A @ p - unit.b))

    def test_senses_preserved(self):
        lp = normalize(make_lp([[2.0], [2.0], [2.0]], [2.0, 2.0, 2.0],
                               [Sense.GE, Sense.GT, Sense.EQ]))
        assert lp.senses == (Sense.GE, Sense.GT, Sense.EQ)


class TestCheckPoint:
    def test_ge_inside(self):
        lp = make_lp([[1.0]], [2.0])
        assert check_point(lp, [2.01])
        assert not check_point(lp, [1.99])

    def test_gt_boundary_excluded(self):
        lp = make_lp([[1.0]], [0.0], [Sense.GT])
        assert not check_point(lp, [0.0])
        assert check_point(lp, [0.5])

    def test_eq_on_plane(self):
        lp = normalize(make_lp([[1.0, 1.0]], [2.0], [Sense.EQ]))
        assert check_point(lp, [1.0, 1.0])
        assert not check_point(lp, [1.0, 1.1])

    def test_monotone_in_feas_tol_for_ge_eq(self):
        rng = np.random.default_rng(5)
        lp = normalize(make_lp(rng.standard_normal((6, 3)), rng.standard_normal(6),
                               [Sense.GE, Sense.GE, Sense.EQ, Sense.GE, Sense.EQ, Sense.GE]))
        for _ in range(200):
            p = rng.standard_normal(3)
            tols = sorted(rng.uniform(1e-10, 1e-1, 2))
            if check_point(lp, p, tols[0]):
                assert check_point(lp, p, tols[1])

    def test_dimension_mismatch(self):
        lp = make_lp([[1.0, 0.0]], [0.0])
        with pytest.raises(DimensionMismatchError):
            check_point(lp, [1.0, 2.0, 3.0])


def _three_where_mask(lp, d, tol):
    """The per-sense formula, read from the senses themselves, that `satisfied` must equal."""
    strict = np.array([s is Sense.GT for s in lp.senses])
    equalities = np.array([s is Sense.EQ for s in lp.senses])
    return np.where(equalities, np.abs(d) <= tol, np.where(strict, d > tol, d >= -tol))


def _near_tolerance(tol):
    up, down = np.nextafter(tol, np.inf), np.nextafter(tol, -np.inf)
    return [-2 * tol, -tol, -up, -down, 0.0, -0.0, down, tol, up, 2 * tol]


class TestSatisfiedBounds:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from([Sense.GE, Sense.GT, Sense.EQ]),
                                   st.integers(0, 9)), min_size=1, max_size=30),
           tol=st.sampled_from([1e-8, 1e-12, 0.5, 3.0, 2.0 ** -30]))
    def test_bounds_equal_the_per_sense_formula(self, rows, tol):
        senses = [sense for sense, _ in rows]
        d = np.array([_near_tolerance(tol)[k] for _, k in rows])
        lp = make_lp(np.ones((len(rows), 1)), np.zeros(len(rows)), senses)
        assert lp.satisfied(d, tol).tolist() == _three_where_mask(lp, d, tol).tolist()

    @settings(max_examples=100, deadline=None)
    @given(senses=st.lists(st.sampled_from([Sense.GE, Sense.GT, Sense.EQ]), min_size=1,
                           max_size=30),
           tol=st.sampled_from([1e-8, 1e-12, 0.5]), seed=st.integers(0, 2**16))
    def test_normalized_program_keeps_the_per_sense_formula(self, senses, tol, seed):
        rng = np.random.default_rng(seed)
        m = len(senses)
        lp = normalize(make_lp(rng.standard_normal((m, 3)) * 4.0, rng.standard_normal(m),
                               senses))
        d = np.array(_near_tolerance(tol))[rng.integers(0, 10, m)]
        assert lp.satisfied(d, tol).tolist() == _three_where_mask(lp, d, tol).tolist()

    def test_non_finite_distances(self):
        lp = make_lp(np.ones((3, 1)), np.zeros(3), [Sense.GE, Sense.GT, Sense.EQ])
        for value in (np.inf, -np.inf, np.nan):
            d = np.full(3, value)
            assert lp.satisfied(d, 1e-8).tolist() == _three_where_mask(lp, d, 1e-8).tolist()

    def test_unknown_sense_rejected(self):
        with pytest.raises(ValueError, match="constraint 1: unknown sense"):
            make_lp(np.ones((2, 1)), np.zeros(2), [Sense.GE, ">="])


class TestTypes:
    def test_lp_requires_matching_lengths(self):
        with pytest.raises(DimensionMismatchError):
            LinearProgram(np.array([[1.0, 0.0]]), np.array([0.0, 1.0]))
        with pytest.raises(DimensionMismatchError):
            LinearProgram(np.array([[1.0, 0.0]]), np.array([0.0]), (Sense.GE, Sense.EQ))

    def test_objective_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            LinearProgram(np.array([[1.0]]), np.array([0.0]),
                          objective=Objective(Direction.MAX, np.array([1.0, 2.0])))

    def test_constraint_immutable_normal(self):
        normals = np.array([[1.0, 0.0]])
        lp = make_lp(normals, [0.0])
        with pytest.raises(ValueError):
            lp.A[0, 0] = 5.0
        with pytest.raises(ValueError):
            lp.b[0] = 5.0
        normals[0, 0] = 5.0
        assert lp.A[0, 0] == 1.0

    @pytest.mark.parametrize("rows,offsets", [
        ([[1.0, 0.0], [np.nan, 1.0]], [0.0, 0.0]),
        ([[1.0, 0.0], [np.inf, 1.0]], [0.0, 0.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [0.0, np.inf]),
        ([[1.0, 0.0], [0.0, 1.0]], [0.0, np.nan]),
    ])
    def test_non_finite_row_rejected_with_its_index(self, rows, offsets):
        with pytest.raises(ValueError, match="constraint 1"):
            make_lp(rows, offsets)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_objective_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            Objective(Direction.MAX, np.array([1.0, value]))


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.epsilon == pytest.approx(1e-2)
        assert cfg.geom_tol == pytest.approx(1e-9)
        assert cfg.feas_tol == pytest.approx(1e-8)
        assert cfg.max_iters is None
        assert BIG_M_GROWTH == pytest.approx(8.0)
        assert MAX_M_ESCALATIONS == 6

    def test_derived_caps(self):
        lp = make_lp([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        cfg = SolverConfig()
        assert cfg.outer_cap(lp) == 10 * 2 * 2
        assert cfg.inner_cap(lp) == 100 * 2

    def test_epsilon_must_exceed_geom_tol(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=1e-10)

    def test_epsilon_zero_allowed_for_regression_mode(self):
        assert SolverConfig(epsilon=0.0).epsilon == 0.0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=-0.1)

    def test_growth_must_exceed_one(self):
        # the big-M schedule is fixed in the solver, not configurable
        assert BIG_M_GROWTH > 1.0
        with pytest.raises(TypeError):
            SolverConfig(big_M_growth=2.0)

    @pytest.mark.parametrize("field", ["epsilon", "geom_tol", "feas_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tolerances_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SolverConfig(**{field: value})

    def test_max_iters_caps_both(self):
        lp = make_lp([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        cfg = SolverConfig(max_iters=3)
        assert cfg.outer_cap(lp) == 3
        assert cfg.inner_cap(lp) == 3
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_iters"):
                SolverConfig(max_iters=bad)
