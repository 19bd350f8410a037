import numpy as np
import pytest

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
        assert np.max(np.abs(once.A - twice.A)) <= 1e-15
        assert np.all(np.abs(once.b - twice.b) <= 1e-15 * np.maximum(1.0, np.abs(once.b)))

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

    def test_is_normalized(self):
        assert make_lp([[1.0, 0.0]], [0.0]).is_normalized
        assert not make_lp([[2.0, 0.0]], [0.0]).is_normalized


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.epsilon == pytest.approx(1e-2)
        assert cfg.geom_tol == pytest.approx(1e-9)
        assert cfg.feas_tol == pytest.approx(1e-8)
        assert cfg.big_M_growth == pytest.approx(8.0)
        assert cfg.max_M_escalations == 6

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
        with pytest.raises(ValueError):
            SolverConfig(big_M_growth=1.0)
