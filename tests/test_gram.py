import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gutterlp.geometry import project_onto_intersection
from gutterlp.gram import DuplicateIndexError, GutterBasis
from gutterlp.model import DimensionMismatchError


def unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


def random_unit_rows(rng, t, n):
    rows = rng.standard_normal((t, n))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


class TestAppendRow:
    def test_orthonormal_rows_give_identity(self):
        basis = GutterBasis(3)
        assert basis.append_row(0, [1.0, 0.0, 0.0])
        assert basis.append_row(1, [0.0, 1.0, 0.0])
        assert np.allclose(basis.gram_inverse, np.eye(2))

    def test_analytic_two_by_two(self):
        basis = GutterBasis(2)
        assert basis.append_row(0, [1.0, 0.0])
        assert basis.append_row(1, unit([1.0, 1.0]))
        expected = np.array([[2.0, -np.sqrt(2.0)], [-np.sqrt(2.0), 2.0]])
        assert np.allclose(basis.gram_inverse, expected, atol=1e-12)

    def test_repeated_direction_is_degenerate(self):
        basis = GutterBasis(2)
        assert basis.append_row(0, [1.0, 0.0])
        assert not basis.append_row(1, [1.0, 0.0])
        assert basis.size == 1

    def test_duplicate_index_raises(self):
        basis = GutterBasis(2)
        basis.append_row(3, [1.0, 0.0])
        with pytest.raises(DuplicateIndexError):
            basis.append_row(3, [0.0, 1.0])

    def test_non_unit_row_rejected(self):
        basis = GutterBasis(2)
        with pytest.raises(ValueError):
            basis.append_row(0, [2.0, 0.0])

    def test_full_space_append_refused(self):
        basis = GutterBasis(2)
        basis.append_row(0, [1.0, 0.0])
        basis.append_row(1, [0.0, 1.0])
        assert not basis.append_row(2, unit([1.0, 1.0]))


class TestCorrection:
    def test_single_row(self):
        basis = GutterBasis(2)
        basis.append_row(0, [1.0, 0.0])
        assert np.allclose(basis.correction([-1.0]), [-1.0, 0.0])

    def test_orthonormal_rows(self):
        basis = GutterBasis(3)
        basis.append_row(0, [1.0, 0.0, 0.0])
        basis.append_row(1, [0.0, 1.0, 0.0])
        assert np.allclose(basis.correction([2.0, 3.0]), [2.0, 3.0, 0.0])

    def test_empty_basis_gives_zero(self):
        basis = GutterBasis(4)
        assert np.allclose(basis.correction([]), np.zeros(4))

    def test_length_mismatch(self):
        basis = GutterBasis(2)
        basis.append_row(0, [1.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            basis.correction([1.0, 2.0])


class TestReset:
    def test_reset_empties(self):
        basis = GutterBasis(2)
        basis.append_row(0, [1.0, 0.0])
        basis.reset()
        assert basis.size == 0
        assert basis.gram_inverse.shape == (0, 0)

    def test_reset_idempotent(self):
        basis = GutterBasis(2)
        basis.append_row(0, [1.0, 0.0])
        basis.reset()
        basis.reset()
        assert basis.size == 0

    def test_append_after_reset(self):
        basis = GutterBasis(2)
        basis.append_row(0, [0.0, 1.0])
        basis.reset()
        assert basis.append_row(0, [1.0, 0.0])
        assert np.allclose(basis.gram_inverse, [[1.0]])


class TestIncrementalEquivalence:
    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(2, 17))
            t = int(rng.integers(1, n))
            rows = random_unit_rows(rng, t, n)
            basis = GutterBasis(n)
            for k in range(t):
                assert basis.append_row(k, rows[k])
                G = basis.normals_matrix()
                direct = np.linalg.inv(G @ G.T)
                assert np.max(np.abs(basis.gram_inverse - direct)) <= 1e-10

    def test_inverse_symmetric(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            rows = random_unit_rows(rng, n - 1, n)
            basis = GutterBasis(n)
            for k in range(n - 1):
                basis.append_row(k, rows[k])
            q = basis.gram_inverse
            assert np.max(np.abs(q - q.T)) <= 1e-12

    def test_degenerate_matches_rank_oracle(self):
        rng = np.random.default_rng(44)
        for _ in range(60):
            n = int(rng.integers(2, 10))
            t = int(rng.integers(1, n))
            rows = random_unit_rows(rng, t, n)
            basis = GutterBasis(n)
            for k in range(t):
                basis.append_row(k, rows[k])
            # a fresh independent row must append; an exact combination must not
            extra = random_unit_rows(rng, 1, n)[0]
            stacked = np.vstack([basis.normals_matrix(), extra])
            expect_ok = np.linalg.matrix_rank(stacked, tol=1e-8) == basis.size + 1
            probe = basis.copy()
            assert probe.append_row(99, extra) == expect_ok

            weights = rng.standard_normal(basis.size)
            if np.linalg.norm(weights) < 1e-6:
                weights[0] = 1.0
            dependent = unit(weights @ basis.normals_matrix())
            probe = basis.copy()
            assert not probe.append_row(98, dependent)

    def test_correction_matches_projection_displacement(self):
        rng = np.random.default_rng(45)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            t = int(rng.integers(1, n))
            rows = random_unit_rows(rng, t, n)
            offsets = rng.uniform(-1, 1, t)
            basis = GutterBasis(n)
            for k in range(t):
                basis.append_row(k, rows[k], float(offsets[k]))
            p = rng.standard_normal(n)
            residuals = basis.normals_matrix() @ p - basis.offsets_vector()
            via_correction = p - basis.correction(residuals)
            via_projection = project_onto_intersection(basis, p, np.zeros(t))
            assert np.max(np.abs(via_correction - via_projection)) <= 1e-12


COEFFICIENT = st.floats(-1.0, 1.0, allow_nan=False)


class TestInPlaceBuffers:
    """The inverse is updated in place in buffers kept across appends and resets."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_inverse_matches_direct_over_random_sequences(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        basis = GutterBasis(n)
        for index in range(data.draw(st.integers(1, 14), label="steps")):
            op = data.draw(st.sampled_from(["row", "row", "dependent", "reset"]), label="op")
            before = (basis.indices, basis.gram_inverse)
            if op == "reset":
                basis.reset()
            elif op == "dependent" and basis.size:
                weights = np.array(data.draw(st.lists(COEFFICIENT, min_size=basis.size,
                                                      max_size=basis.size), label="weights"))
                combo = weights @ basis.normals_matrix()
                if np.linalg.norm(combo) < 1e-3:
                    continue
                assert not basis.append_row(index, unit(combo))
                assert basis.indices == before[0]
                assert np.array_equal(basis.gram_inverse, before[1])
            else:
                row = np.array(data.draw(st.lists(COEFFICIENT, min_size=n, max_size=n), label="row"))
                if np.linalg.norm(row) < 1e-3:
                    continue
                # a coarse pivot tolerance keeps accepted bases well conditioned
                if not basis.append_row(index, unit(row), geom_tol=1e-3):
                    assert basis.indices == before[0]
                    assert np.array_equal(basis.gram_inverse, before[1])
            if basis.size:
                G = basis.normals_matrix()
                direct = np.linalg.inv(G @ G.T)
                inverse = basis.gram_inverse
                assert np.array_equal(inverse, inverse.T)
                assert np.max(np.abs(inverse - direct)) <= 1e-9 * max(1.0, np.max(np.abs(direct)))
            else:
                assert basis.gram_inverse.shape == (0, 0)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_multipliers_match_direct_over_random_sequences(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        basis = GutterBasis(n)
        for index in range(data.draw(st.integers(1, 14), label="steps")):
            if data.draw(st.sampled_from(["row", "row", "row", "reset"]), label="op") == "reset":
                basis.reset()
            else:
                row = np.array(data.draw(st.lists(COEFFICIENT, min_size=n, max_size=n), label="row"))
                if np.linalg.norm(row) < 1e-3:
                    continue
                basis.append_row(index, unit(row), geom_tol=1e-3)
            a = np.array(data.draw(st.lists(COEFFICIENT, min_size=n, max_size=n), label="a"))
            got = basis.multipliers(a)
            assert got.shape == (basis.size,)
            if basis.size:
                G = basis.normals_matrix()
                direct = -np.linalg.inv(G @ G.T) @ G @ a
                assert np.max(np.abs(got - direct)) <= 1e-9 * max(1.0, np.max(np.abs(direct)))

    def test_multipliers_of_a_row_combination_rebuild_it(self):
        rows = random_unit_rows(np.random.default_rng(47), 3, 5)
        basis = GutterBasis(5)
        for k, row in enumerate(rows):
            basis.append_row(k, row)
        inverse = basis.gram_inverse
        y = basis.multipliers(-np.array([2.0, 0.5, -1.0]) @ rows)
        assert np.allclose(y, [2.0, 0.5, -1.0], atol=1e-12)
        assert np.array_equal(basis.gram_inverse, inverse)

    def test_copy_and_inverse_do_not_alias_the_buffers(self):
        rows = random_unit_rows(np.random.default_rng(46), 5, 5)
        basis = GutterBasis(5)
        basis.append_row(0, rows[0], 0.5)
        basis.append_row(1, rows[1], -0.5)
        snapshot = basis.copy()
        inverse = basis.gram_inverse
        kept = (snapshot.gram_inverse, snapshot.normals_matrix().copy(),
                snapshot.offsets_vector().copy(), inverse.copy())

        basis.append_row(2, rows[2], 1.0)
        basis.append_row(3, rows[3], 2.0)
        basis.reset()
        basis.append_row(4, rows[4], 3.0)
        basis.append_row(0, rows[3], 4.0)

        assert snapshot.indices == (0, 1)
        assert np.array_equal(snapshot.gram_inverse, kept[0])
        assert np.array_equal(snapshot.normals_matrix(), kept[1])
        assert np.array_equal(snapshot.offsets_vector(), kept[2])
        assert np.array_equal(inverse, kept[3])

        # appends to the copy leave the original alone as well
        now = basis.gram_inverse
        assert snapshot.append_row(2, rows[2])
        assert basis.indices == (4, 0)
        assert np.array_equal(basis.gram_inverse, now)
