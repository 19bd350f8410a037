import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("normal", [[0, 1], (0.0, 1.0), np.array([0, 1]),
                                        np.array([[0.0, 1.0]]), np.array([0.0, 1.0], ">f8")])
    def test_any_row_that_converts_to_a_flat_float_row_is_accepted(self, normal):
        basis = GutterBasis(2)
        assert basis.append_row(0, [1.0, 0.0])
        assert basis.append_row(1, normal)
        assert basis.normals_matrix().tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_float_row_is_checked_and_only_read(self):
        # a 1-D float64 row, as the solver passes, is used without a copy and
        # meets every check a converted row meets
        basis = GutterBasis(2)
        with pytest.raises(DimensionMismatchError, match="normal has length 3"):
            basis.append_row(0, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(DimensionMismatchError, match="normal has length 1"):
            basis.append_row(0, [1.0])
        with pytest.raises(ValueError, match="unit vectors"):
            basis.append_row(0, np.array([2.0, 0.0]))
        row = np.array([0.6, 0.8])
        assert basis.append_row(0, row)
        with pytest.raises(DuplicateIndexError):
            basis.append_row(0, np.array([1.0, 0.0]))
        assert basis.size == 1 and row.tolist() == [0.6, 0.8]
        row[:] = 0.0
        assert basis.normals_matrix().tolist() == [[0.6, 0.8]]


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
        with pytest.raises(DimensionMismatchError,
                           match="residual vector has length 2, expected 1"):
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

            weights = rng.standard_normal(basis.size)
            if np.linalg.norm(weights) < 1e-6:
                weights[0] = 1.0
            dependent = unit(weights @ basis.normals_matrix())
            # a rejected append leaves the basis unchanged, so the fresh row probes it next
            assert not basis.append_row(98, dependent)
            assert basis.append_row(99, extra) == expect_ok


COEFFICIENT = st.floats(-1.0, 1.0, allow_nan=False)


class TestNearDependentRows:
    """Rows whose residual against the span is small but above geom_tol: the second pass runs."""

    @staticmethod
    def _near_dependent_basis(rng):
        n = int(rng.integers(4, 13))
        basis = GutterBasis(n)
        for k, row in enumerate(random_unit_rows(rng, int(rng.integers(1, n // 2 + 1)), n)):
            assert basis.append_row(k, row)
        while basis.size < n:
            G = basis.normals_matrix()
            inside = unit(rng.standard_normal(basis.size) @ G)
            z = rng.standard_normal(n)
            z -= np.linalg.lstsq(G.T, z, rcond=None)[0] @ G
            # the residual of the new row against the span is about delta
            delta = 10.0 ** rng.uniform(np.log10(4e-5), -1.0)
            assert basis.append_row(basis.size, unit(inside + delta * unit(z)))
        return basis

    def test_tangent_is_orthogonal_to_every_row(self):
        rng = np.random.default_rng(48)
        for _ in range(60):
            basis = self._near_dependent_basis(rng)
            G = basis.normals_matrix()
            for t in range(1, basis.size):
                probe = GutterBasis(basis.dimension)
                for k in range(t):
                    probe.append_row(k, G[k])
                v = rng.standard_normal(basis.dimension)
                drift = np.max(np.abs(G[:t] @ probe.tangent(v)))
                assert drift <= 1e-13 * np.linalg.norm(v)

    def test_multipliers_match_least_squares(self):
        rng = np.random.default_rng(49)
        for _ in range(60):
            basis = self._near_dependent_basis(rng)
            G = basis.normals_matrix()
            for t in range(1, basis.size + 1):
                probe = GutterBasis(basis.dimension)
                for k in range(t):
                    probe.append_row(k, G[k])
                a = rng.standard_normal(basis.dimension)
                if rng.random() < 0.5:
                    a = rng.standard_normal(t) @ G[:t]
                y = np.linalg.lstsq(G[:t].T, -a, rcond=None)[0]
                bound = 1e-12 * np.linalg.cond(G[:t]) * max(1.0, np.max(np.abs(y)))
                assert np.max(np.abs(probe.multipliers(a) - y)) <= bound

    def test_deflated_projection_matches_tangent(self):
        # the solver takes tangent(a) once per cycle and deflates it by each appended
        # row; measured over seeds 0-19 of this construction (60 bases each), the
        # largest |proj - tangent(a)| and |G proj| are 3.5e-16 for a unit a
        rng = np.random.default_rng(50)
        for _ in range(60):
            G = self._near_dependent_basis(rng).normals_matrix()
            n = G.shape[1]
            a = unit(rng.standard_normal(n))
            basis = GutterBasis(n)
            proj = basis.tangent(a)
            for k in range(n):
                assert basis.append_row(k, G[k])
                basis.deflate(proj)
                tangent = basis.tangent(a)
                assert np.max(np.abs(proj - tangent)) <= 1e-14
                assert np.max(np.abs(G[:k + 1] @ proj)) <= 1e-14
                if k + 1 < n:
                    # a rejected append changes no orthonormal row: tangent(a) keeps its
                    # bits, so the projection, which the solver does not deflate then,
                    # still matches it
                    combo = unit(rng.standard_normal(k + 1) @ G[:k + 1])
                    assert not basis.append_row(n + k, combo)
                    assert basis.tangent(a).tobytes() == tangent.tobytes()

    def test_tangent_of_an_empty_basis_is_a_copy(self):
        basis = GutterBasis(3)
        v = np.array([1.0, -2.0, 0.5])
        got = basis.tangent(v)
        assert np.array_equal(got, v) and got is not v
        with pytest.raises(DimensionMismatchError, match="vector has length 2, expected 3"):
            basis.tangent([1.0, 2.0])


class TestInPlaceBuffers:
    """Rows, orthonormal rows and R^-1 are written in place, in buffers kept across appends and
    resets; (G G^T)^-1 formed from them matches a direct inverse."""

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

    def test_inverse_does_not_alias_the_buffers(self):
        rows = random_unit_rows(np.random.default_rng(46), 5, 5)
        basis = GutterBasis(5)
        basis.append_row(0, rows[0], 0.5)
        basis.append_row(1, rows[1], -0.5)
        inverse = basis.gram_inverse
        kept = inverse.copy()

        basis.append_row(2, rows[2], 1.0)
        basis.append_row(3, rows[3], 2.0)
        basis.reset()
        basis.append_row(4, rows[4], 3.0)
        basis.append_row(0, rows[3], 4.0)
        # this read rebuilds R^-1 in the buffers the first one read
        assert basis.gram_inverse.shape == (2, 2)
        assert np.array_equal(inverse, kept)


class TestInverseBuiltOnRead:
    """R^-1 is extended when correction, multipliers or gram_inverse reads it, not per append."""

    READS = ("correction", "multipliers", "gram_inverse")

    @staticmethod
    def _read(basis, how, v):
        if how == "correction":
            return basis.correction(v[:basis.size])
        if how == "multipliers":
            return basis.multipliers(v)
        return basis.gram_inverse

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_reads_do_not_depend_on_when_they_happen(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        basis = GutterBasis(n)
        for index in range(data.draw(st.integers(1, 20), label="steps")):
            op = data.draw(st.sampled_from(["row", "row", "dependent", "reset", "read", "read"]),
                           label="op")
            if op == "reset":
                basis.reset()
            elif op == "dependent" and basis.size:
                weights = np.array(data.draw(st.lists(COEFFICIENT, min_size=basis.size,
                                                      max_size=basis.size), label="weights"))
                combo = weights @ basis.normals_matrix()
                if np.linalg.norm(combo) >= 1e-3:
                    assert not basis.append_row(index, unit(combo), geom_tol=1e-3)
            elif op == "row":
                row = np.array(data.draw(st.lists(COEFFICIENT, min_size=n, max_size=n), label="row"))
                if np.linalg.norm(row) >= 1e-3:
                    basis.append_row(index, unit(row), geom_tol=1e-3)
            else:
                how = data.draw(st.sampled_from(self.READS), label="read")
                v = np.array(data.draw(st.lists(COEFFICIENT, min_size=n, max_size=n), label="v"))
                fresh = GutterBasis(n)
                for k, row in zip(basis.indices, basis.normals_matrix()):
                    assert fresh.append_row(k, row, geom_tol=1e-3)
                got = self._read(basis, how, v)
                assert got.tobytes() == self._read(fresh, how, v).tobytes()
