"""Active-plane basis held as orthonormal rows: G = R Q, with R^-1 built when it is read.

Rows are only ever appended, until reset() empties the basis; the solver
re-pins its gutter basis at the start of each resolve cycle. An append is one
Gram-Schmidt step: the new unit row a is projected off the orthonormal rows Q
already held, and what is left, normalized, becomes the next row of Q. Its
coefficients against Q extend the lower-triangular R (G = R Q) by a row, in
O(t n). A second projection pass runs only when the first one cancelled more
than half of |a|^2; two passes leave Q orthonormal to rounding level ("twice
is enough": Giraud, Langou & Rozlozník 2005).

The inner step reads only Q, through tangent() and deflate(). R^-1 is read by
correction() (so by project()), multipliers() and gram_inverse, the last only
by the tests. So R^-1 is extended on read, one row per appended row
not yet built, by the forward-substitution recurrence
R^-1[k, :k] = R[k, :k] R^-1[:k, :k] / -R[k, k] and R^-1[k, k] = 1 / R[k, k].
The rows built are the same whenever they are read.

Every product the solver needs comes from Q and R^-1 without forming G G^T,
whose condition number is that of G squared:
- tangent(v) = v - Q^T (Q v), the part of v parallel to every plane;
- correction(r) = G^T (G G^T)^-1 r = Q^T (R^-1 r);
- project(p) = p - correction(G p - h), the point nearest to p on every plane;
- multipliers(a) = -(G G^T)^-1 G a = -R^-T (Q a).

Rows, offsets, Q, R and R^-1 live in buffers allocated once per basis (n x n,
n, n x n, n x n and n x n); the first `size` rows, and the leading size x size
blocks of R and R^-1, are the live part. An append writes one row of the first
four, and a reset keeps the buffers for the next cycle. R and R^-1 are written
only on and below their diagonals, so their upper triangles stay zero.
"""
from __future__ import annotations

import math

import numpy as np

from .model import DimensionMismatchError


class DuplicateIndexError(ValueError):
    pass


class GutterBasis:
    """Ordered unit rows (constraint index, normal, plane offset) with an orthonormal basis of their span.

    Holds the rows G, the orthonormal rows Q and the triangular R with
    G = R Q, and the rows of R^-1 built so far (`_built`, at most `size`).
    normals_matrix() and offsets_vector() are read-only views of the first
    `size` rows of the buffers, valid until the next reset(); gram_inverse
    is a new array.
    """

    def __init__(self, dimension: int):
        self.dimension = int(dimension)
        self._indices: list[int] = []
        self._built = 0
        n = self.dimension
        self._normals, self._offsets = np.zeros((n, n)), np.zeros(n)
        self._q, self._r, self._r_inv = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
        # one read-only view of the rows and offsets, which the accessors slice
        self._normals_view, self._offsets_view = self._normals.view(), self._offsets.view()
        self._normals_view.setflags(write=False)
        self._offsets_view.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self._indices)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(self._indices)

    def _r_inverse(self) -> np.ndarray:
        """The live block of R^-1, after building the rows appended since the last read."""
        t = len(self._indices)
        r, r_inv = self._r, self._r_inv
        for k in range(self._built, t):
            rho = float(r[k, k])
            if k:
                r_inv[k, :k] = r[k, :k].dot(r_inv[:k, :k]) / -rho
            r_inv[k, k] = 1.0 / rho
        self._built = t
        return r_inv[:t, :t]

    @property
    def gram_inverse(self) -> np.ndarray:
        """(G G^T)^-1 = R^-T R^-1, exactly symmetric."""
        r_inv = self._r_inverse()
        inverse = r_inv.T.dot(r_inv)
        return 0.5 * (inverse + inverse.T)

    def normals_matrix(self) -> np.ndarray:
        return self._normals_view[:len(self._indices)]

    def offsets_vector(self) -> np.ndarray:
        return self._offsets_view[:len(self._indices)]

    def append_row(self, index: int, normal, offset: float = 0.0, geom_tol: float = 1e-9) -> bool:
        """Append one unit row: one Gram-Schmidt step, a second only after cancellation.

        Returns False (leaving the basis unchanged) when the squared residual
        of the normal against the span of the rows, pi = |a - Q^T Q a|^2, is
        at most geom_tol, i.e. the new normal is linearly dependent on the
        existing rows. In exact arithmetic pi is the Schur pivot
        |a|^2 - w^T (G G^T)^-1 w of G G^T bordered by w = G a. A dependent
        row is a signal for the caller, not an error. An accepted row writes
        its normalized residual into Q and its coefficients (Q a, sqrt(pi))
        into R; R^-1 gains the row when it is next read.
        """
        index = int(index)
        if index in self._indices:
            raise DuplicateIndexError(f"constraint {index} is already in the basis")
        a = np.asarray(normal, dtype=float).reshape(-1)
        if a.shape[0] != self.dimension:
            raise DimensionMismatchError(
                f"normal has length {a.shape[0]}, expected {self.dimension}"
            )
        norm2 = float(a.dot(a))
        if abs(math.sqrt(norm2) - 1.0) > 1e-9:
            raise ValueError("basis rows must be unit vectors")
        t = len(self._indices)
        if t == self.dimension:
            return False

        if t == 0:
            u, w, pi = a, None, norm2
        else:
            q = self._q[:t]
            w = q.dot(a)
            u = a - w.dot(q)
            pi = float(u.dot(u))
            if pi < 0.5 * norm2:
                w2 = q.dot(u)
                u -= w2.dot(q)
                w += w2
                pi = float(u.dot(u))
        if pi <= geom_tol:
            return False
        rho = math.sqrt(pi)
        np.divide(u, rho, out=self._q[t])
        if t:
            self._r[t, :t] = w
        self._r[t, t] = rho

        self._indices.append(index)
        self._normals[t] = a
        self._offsets[t] = float(offset)
        return True

    def tangent(self, v) -> np.ndarray:
        """v - Q^T (Q v): the part of v parallel to every plane of the basis; a copy of v when empty."""
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.shape[0] != self.dimension:
            raise DimensionMismatchError(
                f"vector has length {v.shape[0]}, expected {self.dimension}"
            )
        t = len(self._indices)
        if t == 0:
            return v.copy()
        q = self._q[:t]
        return v - q.dot(v).dot(q)

    def deflate(self, v: np.ndarray) -> None:
        """v -= (q . v) q in place, for q the newest orthonormal row of a non-empty basis.

        With v = tangent(a) taken before the last append, this leaves v as
        tangent(a) of the basis now, one modified Gram-Schmidt step later: a
        dot product and an axpy in place of a fresh projection on every row.
        """
        q = self._q[len(self._indices) - 1]
        v -= q.dot(v) * q

    def correction(self, residuals) -> np.ndarray:
        """G^T (G G^T)^-1 residuals = Q^T R^-1 residuals; the zero vector for an empty basis."""
        r = np.asarray(residuals, dtype=float).reshape(-1)
        t = len(self._indices)
        if r.shape[0] != t:
            raise DimensionMismatchError(
                f"residual vector has length {r.shape[0]}, expected {t}"
            )
        if t == 0:
            return np.zeros(self.dimension)
        return self._r_inverse().dot(r).dot(self._q[:t])

    def project(self, p) -> np.ndarray:
        """p - correction(G p - h): the point nearest to p on every plane; a copy of p when empty."""
        t = len(self._indices)
        return p - self.correction(self._normals[:t].dot(p) - self._offsets[:t])

    def multipliers(self, a) -> np.ndarray:
        """-R^-T Q a = -(G G^T)^-1 G a: the weights y with G^T y nearest to -a; empty for an empty basis.

        When a lies in the row span, a + G^T y = 0. With a the objective
        direction of a maximization over rows G x >= h, y >= 0 is the KKT
        condition that makes the gutter vertex optimal.
        """
        t = len(self._indices)
        return -self._q[:t].dot(a).dot(self._r_inverse())

    def reset(self) -> None:
        """Empty the basis; the buffers are kept for the next rows."""
        self._indices.clear()
        self._built = 0
