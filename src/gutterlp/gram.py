"""Active-plane basis with an incrementally maintained inverse of G G^T.

Rows only ever get appended within a resolve cycle, and the solver holds one
basis per solve and reset()s it at the start of every cycle. The inverse is
therefore extended one border at a time: the new row/column of G G^T consists
of dot products against existing rows, and eliminating just that border (a
Schur-complement pivot) updates the inverse in O(t^2) instead of re-inverting
from scratch.

Rows, offsets and the inverse live in buffers allocated once per basis (n x n,
n and n x n); the first `size` rows, and the leading size x size block of the
inverse, are the live part. An append writes the new row and updates the
inverse block in place instead of building a new inverse, and a reset keeps
the buffers for the next cycle.
The inverse stays exactly symmetric, because both halves of every update are
computed from the same products.
"""
from __future__ import annotations

import math

import numpy as np

from .model import DimensionMismatchError


class DuplicateIndexError(ValueError):
    pass


class GutterBasis:
    """Ordered unit rows (constraint index, normal, plane offset) plus (G G^T)^-1.

    normals_matrix() and offsets_vector() are read-only views of the first
    `size` rows of the buffers, valid until the next reset(); gram_inverse
    is a copy.
    """

    def __init__(self, dimension: int):
        self.dimension = int(dimension)
        self._indices: list[int] = []
        self._use(np.zeros((self.dimension, self.dimension)), np.zeros(self.dimension),
                  np.zeros((self.dimension, self.dimension)))

    def _use(self, normals: np.ndarray, offsets: np.ndarray, inverse: np.ndarray) -> None:
        """Take the buffers, with one read-only view of each that the accessors slice."""
        self._normals, self._offsets, self._inverse = normals, offsets, inverse
        self._normals_view, self._offsets_view = normals.view(), offsets.view()
        self._normals_view.setflags(write=False)
        self._offsets_view.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self._indices)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(self._indices)

    @property
    def gram_inverse(self) -> np.ndarray:
        t = self.size
        return self._inverse[:t, :t].copy()

    def normals_matrix(self) -> np.ndarray:
        return self._normals_view[:len(self._indices)]

    def offsets_vector(self) -> np.ndarray:
        return self._offsets_view[:len(self._indices)]

    def append_row(self, index: int, normal, offset: float = 0.0, geom_tol: float = 1e-9) -> bool:
        """Append one unit row, extending the inverse by its border.

        Returns False (leaving the basis unchanged) when the Schur pivot is
        at most geom_tol, i.e. the new normal is linearly dependent on the
        existing rows. That is a signal for the caller, not an error.
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

        inv = self._inverse
        if t == 0:
            if norm2 <= geom_tol:
                return False
            inv[0, 0] = 1.0 / norm2
        else:
            w = self._normals[:t].dot(a)
            block = inv[:t, :t]
            r = block.dot(w)
            pivot = norm2 - float(w.dot(r))
            if pivot <= geom_tol:
                return False
            block += r[:, None] * r / pivot
            border = r / -pivot
            inv[:t, t] = border
            inv[t, :t] = border
            inv[t, t] = 1.0 / pivot

        self._indices.append(index)
        self._normals[t] = a
        self._offsets[t] = float(offset)
        return True

    def correction(self, residuals) -> np.ndarray:
        """G^T (G G^T)^-1 residuals; the zero vector for an empty basis."""
        r = np.asarray(residuals, dtype=float).reshape(-1)
        t = len(self._indices)
        if r.shape[0] != t:
            raise DimensionMismatchError(
                f"residual vector has length {r.shape[0]}, expected {t}"
            )
        if t == 0:
            return np.zeros(self.dimension)
        return self._normals[:t].T.dot(self._inverse[:t, :t].dot(r))

    def reset(self) -> None:
        """Empty the basis; the buffers are kept for the next rows."""
        self._indices.clear()

    def copy(self) -> "GutterBasis":
        dup = GutterBasis(self.dimension)
        dup._indices = list(self._indices)
        dup._use(self._normals.copy(), self._offsets.copy(), self._inverse.copy())
        return dup
