"""Active-plane basis with an incrementally maintained inverse of G G^T.

Rows only ever get appended within a resolve cycle and the whole basis is
reset between cycles, so the inverse is extended one border at a time: the
new row/column of G G^T consists of dot products against existing rows, and
eliminating just that border (a Schur-complement pivot) updates the inverse
in O(t^2) instead of re-inverting from scratch.
"""
from __future__ import annotations

import numpy as np

from .model import DimensionMismatchError


class DuplicateIndexError(ValueError):
    pass


class DegenerateBasisError(RuntimeError):
    """The Gram inverse is unavailable for the requested operation."""


class GutterBasis:
    """Ordered unit rows (constraint index, normal, plane offset) plus (G G^T)^-1.

    The rows live in preallocated n x n and n buffers; normals_matrix() and
    offsets_vector() are read-only views of their first `size` rows, valid
    until the next reset().
    """

    def __init__(self, dimension: int):
        self.dimension = int(dimension)
        self._indices: list[int] = []
        self._normals = np.zeros((self.dimension, self.dimension))
        self._offsets = np.zeros(self.dimension)
        self._gram_inv = np.zeros((0, 0))

    @property
    def size(self) -> int:
        return len(self._indices)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(self._indices)

    @property
    def gram_inverse(self) -> np.ndarray:
        return self._gram_inv.copy()

    def normals_matrix(self) -> np.ndarray:
        view = self._normals[:self.size]
        view.setflags(write=False)
        return view

    def offsets_vector(self) -> np.ndarray:
        view = self._offsets[:self.size]
        view.setflags(write=False)
        return view

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
        if abs(float(np.linalg.norm(a)) - 1.0) > 1e-9:
            raise ValueError("basis rows must be unit vectors")
        if self.size == self.dimension:
            return False

        t = self.size
        if t == 0:
            pivot = float(a @ a)
            if pivot <= geom_tol:
                return False
            new_inv = np.array([[1.0 / pivot]])
        else:
            w = self._normals[:t] @ a
            r = self._gram_inv @ w
            pivot = float(a @ a - w @ r)
            if pivot <= geom_tol:
                return False
            new_inv = np.empty((t + 1, t + 1))
            new_inv[:t, :t] = self._gram_inv + np.outer(r, r) / pivot
            new_inv[:t, t] = -r / pivot
            new_inv[t, :t] = -r / pivot
            new_inv[t, t] = 1.0 / pivot
            new_inv = 0.5 * (new_inv + new_inv.T)

        self._indices.append(index)
        self._normals[t] = a
        self._offsets[t] = float(offset)
        self._gram_inv = new_inv
        return True

    def correction(self, residuals) -> np.ndarray:
        """G^T (G G^T)^-1 residuals; the zero vector for an empty basis."""
        r = np.asarray(residuals, dtype=float).reshape(-1)
        if r.shape[0] != self.size:
            raise DimensionMismatchError(
                f"residual vector has length {r.shape[0]}, expected {self.size}"
            )
        if self.size == 0:
            return np.zeros(self.dimension)
        return self._normals[:self.size].T @ (self._gram_inv @ r)

    def reset(self) -> None:
        self._indices = []
        self._gram_inv = np.zeros((0, 0))

    def copy(self) -> "GutterBasis":
        dup = GutterBasis(self.dimension)
        dup._indices = list(self._indices)
        dup._normals = self._normals.copy()
        dup._offsets = self._offsets.copy()
        dup._gram_inv = self._gram_inv.copy()
        return dup
