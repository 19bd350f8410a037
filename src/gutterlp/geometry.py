"""Projection onto the intersection of the gutter planes."""
from __future__ import annotations

import numpy as np

from .gram import GutterBasis
from .model import DimensionMismatchError, _as_vector


def project_onto_intersection(basis: GutterBasis, p, targets) -> np.ndarray:
    """Euclidean-closest point to p with prescribed signed distances to the basis planes.

    targets has one entry per basis row; all zeros lands exactly on the
    intersection of the planes. Computed as p - G^T (G G^T)^-1 (d(p) - targets),
    where d(p) is the vector of signed distances from p to the rows.
    """
    p = _as_vector(p, "point")
    if p.shape[0] != basis.dimension:
        raise DimensionMismatchError(
            f"point has length {p.shape[0]}, expected {basis.dimension}"
        )
    targets = np.asarray(targets, dtype=float).reshape(-1)
    if targets.shape[0] != basis.size:
        raise DimensionMismatchError(
            f"targets has length {targets.shape[0]}, expected {basis.size}"
        )
    if basis.size == 0:
        return p.copy()
    d = basis.normals_matrix().dot(p) - basis.offsets_vector()
    return p - basis.correction(d - targets)
