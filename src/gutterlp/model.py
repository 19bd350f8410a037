"""LP instance data model: the row arrays, normalization, residual checks, solver config."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np


class Sense(Enum):
    """Constraint sense. LE/LT inputs are flipped to GE/GT at parse time."""

    GE = ">="
    GT = ">"
    EQ = "="


class Direction(Enum):
    MIN = "min"
    MAX = "max"


class Verdict(Enum):
    FEASIBLE = "FEASIBLE"
    OPTIMAL = "OPTIMAL"
    INFEASIBLE = "INFEASIBLE"
    UNBOUNDED = "UNBOUNDED"
    STALLED = "STALLED"


class ZeroNormalError(ValueError):
    """A constraint normal is (numerically) the zero vector."""

    def __init__(self, index: int | None = None):
        self.index = index
        msg = "zero normal vector"
        if index is not None:
            msg = f"constraint {index}: zero normal vector"
        super().__init__(msg)


class DimensionMismatchError(ValueError):
    pass


def _as_vector(values, name: str = "vector") -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Objective:
    direction: Direction
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = _as_vector(self.coefficients, "objective coefficients").copy()
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("objective coefficients must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)


def _readonly(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """An LP instance: rows A x <senses> b over n variables, optional linear objective.

    Row i reads A[i] . x  senses[i]  b[i]; the normal A[i] points into the
    feasible side for GE/GT. Solvers require unit rows; use normalize() to
    enforce that. A and b are copied, validated and made read-only on
    construction, so an instance is safe to share across concurrent solves.
    `strict` and `equalities` are the boolean masks of the GT and EQ rows.
    """

    A: np.ndarray
    b: np.ndarray
    senses: Optional[tuple[Sense, ...]] = None
    objective: Optional[Objective] = None
    strict: np.ndarray = field(init=False, repr=False)
    equalities: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        if A.ndim != 2:
            raise DimensionMismatchError("constraint matrix must be a 2-d array")
        m, n = A.shape
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if m < 1:
            raise ValueError("at least one constraint is required")
        b = np.array(self.b, dtype=float).reshape(-1)
        if b.shape[0] != m:
            raise DimensionMismatchError(f"offsets have length {b.shape[0]}, expected {m}")
        senses = (Sense.GE,) * m if self.senses is None else tuple(self.senses)
        if len(senses) != m:
            raise DimensionMismatchError(f"senses have length {len(senses)}, expected {m}")
        bad = ~(np.all(np.isfinite(A), axis=1) & np.isfinite(b))
        if bad.any():
            raise ValueError(f"constraint {int(np.argmax(bad))}: coefficient or bound is not finite")
        zero = ~np.any(A, axis=1)
        if zero.any():
            raise ZeroNormalError(int(np.argmax(zero)))
        if self.objective is not None and self.objective.coefficients.shape[0] != n:
            raise DimensionMismatchError(
                f"objective has length {self.objective.coefficients.shape[0]}, expected {n}")
        codes = np.array(senses, dtype=object)
        strict, equalities = codes == Sense.GT, codes == Sense.EQ
        unknown = ~(strict | equalities | (codes == Sense.GE))
        if unknown.any():
            raise ValueError(f"constraint {int(np.argmax(unknown))}: unknown sense")
        self._store(A, b, senses, self.objective, strict, equalities)

    def _store(self, A, b, senses, objective, strict, equalities) -> None:
        for name, value in (("A", _readonly(A)), ("b", _readonly(b)), ("senses", senses),
                            ("objective", objective), ("strict", _readonly(strict)),
                            ("equalities", _readonly(equalities))):
            object.__setattr__(self, name, value)

    @classmethod
    def _unchecked(cls, A: np.ndarray, b: np.ndarray, senses: tuple, objective: Optional[Objective],
                   strict: np.ndarray, equalities: np.ndarray) -> "LinearProgram":
        """Wrap arrays already known to be valid and consistent, without copying them.

        The program holds read-only views, so whoever owns A and b may still
        update them in place; phase II moves its artificial offset that way.
        """
        lp = object.__new__(cls)
        lp._store(A, b, senses, objective, strict, equalities)
        return lp

    @classmethod
    def from_arrays(cls, normals, offsets, senses=None, objective: Objective | None = None) -> "LinearProgram":
        """Build from a dense row matrix; raises ZeroNormalError with the row index."""
        return cls(normals, offsets, senses, objective)

    @property
    def dimension(self) -> int:
        return self.A.shape[1]

    @property
    def num_constraints(self) -> int:
        return self.A.shape[0]

    @property
    def is_normalized(self) -> bool:
        return bool(np.all(np.abs(np.linalg.norm(self.A, axis=1) - 1.0) <= 1e-12))

    def matrix(self) -> np.ndarray:
        return self.A.copy()

    def offsets(self) -> np.ndarray:
        return self.b.copy()

    def satisfied(self, d: np.ndarray, feas_tol: float) -> np.ndarray:
        """Per-row mask: whether the signed distances d = A p - b meet each row's sense."""
        return np.where(self.equalities, np.abs(d) <= feas_tol,
                        np.where(self.strict, d > feas_tol, d >= -feas_tol))


def normalize(lp: LinearProgram, geom_tol: float = 1e-9) -> LinearProgram:
    """Rescale every row so its normal has unit Euclidean norm.

    The satisfaction set of each row is unchanged (both sides are divided by
    a positive number). Idempotent up to rounding.
    """
    norms = np.linalg.norm(lp.A, axis=1)
    short = norms <= geom_tol
    if short.any():
        raise ZeroNormalError(int(np.argmax(short)))
    return LinearProgram._unchecked(lp.A / norms[:, None], lp.b / norms, lp.senses, lp.objective,
                                    lp.strict, lp.equalities)


def check_point(lp: LinearProgram, p, feas_tol: float = 1e-8) -> bool:
    """True iff `p` satisfies every constraint of the (normalized) program."""
    p = _as_vector(p, "point")
    if p.shape[0] != lp.dimension:
        raise DimensionMismatchError(f"point has length {p.shape[0]}, expected {lp.dimension}")
    return bool(np.all(lp.satisfied(lp.A @ p - lp.b, feas_tol)))


@dataclass
class SolverConfig:
    """Tunables for the direction-search solver.

    epsilon is the ball radius. epsilon == 0.0 is accepted only to reproduce
    the known ball-less failure mode in regression tests; any positive value
    must exceed geom_tol. Iteration caps default to 10*m*n (outer) and
    100*n (inner) when left unset.
    """

    epsilon: float = 1e-2
    geom_tol: float = 1e-9
    feas_tol: float = 1e-8
    max_outer_iters: Optional[int] = None
    max_inner_iters: Optional[int] = None
    big_M_growth: float = 8.0
    max_M_escalations: int = 6

    def __post_init__(self):
        if self.geom_tol <= 0:
            raise ValueError("geom_tol must be positive")
        if self.feas_tol <= 0:
            raise ValueError("feas_tol must be positive")
        if self.epsilon != 0.0 and self.epsilon <= self.geom_tol:
            raise ValueError("epsilon must exceed geom_tol (or be exactly 0)")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.big_M_growth <= 1:
            raise ValueError("big_M_growth must exceed 1")
        if self.max_M_escalations < 1:
            raise ValueError("max_M_escalations must be positive")
        for cap in (self.max_outer_iters, self.max_inner_iters):
            if cap is not None and cap < 1:
                raise ValueError("iteration caps must be positive")

    def outer_cap(self, lp: LinearProgram) -> int:
        if self.max_outer_iters is not None:
            return self.max_outer_iters
        return 10 * lp.num_constraints * lp.dimension

    def inner_cap(self, lp: LinearProgram) -> int:
        if self.max_inner_iters is not None:
            return self.max_inner_iters
        return 100 * lp.dimension


@dataclass
class SolveResult:
    """Outcome of a solve: verdict plus witness point and diagnostics."""

    verdict: Verdict
    point: Optional[np.ndarray] = None
    objective_value: Optional[float] = None
    iterations: int = 0
    epsilon_final: float = 0.0
    diagnostics: tuple[str, ...] = field(default_factory=tuple)
