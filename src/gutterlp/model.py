"""LP instance data model: the row arrays, normalization, residual checks, solver config."""
from __future__ import annotations

import math
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
        if not np.logical_and.reduce(np.isfinite(coeffs)):
            raise ValueError("objective coefficients must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only view of arr; an array that is already read-only comes back as it is."""
    if not arr.flags.writeable:
        return arr
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
        bad = ~(np.logical_and.reduce(np.isfinite(A), axis=1) & np.isfinite(b))
        if np.logical_or.reduce(bad):
            raise ValueError(f"constraint {int(bad.argmax())}: coefficient or bound is not finite")
        zero = ~np.logical_or.reduce(A, axis=1)
        if np.logical_or.reduce(zero):
            raise ZeroNormalError(int(zero.argmax()))
        if self.objective is not None and self.objective.coefficients.shape[0] != n:
            raise DimensionMismatchError(
                f"objective has length {self.objective.coefficients.shape[0]}, expected {n}")
        if self.senses is None:
            # every row is GE, so neither mask needs the per-row sense codes
            strict, equalities = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
        else:
            # Sense members compare by identity, so `is` tests match `==` exactly
            codes = np.array([0 if s is Sense.GE else 1 if s is Sense.GT else 2 if s is Sense.EQ
                              else -1 for s in senses], dtype=np.int8)
            unknown = codes < 0
            if np.logical_or.reduce(unknown):
                raise ValueError(f"constraint {int(unknown.argmax())}: unknown sense")
            strict, equalities = codes == 1, codes == 2
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

    def matrix(self) -> np.ndarray:
        return self.A.copy()

    def offsets(self) -> np.ndarray:
        return self.b.copy()

    def satisfied(self, d: np.ndarray, feas_tol: float) -> np.ndarray:
        """Per-row mask: whether the signed distances d = A p - b meet each row's sense.

        Each sense is a closed interval lo <= d <= hi: GE is [-tol, inf], EQ
        is [-tol, tol] (|d| <= tol), and GT is [nextafter(tol, inf), inf],
        which holds for exactly the doubles d > tol.
        """
        lo = np.where(self.strict, math.nextafter(feas_tol, math.inf), -feas_tol)
        hi = np.where(self.equalities, feas_tol, np.inf)
        return (lo <= d) & (d <= hi)

    def row_satisfied(self, i: int, d_i: float, feas_tol: float) -> bool:
        """Whether row i meets its sense at signed distance d_i; entry i of satisfied()."""
        sense = self.senses[i]
        if sense is Sense.EQ:
            return abs(d_i) <= feas_tol
        if sense is Sense.GT:
            return d_i > feas_tol
        return d_i >= -feas_tol


def normalize(lp: LinearProgram, geom_tol: float = 1e-9) -> LinearProgram:
    """Rescale every row so its normal has unit Euclidean norm.

    The satisfaction set of each row is unchanged (both sides are divided by
    a positive number). Idempotent up to rounding.
    """
    # the expression np.linalg.norm(A, axis=1) evaluates, without its wrapper
    norms = np.sqrt(np.add.reduce(lp.A * lp.A, axis=1))
    short = norms <= geom_tol
    if np.logical_or.reduce(short):
        raise ZeroNormalError(int(short.argmax()))
    return LinearProgram._unchecked(lp.A / norms[:, None], lp.b / norms, lp.senses, lp.objective,
                                    lp.strict, lp.equalities)


def check_point(lp: LinearProgram, p, feas_tol: float = 1e-8) -> bool:
    """True iff `p` satisfies every constraint of the (normalized) program."""
    p = _as_vector(p, "point")
    if p.shape[0] != lp.dimension:
        raise DimensionMismatchError(f"point has length {p.shape[0]}, expected {lp.dimension}")
    return bool(np.logical_and.reduce(lp.satisfied(lp.A.dot(p) - lp.b, feas_tol)))


@dataclass
class SolverConfig:
    """Tunables for the direction-search solver.

    epsilon is the ball radius. epsilon == 0.0 is accepted only to reproduce
    the known ball-less failure mode in regression tests; any positive value
    must exceed geom_tol. max_iters caps both the outer cycles and the inner
    steps of each cycle; left unset, they default to 10*m*n and 100*n.
    """

    epsilon: float = 1e-2
    geom_tol: float = 1e-9
    feas_tol: float = 1e-8
    max_iters: Optional[int] = None

    def __post_init__(self):
        if self.geom_tol <= 0:
            raise ValueError("geom_tol must be positive")
        if self.feas_tol <= 0:
            raise ValueError("feas_tol must be positive")
        if self.epsilon != 0.0 and self.epsilon <= self.geom_tol:
            raise ValueError("epsilon must exceed geom_tol (or be exactly 0)")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be positive")

    def outer_cap(self, lp: LinearProgram) -> int:
        if self.max_iters is not None:
            return self.max_iters
        return 10 * lp.num_constraints * lp.dimension

    def inner_cap(self, lp: LinearProgram) -> int:
        if self.max_iters is not None:
            return self.max_iters
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
