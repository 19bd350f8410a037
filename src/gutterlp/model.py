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


def _row_indices(rows: list[int]) -> np.ndarray:
    """The rows as a read-only index array; every empty list gives the one shared empty array."""
    return _readonly(np.array(rows, dtype=np.intp)) if rows else _NO_ROWS


_NO_ROWS = _readonly(np.empty(0, dtype=np.intp))


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """An LP instance: rows A x <senses> b over n variables, optional linear objective.

    Row i reads A[i] . x  senses[i]  b[i]; the normal A[i] points into the
    feasible side for GE/GT. Solvers require unit rows; use normalize() to
    enforce that. A and b are copied, validated and made read-only on
    construction, so an instance is safe to share across concurrent solves.
    `gt_rows` and `eq_rows` are the ascending indices of the GT and EQ rows,
    found once where the senses are read.
    """

    A: np.ndarray
    b: np.ndarray
    senses: Optional[tuple[Sense, ...]] = None
    objective: Optional[Objective] = None
    gt_rows: np.ndarray = field(init=False, repr=False)
    eq_rows: np.ndarray = field(init=False, repr=False)

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
        # each test runs once over the whole array; the offending row is looked for on failure
        if not (np.logical_and.reduce(np.isfinite(A), axis=None)
                and np.logical_and.reduce(np.isfinite(b))):
            bad = ~(np.logical_and.reduce(np.isfinite(A), axis=1) & np.isfinite(b))
            raise ValueError(f"constraint {int(bad.argmax())}: coefficient or bound is not finite")
        if not np.logical_and.reduce(A, axis=None):
            # some coefficient is zero; a row is zero only when all of its coefficients are
            zero = ~np.logical_or.reduce(A, axis=1)
            if np.logical_or.reduce(zero):
                raise ZeroNormalError(int(zero.argmax()))
        if self.objective is not None and self.objective.coefficients.shape[0] != n:
            raise DimensionMismatchError(
                f"objective has length {self.objective.coefficients.shape[0]}, expected {n}")
        gt_rows = eq_rows = _NO_ROWS
        if self.senses is not None:
            gt, eq = [], []
            # Sense members compare by identity, so `is` tests match `==` exactly
            for k, sense in enumerate(senses):
                if sense is Sense.GT:
                    gt.append(k)
                elif sense is Sense.EQ:
                    eq.append(k)
                elif sense is not Sense.GE:
                    raise ValueError(f"constraint {k}: unknown sense")
            gt_rows, eq_rows = _row_indices(gt), _row_indices(eq)
        self._store(A, b, senses, self.objective, gt_rows, eq_rows)

    def _store(self, A, b, senses, objective, gt_rows, eq_rows, normalized=False) -> None:
        # a frozen dataclass keeps its fields in the instance dict, so one update sets them all
        self.__dict__.update(A=_readonly(A), b=_readonly(b), senses=senses, objective=objective,
                             gt_rows=gt_rows, eq_rows=eq_rows, _normalized=normalized)

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

        A GE row holds at d >= -tol, a GT row at d > tol and an EQ row at
        |d| <= tol. The GE test is made on every row, then overwritten on the
        GT and EQ rows; one path serves every mix of senses.
        """
        ok = d >= -feas_tol
        gt, eq = self.gt_rows, self.eq_rows
        if gt.size:
            ok[gt] = d[gt] > feas_tol
        if eq.size:
            ok[eq] = np.abs(d[eq]) <= feas_tol
        return ok


# Above this, squaring a coefficient comes within a factor 1e8 of overflow, so
# a sum of squares is taken after scaling by the largest coefficient.
HUGE_COEFFICIENT = 1e150
_HUGE_SQUARE = HUGE_COEFFICIENT * HUGE_COEFFICIENT

# A unit row's norm is 1 to within a few units in the last place, so normalize's
# zero-normal test cannot reject a row of a program it returned below this geom_tol.
_UNIT_NORM_FLOOR = 0.5


@np.errstate(over="ignore")
def _row_squares(A: np.ndarray) -> np.ndarray:
    """Each row's sum of squares, inf for a row with a coefficient above about 1.3e154.

    Such a row takes normalize's scaled path, so its overflow is expected and
    not warned about; errstate as a decorator costs half what a with block does.
    """
    return np.add.reduce(A * A, axis=1)


def normalize(lp: LinearProgram, geom_tol: float = 1e-9) -> LinearProgram:
    """Rescale every row so its normal has unit Euclidean norm.

    The satisfaction set of each row is unchanged (both sides are divided by
    a positive number). The row sums of squares are taken first, and only
    when one reaches HUGE_COEFFICIENT**2 is A scanned for a coefficient
    above HUGE_COEFFICIENT. A row holding one is scaled by its largest |a_j|
    before its squares are summed, so its norm does not overflow; every
    other row's norm is the square root of its sum of squares, the bits of
    np.linalg.norm. A program that normalize returned comes back as it
    is, so normalizing twice gives the bits of normalizing once; a second
    division would move the last bit of some rows. Only at geom_tol >= 0.5,
    where the zero-normal test could reject a unit row, is it divided again,
    and ZeroNormalError is raised as for any other program.
    """
    if lp._normalized and geom_tol < _UNIT_NORM_FLOOR:
        return lp
    A = lp.A
    squares = _row_squares(A)
    # a coefficient above HUGE_COEFFICIENT has a square of at least
    # HUGE_COEFFICIENT**2 (rounding is monotonic), and so has its row's sum of
    # squares, so the m x n scan for one runs only when some row sum is that large
    if np.maximum.reduce(squares) >= _HUGE_SQUARE and \
            np.maximum.reduce(np.abs(A), axis=None) > HUGE_COEFFICIENT:
        # the sum of squares of such a row can overflow to inf, and dividing by
        # it would wipe the row out: its norm is s |a / s|, s its largest |a_j|;
        # the other rows are divided by 1 and multiplied by 1, which is exact
        peak = np.maximum.reduce(np.abs(A), axis=1)
        scale = np.where(peak > HUGE_COEFFICIENT, peak, 1.0)
        scaled = A / scale[:, None]
        norms = np.sqrt(np.add.reduce(scaled * scaled, axis=1)) * scale
    else:
        # the expression np.linalg.norm(A, axis=1) evaluates, without its wrapper
        norms = np.sqrt(squares)
    if np.minimum.reduce(norms) <= geom_tol:
        raise ZeroNormalError(int((norms <= geom_tol).argmax()))
    # the arrays are valid by construction, so the new program wraps them unchecked
    unit = object.__new__(LinearProgram)
    unit._store(A / norms[:, None], lp.b / norms, lp.senses, lp.objective, lp.gt_rows,
                lp.eq_rows, normalized=True)
    return unit


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
        for name in ("epsilon", "geom_tol", "feas_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
