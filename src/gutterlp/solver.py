"""Feasibility and optimum search by sliding an epsilon-ball along constraint planes.

The solver repeatedly picks the most-violated constraint and moves the ball
center toward its plane. A satisfied plane met on the way stops the center
at an epsilon standoff (backing off from the hit point when the plane was
far) and, now touching the ball, joins the "gutter" of touching planes in the
same step; movement then continues parallel to the whole gutter, in the
direction that approaches the target fastest. When no such direction
remains, the ball is either shrunk to fit a narrow region, switched to
equality mode for non-full-dimensional regions, or the target is declared
unresolvable.

Most arrays on the solve path hold 4 to 500 entries, so numpy's per-call
dispatch costs more than the arithmetic: products go through `ndarray.dot`,
reductions through the ufunc's `reduce`, and per-step scalars are Python
floats. Each makes the same BLAS call or IEEE operation as `@`, `.max()`,
`np.all` or a numpy scalar would, so every result keeps its bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .geometry import project_onto_intersection
from .gram import GutterBasis
from .model import (
    DimensionMismatchError,
    Direction,
    LinearProgram,
    Sense,
    SolveResult,
    SolverConfig,
    Verdict,
    _as_vector,
    check_point,
    normalize,
)


class EventKind(Enum):
    SELECT_TARGET = "SELECT_TARGET"
    MOVE = "MOVE"
    RESOLVED = "RESOLVED"
    OBSTACLE_BACKOFF = "OBSTACLE_BACKOFF"
    GUTTER_APPEND = "GUTTER_APPEND"
    GUTTER_SKIP_DEGENERATE = "GUTTER_SKIP_DEGENERATE"
    SHRINK_BALL = "SHRINK_BALL"
    EQUALITY_SWITCH = "EQUALITY_SWITCH"
    STALL = "STALL"
    GUTTER_FULL = "GUTTER_FULL"
    M_ESCALATION = "M_ESCALATION"


@dataclass(frozen=True)
class TraceEvent:
    """One geometric event; p0 is the ball center after the event."""

    iteration: int
    kind: EventKind
    p0: tuple[float, ...]
    dir: tuple[float, ...]
    gutter_indices: tuple[int, ...]
    detail: str = ""


TraceSink = Optional[Callable[[TraceEvent], None]]

# phase II raises the artificial objective bound M by this factor after each
# resolved cycle, and calls the program unbounded after this many raises
BIG_M_GROWTH = 8.0
MAX_M_ESCALATIONS = 6


class InconsistentEqualityError(Exception):
    """Equality constraints admit no common point."""


@dataclass
class SolverState:
    p0: np.ndarray
    epsilon: float
    gutter: GutterBasis
    dir: Optional[np.ndarray] = None
    target_index: int = -1
    pinned_eq: set[int] = field(default_factory=set)
    inner_iter: int = 0
    distances: Optional[np.ndarray] = None  # A p0 - b when resolve_constraint returned RESOLVED


class ResolveOutcome(Enum):
    """How a resolve cycle ended; each value is the text the diagnostics report."""

    RESOLVED = "resolved"
    GUTTER_FULL = "gutter-full"
    NO_SLOPE = "no-slope"
    INNER_CAP = "inner-iteration-cap"
    UNBOUNDED_RAY = "unbounded-ray"


class RepairOutcome(Enum):
    SHRUNK_BALL = "shrunk-ball"
    EQUALITY_MODE = "equality-mode"
    INFEASIBLE = "infeasible"
    FAILED = "failed"


def _emit(trace: TraceSink, state: SolverState, kind: EventKind, detail: str = "",
          *args, stopped: bool = False) -> None:
    """Send one event to the trace sink; nothing at all is built when there is none.

    The detail is `detail.format(*args)`, and a stopped event reports the
    zero direction instead of state.dir.
    """
    if trace is None:
        return
    d = None if stopped else state.dir
    trace(TraceEvent(
        iteration=state.inner_iter,
        kind=kind,
        p0=tuple(state.p0.tolist()),
        dir=tuple(d.tolist()) if d is not None else (0.0,) * state.p0.shape[0],
        gutter_indices=state.gutter.indices,
        detail=detail.format(*args) if args else detail,
    ))


def initial_point(lp: LinearProgram, geom_tol: float = 1e-9, feas_tol: float = 1e-8,
                  start=None) -> np.ndarray:
    """The solve's start: `start` (the origin when None), projected onto the equality planes.

    A start of the wrong length raises DimensionMismatchError, and one with a
    non-finite coordinate raises ValueError. Dependent but consistent
    equality rows are dropped from the projection; an equality left
    unsatisfied by the projection means the equalities are contradictory and
    InconsistentEqualityError is raised.
    """
    if start is None:
        p = np.zeros(lp.dimension)
    else:
        p = _as_vector(start, "start point").copy()
        if p.shape[0] != lp.dimension:
            raise DimensionMismatchError(
                f"start point has length {p.shape[0]}, expected {lp.dimension}")
        if not np.logical_and.reduce(np.isfinite(p)):
            raise ValueError("start point must be finite")
    eq_indices = lp.eq_rows.tolist()
    if not eq_indices:
        return p
    point, ok = _project_onto_planes(lp, eq_indices, p, geom_tol, feas_tol)
    if not ok:
        raise InconsistentEqualityError("equality constraints are contradictory")
    return point


def _project_onto_planes(lp: LinearProgram, indices, p, geom_tol: float,
                         feas_tol: float) -> tuple[np.ndarray, bool]:
    """Project p onto the joint intersection of the given planes.

    Returns (point, consistent); consistent is False when a dropped dependent
    row is not satisfied by the projection, i.e. the planes have no common point.
    """
    rows = sorted(indices)
    basis = _repin(GutterBasis(lp.dimension), lp, rows, geom_tol)
    q = project_onto_intersection(basis, p, np.zeros(basis.size))
    return q, bool(np.logical_and.reduce(np.abs(lp.A[rows].dot(q) - lp.b[rows]) <= 10 * feas_tol))


def _repin(basis: GutterBasis, lp: LinearProgram, pinned, geom_tol: float) -> GutterBasis:
    """Reset basis to hold just the pinned rows, in index order."""
    basis.reset()
    for i in sorted(pinned):
        basis.append_row(i, lp.A[i], lp.b[i], geom_tol)
    return basis


def _slide_direction(a: np.ndarray, basis: GutterBasis, d: float, geom_tol: float,
                     feas_tol: float, epsilon: float = 0.0) -> tuple[Optional[np.ndarray], float]:
    """Movement direction parallel to the gutter that approaches the target plane.

    Equivalent to normalizing P3 - P1, where P1 and P3 are the projections of
    the center and of its target-plane foot onto the gutter intersection; the
    second value is |P3 - P1|, whose vanishing signals "no slope on the gutter".
    a is the target's unit normal and d its signed distance at the center. A
    target within feas_tol of its plane (a strict target left on it) has the
    gap up to the epsilon standoff left to travel instead of the plane
    distance, the same test resolve_constraint uses for its hit time.
    """
    rows = basis.size
    if rows:
        G = basis.normals_matrix()
        proj = a - basis.correction(G.dot(a))
    else:
        proj = a
    norm = math.sqrt(proj.dot(proj))
    travel = -d if d < -feas_tol else max(epsilon - d, 0.0)
    slope = travel * norm
    if norm <= geom_tol or slope <= geom_tol:
        return None, slope
    direction = proj / norm
    if rows:
        # one re-orthogonalization pass keeps dir-gutter dot products at rounding level
        for _ in range(3):
            drift = G.dot(direction)
            if np.maximum.reduce(np.abs(drift)) <= 1e-12:
                break
            direction = direction - basis.correction(drift)
            norm = math.sqrt(direction.dot(direction))
            if norm <= geom_tol:
                return None, slope
            direction = direction / norm
    return direction, slope


def resolve_constraint(lp: LinearProgram, state: SolverState, config: SolverConfig,
                       trace: TraceSink = None, d: Optional[np.ndarray] = None,
                       satisfied: Optional[np.ndarray] = None,
                       target: Optional[tuple[np.ndarray, float, Sense]] = None) -> ResolveOutcome:
    """Drive the ball until the target constraint is satisfied or progress dies.

    The target is `target=(a, beta, sense)`, the row a . x >= beta (> for
    Sense.GT) with unit normal a, or, left out, row state.target_index of
    lp; it is GE or GT, never EQ. Expects unit rows (see normalize), the
    target violated at state.p0 and state.gutter holding only the pinned
    equality rows. Mutates state in place and returns how the cycle ended:
    RESOLVED, GUTTER_FULL, NO_SLOPE (no direction along the gutter
    approaches the target), INNER_CAP or UNBOUNDED_RAY (no plane stops the
    ball). After RESOLVED, state.distances holds A p0 - b at the final
    center. `d`, when given, must be A p0 - b at the current center and
    `satisfied` its lp.satisfied mask, as the caller's violation check
    already computed them; the cycle takes the mask over and modifies it.

    The planes that can stop the ball are lp's rows satisfied when the cycle
    starts, less the pinned and gutter rows and rows whose append was
    degenerate (until the next successful append). A scan finds the first
    plane hit as the least hit time t, ties going to the lowest index. The
    target ties by its index: a row of lp beats the rows after it, and a
    given `target`, which events report as index m = lp.num_constraints,
    beats none. For each slide direction the open rows carry -A dir (`live`,
    -inf when closed), so a scan is t = (A p0 - b) / live.

    A far obstacle moves the center back to its epsilon standoff, where it
    touches the ball, and joins the gutter in the same step, as a near one
    does. With epsilon == 0 the center lands on the far plane, which the
    next scan drops, so there the backoff ends its step. A p0 - b and the
    target's distance are recomputed only after the center moved, and
    A dir, live and the target's slope only after the direction changed.
    """
    A, b = lp.A, lp.b
    m, n = A.shape
    own = target is None
    i = state.target_index if own else m
    a, beta, sense = (A[i], b[i], lp.senses[i]) if own else target
    if sense is Sense.EQ:
        raise ValueError("the target must be a GE or GT row")
    strict = sense is Sense.GT
    eps = state.epsilon
    geom_tol = config.geom_tol
    feas_tol = config.feas_tol

    if d is None:
        d = A.dot(state.p0) - b
    d_at = state.p0
    # a row of lp reads its distance and slope from lp's matvecs, which can
    # differ from a 1-D dot product in the last bit
    d_i = float(d[i]) if own else float(a.dot(d_at)) - beta
    open_rows = lp.satisfied(d, feas_tol) if satisfied is None else satisfied
    if state.pinned_eq or state.gutter.size:
        open_rows[[*state.pinned_eq, *state.gutter.indices]] = False
    direction, _ = _slide_direction(a, state.gutter, d_i, geom_tol, feas_tol, eps)
    if direction is None:
        _emit(trace, state, EventKind.STALL, "no-slope at cycle start", stopped=True)
        return ResolveOutcome.NO_SLOPE
    state.dir = direction
    scanned_dir = None
    skipped: list[int] = []
    inner_cap = config.inner_cap(lp)

    while True:
        if state.p0 is not d_at:
            d = A.dot(state.p0)
            d -= b
            d_at = state.p0
            d_i = float(d[i]) if own else float(a.dot(d_at)) - beta
        if d_i > feas_tol if strict else d_i >= -feas_tol:
            state.distances = d
            _emit(trace, state, EventKind.RESOLVED, "target={}", i)
            return ResolveOutcome.RESOLVED
        if state.gutter.size >= n:
            _emit(trace, state, EventKind.GUTTER_FULL, "target={} rows={}", i, state.gutter.size,
                  stopped=True)
            return ResolveOutcome.GUTTER_FULL

        state.inner_iter += 1
        if state.inner_iter > inner_cap:
            _emit(trace, state, EventKind.STALL, "inner-iteration-cap", stopped=True)
            return ResolveOutcome.INNER_CAP

        if state.dir is not scanned_dir:
            scanned_dir = state.dir
            slope = A.dot(scanned_dir)
            live = np.where(open_rows & (np.abs(slope) > geom_tol), -slope, -np.inf)
            slope_i = float(slope[i]) if own else float(a.dot(scanned_dir))
            target_steep = abs(slope_i) > geom_tol
        # a violated target is hit at its plane; a strict target already on
        # its plane is hit at the epsilon standoff
        t_i = np.inf
        if target_steep:
            t_i = (-d_i if d_i < -feas_tol else eps - d_i) / slope_i
            if not t_i > geom_tol:
                t_i = np.inf

        # closed rows, the target from lp among them, divide by -inf and give
        # +-0, which the filter drops
        t = d / live
        np.putmask(t, t <= geom_tol, np.inf)
        j = int(t.argmin())
        t_first = float(t[j])
        if t_i == t_first == math.inf:
            _emit(trace, state, EventKind.STALL, "unbounded-ray")
            return ResolveOutcome.UNBOUNDED_RAY

        if t_i < t_first or (t_i == t_first and i < j):
            # the target comes first: land at the epsilon standoff past its plane,
            # stopping early on any open plane crossed on the way
            t_end = t_i
            if d_i < -feas_tol and eps > 0:
                t_end += eps / slope_i
            t_end = min(t_end, np.minimum.reduce(t[slope < 0], initial=np.inf))
            _advance(state, t_end, trace)
            continue

        # put the center at the epsilon standoff on the ray, never moving
        # backward; the obstacle then touches the ball and joins the gutter
        slope_j = abs(float(slope[j]))
        t_place = t_first - (eps / slope_j if eps > 0 else 0.0)
        far = d[j] > eps + feas_tol
        if t_place > 0:
            _advance(state, t_place, trace)
        if far:
            _emit(trace, state, EventKind.OBSTACLE_BACKOFF, "obstacle={}", j)
            if eps == 0:
                # a zero-radius ball lands on the plane, which the next scan drops
                continue
        open_rows[j] = False
        if not state.gutter.append_row(j, A[j], b[j], geom_tol):
            skipped.append(j)
            live[j] = -np.inf
            _emit(trace, state, EventKind.GUTTER_SKIP_DEGENERATE, "plane={}", j)
            continue
        if skipped:
            open_rows[skipped] = True
            skipped.clear()
        if state.gutter.size >= n:
            _emit(trace, state, EventKind.GUTTER_APPEND, "plane={}", j, stopped=True)
            continue
        if state.p0 is not d_at:
            d = A.dot(state.p0)
            d -= b
            d_at = state.p0
            d_i = float(d[i]) if own else float(a.dot(d_at)) - beta
        direction, _ = _slide_direction(a, state.gutter, d_i, geom_tol, feas_tol, eps)
        if direction is None:
            _emit(trace, state, EventKind.GUTTER_APPEND, "plane={}", j, stopped=True)
            _emit(trace, state, EventKind.STALL, "no-slope", stopped=True)
            return ResolveOutcome.NO_SLOPE
        state.dir = direction
        _emit(trace, state, EventKind.GUTTER_APPEND, "plane={}", j)


def _advance(state: SolverState, t: float, trace: TraceSink) -> None:
    """Move the center t along the current direction; a MOVE event when it changed.

    An unchanged center keeps its array, which tells resolve_constraint that
    its signed distances are still current.
    """
    moved = state.p0 + t * state.dir
    if np.logical_or.reduce(moved != state.p0):
        state.p0 = moved
        if trace is not None:
            _emit(trace, state, EventKind.MOVE, "advance t={:.9e}", t)


def repair_or_conclude(lp: LinearProgram, state: SolverState, config: SolverConfig,
                       trace: TraceSink = None) -> RepairOutcome:
    """Handle a stalled or full gutter: shrink the ball, pin equalities, or give up.

    O is the projection of the center onto the gutter intersection. A strictly
    feasible O means the ball was too big: restart it halfway between O and the
    target plane with a radius that fits. O sitting on the target plane means
    the feasible region is flat there: hold target and gutter as equalities.
    Anything else leaves no way forward.
    """
    i = state.target_index
    A, b = lp.A, lp.b
    feas_tol = config.feas_tol
    basis = state.gutter

    origin_at = project_onto_intersection(basis, state.p0, np.zeros(basis.size))
    d_origin = A.dot(origin_at) - b
    d_target_o = float(d_origin[i])

    if abs(d_target_o) <= feas_tol:
        new_pinned = set(state.pinned_eq) | {i} | set(basis.indices)
        point, ok = _project_onto_planes(lp, new_pinned, state.p0, config.geom_tol, feas_tol)
        if not ok:
            return RepairOutcome.INFEASIBLE
        state.pinned_eq = new_pinned
        state.p0 = point
        _emit(trace, state, EventKind.EQUALITY_SWITCH, "pinned={}", sorted(new_pinned),
              stopped=True)
        return RepairOutcome.EQUALITY_MODE

    others_ok = lp.satisfied(d_origin, feas_tol)
    others_ok[i] = True

    if np.logical_and.reduce(others_ok) and d_target_o > feas_tol:
        d_target_p = float(A[i].dot(state.p0) - b[i])
        if d_target_p >= -feas_tol:
            return RepairOutcome.FAILED
        appended = [k for k in basis.indices if k not in state.pinned_eq]
        if not appended:
            return RepairOutcome.FAILED
        s = d_target_o / (d_target_o - d_target_p)
        crossing = origin_at + s * (state.p0 - origin_at)
        center = 0.5 * (origin_at + crossing)
        new_eps = float(np.minimum.reduce(A[appended].dot(center) - b[appended]))
        if new_eps <= config.geom_tol:
            return RepairOutcome.FAILED
        state.epsilon = new_eps
        state.p0 = center
        _emit(trace, state, EventKind.SHRINK_BALL, "epsilon={:.9e}", new_eps, stopped=True)
        return RepairOutcome.SHRUNK_BALL

    return RepairOutcome.INFEASIBLE


def _solve_feasibility_state(lp: LinearProgram, config: SolverConfig,
                             start, trace: TraceSink) -> tuple[SolveResult, SolverState]:
    """Phase I on an already normalized program."""
    diagnostics: list[str] = []
    # one basis serves the whole solve; every cycle re-pins it
    state = SolverState(p0=np.zeros(lp.dimension), epsilon=config.epsilon,
                        gutter=GutterBasis(lp.dimension),
                        pinned_eq=set(lp.eq_rows.tolist()))
    try:
        state.p0 = initial_point(lp, config.geom_tol, config.feas_tol, start)
    except InconsistentEqualityError:
        diagnostics.append("contradictory equality constraints")
        return _result(Verdict.INFEASIBLE, state, diagnostics), state
    d = None

    for _ in range(config.outer_cap(lp)):
        # after a RESOLVED cycle the center has not moved since its last distances
        if d is None:
            d = lp.A.dot(state.p0) - lp.b
        satisfied = lp.satisfied(d, config.feas_tol)
        if np.logical_and.reduce(satisfied):
            return _result(Verdict.FEASIBLE, state, diagnostics, point=state.p0), state

        violated = ~satisfied
        if state.pinned_eq:
            violated[list(state.pinned_eq)] = False
        if not np.logical_or.reduce(violated):
            diagnostics.append("all violated constraints are pinned equalities")
            return _result(Verdict.STALLED, state, diagnostics), state
        # the most violated row; argmin breaks ties by the lowest index
        target = int(np.where(violated, d, np.inf).argmin())
        state.target_index = target
        _repin(state.gutter, lp, state.pinned_eq, config.geom_tol)
        _emit(trace, state, EventKind.SELECT_TARGET, "target={} distance={:.9e}", target, d[target],
              stopped=True)

        outcome = resolve_constraint(lp, state, config, trace, d, satisfied)
        if outcome is ResolveOutcome.RESOLVED:
            d = state.distances
            continue
        d = None
        if state.gutter.size == 0:
            diagnostics.append(outcome.value)
            return _result(Verdict.STALLED, state, diagnostics), state
        repair = repair_or_conclude(lp, state, config, trace)
        if repair is RepairOutcome.SHRUNK_BALL:
            continue
        if repair is RepairOutcome.EQUALITY_MODE:
            continue
        if repair is RepairOutcome.INFEASIBLE:
            diagnostics.append(f"unresolvable constraint {target} ({outcome.value})")
            return _result(Verdict.INFEASIBLE, state, diagnostics), state
        diagnostics.append(f"repair failed for constraint {target} ({outcome.value})")
        return _result(Verdict.STALLED, state, diagnostics), state

    diagnostics.append("outer-iteration-cap")
    return _result(Verdict.STALLED, state, diagnostics), state


def _result(verdict: Verdict, state: SolverState, diagnostics: list[str],
            point: Optional[np.ndarray] = None,
            objective_value: Optional[float] = None) -> SolveResult:
    return SolveResult(
        verdict=verdict,
        point=None if point is None else point.copy(),
        objective_value=objective_value,
        iterations=state.inner_iter,
        epsilon_final=state.epsilon,
        diagnostics=tuple(diagnostics),
    )


def solve_feasibility(lp: LinearProgram, config: Optional[SolverConfig] = None,
                      start=None, trace: TraceSink = None) -> SolveResult:
    """Search for any point satisfying all constraints."""
    config = config or SolverConfig()
    result, _ = _solve_feasibility_state(normalize(lp, config.geom_tol), config, start, trace)
    return result


def _kkt_optimal(lp: LinearProgram, basis: GutterBasis, c_hat: np.ndarray,
                 geom_tol: float) -> bool:
    """Whether the gutter vertex maximizes c_hat: the KKT conditions on the gutter rows.

    c_hat must lie in the gutter's row span, and the multipliers
    y = -(G G^T)^-1 G c_hat of the rows that are not equalities must be
    nonnegative (to -geom_tol). Then c_hat = -G^T y, and every feasible x has
    c_hat . x <= c_hat . x* at a feasible x* on the gutter planes.
    """
    y = basis.multipliers(c_hat)
    residual = c_hat + basis.normals_matrix().T.dot(y)
    if math.sqrt(residual.dot(residual)) > geom_tol:
        return False
    if lp.eq_rows.size:
        y = y[~np.isin(basis.indices, lp.eq_rows)]
    return bool(np.logical_and.reduce(y >= -geom_tol))


def _recession_ray(lp: LinearProgram, direction: np.ndarray, geom_tol: float) -> bool:
    """Whether every feasible point stays feasible along `direction`.

    No inequality row may approach it faster than the scan's parallel
    threshold geom_tol, and no equality row may tilt from it by more. A slide
    direction always climbs the objective, so such a direction proves the
    program unbounded.
    """
    slope = lp.A.dot(direction)
    ok = slope >= -geom_tol
    if lp.eq_rows.size:
        ok[lp.eq_rows] = np.abs(slope[lp.eq_rows]) <= geom_tol
    return bool(np.logical_and.reduce(ok))


def solve_optimum(lp: LinearProgram, config: Optional[SolverConfig] = None,
                  start=None, trace: TraceSink = None) -> SolveResult:
    """Optimize the objective: feasibility first, then drive the objective plane.

    The objective is pushed by resolving an artificial constraint
    c_hat . x >= M: each cycle passes it to resolve_constraint as the target
    of the user's own normalized program, never as a row stacked under it,
    and reports it in events as target m. Phase II stops at the first proof:
    - a stall (GUTTER_FULL or NO_SLOPE) whose gutter vertex, the center
      projected onto the gutter planes, passes check_point and the KKT test
      (c_hat in the gutter's row span, multipliers >= -geom_tol on every row
      that is not an equality) returns that vertex as OPTIMAL;
    - a resolved cycle whose center passes check_point and whose last slide
      direction is a recession ray (no inequality row has A dir < -geom_tol,
      every equality row has |A dir| <= geom_tol) returns UNBOUNDED with the
      diagnostic "recession ray".
    Without a proof the big-M fallback runs. A resolved cycle raises M by
    BIG_M_GROWTH, and after MAX_M_ESCALATIONS raises the program is called
    unbounded. An unproven stall keeps its feasible gutter vertex as a
    candidate and retries from the center with a fresh gutter; a stall that
    repeats without objective progress ends the search with the best one.
    """
    if lp.objective is None:
        raise ValueError("solve_optimum requires an objective")
    config = config or SolverConfig()
    lp = normalize(lp, config.geom_tol)

    phase1, state = _solve_feasibility_state(lp, config, start, trace)
    if phase1.verdict is not Verdict.FEASIBLE:
        return phase1

    c = lp.objective.coefficients
    work_c = c if lp.objective.direction is Direction.MAX else -c
    norm_c = math.sqrt(work_c.dot(work_c))
    diagnostics = list(phase1.diagnostics)
    if norm_c <= config.geom_tol:
        diagnostics.append("objective is numerically zero; any feasible point is optimal")
        return _result(Verdict.OPTIMAL, state, diagnostics, point=state.p0,
                       objective_value=float(c.dot(state.p0)))
    c_hat = work_c / norm_c

    big_m = float(c_hat.dot(state.p0) + max(1.0, math.sqrt(state.p0.dot(state.p0))) * BIG_M_GROWTH)
    escalations = 0
    best_point: Optional[np.ndarray] = None
    best_height = -math.inf
    last_stall_height: Optional[float] = None
    last_detail = ""

    for _ in range(config.outer_cap(lp)):
        _repin(state.gutter, lp, state.pinned_eq, config.geom_tol)
        _emit(trace, state, EventKind.SELECT_TARGET, "target={} artificial M={:.9e}",
              lp.num_constraints, big_m, stopped=True)
        outcome = resolve_constraint(lp, state, config, trace, target=(c_hat, big_m, Sense.GE))

        if outcome is ResolveOutcome.RESOLVED:
            if _recession_ray(lp, state.dir, config.geom_tol) and \
                    check_point(lp, state.p0, config.feas_tol):
                diagnostics.append("recession ray")
                return _result(Verdict.UNBOUNDED, state, diagnostics)
            if escalations >= MAX_M_ESCALATIONS:
                diagnostics.append("objective still improving after all M escalations")
                return _result(Verdict.UNBOUNDED, state, diagnostics)
            escalations += 1
            big_m *= BIG_M_GROWTH
            last_stall_height = None
            _emit(trace, state, EventKind.M_ESCALATION, "M={:.9e}", big_m, stopped=True)
            continue

        # stalled or full gutter: take the gutter intersection as an optimum
        # candidate, proven when its multipliers say so; otherwise retry from
        # here with a fresh gutter, and a stall that repeats without objective
        # progress is the stopping condition
        last_detail = outcome.value
        optimum = project_onto_intersection(state.gutter, state.p0, np.zeros(state.gutter.size))
        if check_point(lp, optimum, config.feas_tol):
            if outcome in (ResolveOutcome.GUTTER_FULL, ResolveOutcome.NO_SLOPE) and \
                    _kkt_optimal(lp, state.gutter, c_hat, config.geom_tol):
                diagnostics.append(f"optimum at {last_detail}")
                return _result(Verdict.OPTIMAL, state, diagnostics, point=optimum,
                               objective_value=float(c.dot(optimum)))
            height = float(c_hat.dot(optimum))
            if height > best_height:
                best_height = height
                best_point = optimum
        stall_height = float(c_hat.dot(state.p0))
        if last_stall_height is not None and \
                stall_height <= last_stall_height + 1e-9 * (1.0 + abs(stall_height)):
            break
        last_stall_height = stall_height

    if best_point is not None:
        diagnostics.append(f"optimum at {last_detail}")
        return _result(Verdict.OPTIMAL, state, diagnostics, point=best_point,
                       objective_value=float(c.dot(best_point)))
    diagnostics.append(f"optimum extraction failed feasibility check ({last_detail})")
    return _result(Verdict.STALLED, state, diagnostics)
