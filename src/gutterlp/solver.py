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

from .gram import GutterBasis
from .model import (
    HUGE_COEFFICIENT,
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
    # A p0 - b at the center when resolve_constraint returned RESOLVED or phase I
    # returned FEASIBLE
    distances: Optional[np.ndarray] = None


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
    q = basis.project(p)
    return q, bool(np.logical_and.reduce(np.abs(lp.A[rows].dot(q) - lp.b[rows]) <= 10 * feas_tol))


def _repin(basis: GutterBasis, lp: LinearProgram, pinned, geom_tol: float) -> GutterBasis:
    """Reset basis to hold just the pinned rows, in index order."""
    basis.reset()
    for i in sorted(pinned):
        basis.append_row(i, lp.A[i], lp.b[i], geom_tol)
    return basis


def _slide_direction(proj: np.ndarray, d: float, geom_tol: float, feas_tol: float,
                     epsilon: float) -> Optional[np.ndarray]:
    """Movement direction parallel to the gutter that approaches the target plane, or None.

    proj is the target's unit normal a projected onto the gutter's tangent
    space: basis.tangent(a) at cycle start, then deflated by each appended
    row (GutterBasis.deflate). The direction is proj normalized. That equals
    normalizing P3 - P1, where P1 and P3 are the projections of the center
    and of its target-plane foot onto the gutter intersection; None, when
    |proj| or |P3 - P1| = travel * |proj| is at most geom_tol, signals "no
    slope on the gutter". The basis's rows are orthonormal to rounding level,
    so each projection step leaves dir-gutter dot products at rounding level
    too. d is the target's signed distance at the center. A target within
    feas_tol of its plane (a strict target left on it) has the gap up to the
    epsilon standoff left to travel instead of the plane distance, the same
    test resolve_constraint uses for its hit time.
    """
    norm = math.sqrt(proj.dot(proj))
    travel = -d if d < -feas_tol else max(epsilon - d, 0.0)
    if norm <= geom_tol or travel * norm <= geom_tol:
        return None
    return proj / norm


def resolve_constraint(lp: LinearProgram, state: SolverState, config: SolverConfig,
                       trace: TraceSink = None, d: Optional[np.ndarray] = None,
                       satisfied: Optional[np.ndarray] = None,
                       objective: Optional[np.ndarray] = None) -> ResolveOutcome:
    """Drive the ball until the target constraint is satisfied or progress dies.

    The target is row state.target_index of lp, a GE or GT row (any other
    index raises ValueError), or, given `objective`, the unit direction that
    phase II pushes to infinity, the plane objective . x >= +inf. The
    objective's distance is -inf at every center and it is never steep, so
    it is never hit and the cycle never resolves. Expects unit rows (see
    normalize), the target violated at state.p0 and state.gutter holding
    only the pinned equality rows. Mutates state in place and returns how
    the cycle ended: RESOLVED, GUTTER_FULL, NO_SLOPE (no direction along the
    gutter approaches the target), INNER_CAP or UNBOUNDED_RAY (no plane
    stops the ball). After RESOLVED, state.distances holds A p0 - b at the
    final center. `d`, when given, must be A p0 - b at the current center
    and `satisfied` its lp.satisfied mask, as the caller's violation check
    already computed them; neither is modified.

    The planes that can stop the ball are lp's rows satisfied when the cycle
    starts, less the pinned and gutter rows and rows whose append was
    degenerate (until the next successful append). The cycle keeps them as a
    float gate, -0.0 on open rows and -inf on closed ones. A scan finds the
    first plane hit as the least hit time t, ties going to the lowest index;
    a target row beats the rows after it. Events report the objective as
    target m = lp.num_constraints. For each slide direction,
    live = gate - A dir, with -inf on the rows too flat to hit; -0.0 - s is
    -s for every finite s, signed zeros included, so live is -A dir on the
    open rows bit for bit. A scan is then t = (A p0 - b) / live.

    A far obstacle moves the center back to its epsilon standoff, where it
    touches the ball, and joins the gutter in the same step, as a near one
    does. With epsilon == 0 the center lands on the far plane, which the
    next scan drops, so there the backoff ends its step. A step that appends
    a row leaves the turn to the top of the next step: after the one refresh
    of A p0 - b and a target row's distance, which follows every move, the
    target's projection onto the gutter's tangent space, taken once per
    cycle, is deflated by the row and gives the new direction, unless the
    gutter is full. One site after the RESOLVED test decides every stall:
    NO_SLOPE when there is no direction ("at cycle start" before the first
    step), then GUTTER_FULL, then INNER_CAP. A dir, live and a target row's
    slope are recomputed only after the direction changed.

    When the target comes first, the landing past its plane is cut short at
    the first open plane the ball crosses (A dir < 0) on the way. Every hit
    time is at least the scan's least one, t_first, so that minimum is taken
    only for a landing beyond t_first. Traced and untraced solves move the
    center by the same expression, p0 + t * dir; the MOVE test (_trace_move)
    and the per-step events run only with a trace sink, so tracing changes
    no result.

    A step allocates no array of length m. The distances, A dir, live and t
    go into buffers allocated once per cycle, with a bool mask for the
    compares against geom_tol, held as a 0-d array so that no compare
    converts a Python float. A cycle that returns RESOLVED leaves its
    distances buffer in state.distances, and the next cycle allocates its
    own, so those distances stay valid. The center, the direction and the
    inner-step count are locals, written to state before every return and,
    on a traced solve, before every event.
    """
    A, b = lp.A, lp.b
    m, n = A.shape
    own = objective is None
    i = state.target_index if own else m
    if own and not (0 <= i < m and lp.senses[i] is not Sense.EQ):
        raise ValueError(f"the target must be a GE or GT row in 0..{m - 1}, got {i}")
    a, strict = (A[i], lp.senses[i] is Sense.GT) if own else (objective, False)
    eps = state.epsilon
    geom_tol = config.geom_tol
    feas_tol = config.feas_tol

    p0 = state.p0
    if d is None:
        d = A.dot(p0) - b
    d_at = p0
    # a target row reads its distance and slope from the cycle's buffers; the
    # objective's distance stays -inf and its slope 0, so it is never hit
    d_i = float(d[i]) if own else -math.inf
    if satisfied is None:
        satisfied = lp.satisfied(d, feas_tol)
    gutter = state.gutter
    rows = gutter.size
    gate = np.where(satisfied, -0.0, -np.inf)
    if state.pinned_eq or rows:
        gate[[*state.pinned_eq, *gutter.indices]] = -np.inf
    proj = gutter.tangent(a)
    direction = _slide_direction(proj, d_i, geom_tol, feas_tol, eps)
    # the step's buffers, filled in place; a ufunc's third argument is its out
    distances, slope, live, t = np.empty(m), np.empty(m), np.empty(m), np.empty(m)
    mask = np.empty(m, dtype=bool)
    tol = np.array(geom_tol)
    # the loop reads locals faster than module attributes
    divide, less_equal, putmask = np.divide, np.less_equal, np.putmask
    subtract, absolute, inf = np.subtract, np.absolute, math.inf
    scanned_dir = None
    skipped: list[int] = []
    inner = state.inner_iter
    inner_cap = config.inner_cap(lp)
    appended = -1   # the row whose append left the turn due, or -1

    while True:
        if p0 is not d_at:
            d = A.dot(p0, distances)
            d -= b
            d_at = p0
            d_i = float(d[i]) if own else -inf
        if appended >= 0:
            if rows < n:
                gutter.deflate(proj)
                direction = _slide_direction(proj, d_i, geom_tol, feas_tol, eps)
            if trace is not None:
                _emit_at(trace, state, p0, direction, inner, EventKind.GUTTER_APPEND, "plane={}",
                         appended, stopped=rows >= n or direction is None)
            appended = -1
        if d_i > feas_tol if strict else d_i >= -feas_tol:
            state.distances = d
            _emit_at(trace, state, p0, direction, inner, EventKind.RESOLVED, "target={}", i)
            return ResolveOutcome.RESOLVED
        if direction is None:
            detail = "no-slope" if scanned_dir is not None else "no-slope at cycle start"
            _emit_at(trace, state, p0, direction, inner, EventKind.STALL, detail, stopped=True)
            return ResolveOutcome.NO_SLOPE
        if rows >= n:
            _emit_at(trace, state, p0, direction, inner, EventKind.GUTTER_FULL,
                     "target={} rows={}", i, rows, stopped=True)
            return ResolveOutcome.GUTTER_FULL

        inner += 1
        if inner > inner_cap:
            _emit_at(trace, state, p0, direction, inner, EventKind.STALL, "inner-iteration-cap",
                     stopped=True)
            return ResolveOutcome.INNER_CAP

        if direction is not scanned_dir:
            scanned_dir = direction
            A.dot(direction, slope)
            subtract(gate, slope, live)
            absolute(slope, t)
            less_equal(t, tol, mask)
            putmask(live, mask, -inf)
            slope_i = float(slope[i]) if own else 0.0
            target_steep = abs(slope_i) > geom_tol
        # a violated target is hit at its plane; a strict target already on
        # its plane is hit at the epsilon standoff
        t_i = inf
        if target_steep:
            t_i = (-d_i if d_i < -feas_tol else eps - d_i) / slope_i
            if not t_i > geom_tol:
                t_i = inf

        # closed rows, the target from lp among them, divide by -inf and give
        # +-0, which the filter drops
        divide(d, live, t)
        less_equal(t, tol, mask)
        putmask(t, mask, inf)
        j = int(t.argmin())
        t_first = float(t[j])
        if t_i == t_first == inf:
            _emit_at(trace, state, p0, direction, inner, EventKind.STALL, "unbounded-ray")
            return ResolveOutcome.UNBOUNDED_RAY

        if t_i < t_first or (t_i == t_first and i < j):
            # the target comes first: land at the epsilon standoff past its plane,
            # stopping early on any open plane crossed on the way; every t is at
            # least t_first, so only a landing beyond t_first can cross one
            t_end = t_i
            if d_i < -feas_tol and eps > 0:
                t_end += eps / slope_i
            if t_end > t_first:
                np.less(slope, 0.0, mask)
                t_end = min(t_end, np.minimum.reduce(t, where=mask, initial=inf))
            moved_from = p0
            p0 = moved_from + t_end * direction
            if trace is not None:
                _trace_move(trace, state, p0, direction, inner, moved_from, t_end)
            continue

        # put the center at the epsilon standoff on the ray, never moving
        # backward; the obstacle then touches the ball and joins the gutter
        slope_j = abs(float(slope[j]))
        t_place = t_first - (eps / slope_j if eps > 0 else 0.0)
        far = float(d[j]) > eps + feas_tol
        if t_place > 0:
            moved_from = p0
            p0 = moved_from + t_place * direction
            if trace is not None:
                _trace_move(trace, state, p0, direction, inner, moved_from, t_place)
        if far:
            if trace is not None:
                _emit_at(trace, state, p0, direction, inner, EventKind.OBSTACLE_BACKOFF,
                         "obstacle={}", j)
            if eps == 0:
                # a zero-radius ball lands on the plane, which the next scan drops
                continue
        gate[j] = -inf
        if not gutter.append_row(j, A[j], b[j], geom_tol):
            skipped.append(j)
            live[j] = -inf
            if trace is not None:
                _emit_at(trace, state, p0, direction, inner, EventKind.GUTTER_SKIP_DEGENERATE,
                         "plane={}", j)
            continue
        rows += 1
        if skipped:
            gate[skipped] = -0.0
            skipped.clear()
        appended = j


def _emit_at(trace: TraceSink, state: SolverState, p0: np.ndarray, direction: np.ndarray,
             inner: int, kind: EventKind, detail: str = "", *args, stopped: bool = False) -> None:
    """Write resolve_constraint's center, direction and step count to state, then _emit."""
    state.p0, state.dir, state.inner_iter = p0, direction, inner
    _emit(trace, state, kind, detail, *args, stopped=stopped)


def _trace_move(trace: TraceSink, state: SolverState, p0: np.ndarray, direction: np.ndarray,
                inner: int, moved_from: np.ndarray, t: float) -> None:
    """Emit a MOVE event for a move of t from moved_from to p0 that changed some coordinate.

    The solver moves the center with the same expression whether traced or
    not, and only a traced solve calls this, so the elementwise comparison
    costs an untraced step nothing and tracing changes no result.
    """
    if np.logical_or.reduce(p0 != moved_from):
        _emit_at(trace, state, p0, direction, inner, EventKind.MOVE, "advance t={:.9e}", t)


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

    origin_at = basis.project(state.p0)
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
    """Phase I on an already normalized program.

    Each cycle targets the most violated row that is not a pinned equality:
    one argmin over d with +inf on the satisfied and pinned rows, ties going
    to the lowest index. A least value of +inf means there is no such row,
    and then the solve ends: FEASIBLE when every row is satisfied, STALLED
    with "all violated constraints are pinned equalities" otherwise.
    """
    diagnostics: list[str] = []
    # one basis serves every resolve cycle; _project_onto_planes builds its own
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
        pick = np.where(satisfied, np.inf, d)
        if state.pinned_eq:
            pick[list(state.pinned_eq)] = np.inf
        target = int(pick.argmin())
        distance = pick[target]
        if distance == np.inf:
            if np.logical_and.reduce(satisfied):
                state.distances = d
                return _result(Verdict.FEASIBLE, state, diagnostics, point=state.p0), state
            diagnostics.append("all violated constraints are pinned equalities")
            return _result(Verdict.STALLED, state, diagnostics), state
        state.target_index = target
        _repin(state.gutter, lp, state.pinned_eq, config.geom_tol)
        _emit(trace, state, EventKind.SELECT_TARGET, "target={} distance={:.9e}", target, distance,
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

    The objective is pushed by resolving the artificial constraint
    c_hat . x >= +inf: each cycle passes c_hat to resolve_constraint as
    `objective` on the user's own normalized program, never as a row stacked
    under it, and reports it in events as target m. No point meets that target, so
    a cycle never resolves; it walks up the objective along the gutter until
    it stalls or no plane stops it. Phase II stops at the first proof:
    - a stall (GUTTER_FULL or NO_SLOPE) whose gutter vertex, the center
      projected onto the gutter planes, passes check_point and the KKT test
      (c_hat in the gutter's row span, multipliers >= -geom_tol on every row
      that is not an equality) returns that vertex as OPTIMAL;
    - a cycle that no plane stops (UNBOUNDED_RAY) returns UNBOUNDED, with the
      diagnostic "recession ray" when its center passes check_point and its
      last slide direction is a recession ray (no inequality row has
      A dir < -geom_tol, every equality row has |A dir| <= geom_tol), and
      "no plane stops the objective walk" otherwise.
    An unproven stall, or the inner cap, retries from the center with a fresh
    gutter. A stall that repeats without objective progress, or the outer cap,
    ends the search STALLED with "no optimality proof (<outcome>)".
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
    peak = float(np.maximum.reduce(np.abs(work_c)))
    if peak > HUGE_COEFFICIENT:
        # c . c can overflow to inf, which would turn c_hat into zero; scaling
        # keeps the direction
        work_c = work_c / peak
    norm_c = math.sqrt(work_c.dot(work_c))
    diagnostics = list(phase1.diagnostics)
    if norm_c <= config.geom_tol:
        diagnostics.append("objective is numerically zero; any feasible point is optimal")
        return _result(Verdict.OPTIMAL, state, diagnostics, point=state.p0,
                       objective_value=float(c.dot(state.p0)))
    c_hat = work_c / norm_c

    last_stall_height: Optional[float] = None
    # phase I's last distances hold at the center until the first cycle moves it
    d = state.distances

    for _ in range(config.outer_cap(lp)):
        _repin(state.gutter, lp, state.pinned_eq, config.geom_tol)
        _emit(trace, state, EventKind.SELECT_TARGET, "target={} artificial",
              lp.num_constraints, stopped=True)
        outcome = resolve_constraint(lp, state, config, trace, d, objective=c_hat)
        d = None

        if outcome is ResolveOutcome.UNBOUNDED_RAY:
            if _recession_ray(lp, state.dir, config.geom_tol) and \
                    check_point(lp, state.p0, config.feas_tol):
                diagnostics.append("recession ray")
            else:
                diagnostics.append("no plane stops the objective walk")
            return _result(Verdict.UNBOUNDED, state, diagnostics)

        # a stall is OPTIMAL at its gutter vertex when that vertex is feasible and
        # its multipliers prove it; the inner cap leaves no vertex to test
        if outcome is not ResolveOutcome.INNER_CAP:
            optimum = state.gutter.project(state.p0)
            if check_point(lp, optimum, config.feas_tol) and \
                    _kkt_optimal(lp, state.gutter, c_hat, config.geom_tol):
                diagnostics.append(f"optimum at {outcome.value}")
                return _result(Verdict.OPTIMAL, state, diagnostics, point=optimum,
                               objective_value=float(c.dot(optimum)))
        stall_height = float(c_hat.dot(state.p0))
        if last_stall_height is not None and \
                stall_height <= last_stall_height + 1e-9 * (1.0 + abs(stall_height)):
            break
        last_stall_height = stall_height

    diagnostics.append(f"no optimality proof ({outcome.value})")
    return _result(Verdict.STALLED, state, diagnostics)
