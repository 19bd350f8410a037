"""Feasibility and optimum search by sliding an epsilon-ball along constraint planes.

The solver repeatedly picks the most-violated constraint and moves the ball
center toward its plane. Satisfied planes encountered on the way either push
the center back to an epsilon standoff (far obstacles) or join the "gutter"
of touching planes (near obstacles); movement then continues parallel to the
whole gutter, in the direction that approaches the target fastest. When no
such direction remains, the ball is either shrunk to fit a narrow region,
switched to equality mode for non-full-dimensional regions, or the target is
declared unresolvable.
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
    outer_iter: int = 0
    inner_iter: int = 0


class ResolveOutcome(Enum):
    RESOLVED = "resolved"
    GUTTER_FULL = "gutter-full"
    STALL = "stall"


class RepairOutcome(Enum):
    SHRUNK_BALL = "shrunk-ball"
    EQUALITY_MODE = "equality-mode"
    INFEASIBLE = "infeasible"
    FAILED = "failed"


def _emit(trace: TraceSink, state: SolverState, kind: EventKind, detail: str = "",
          dir_vec: Optional[np.ndarray] = None) -> None:
    if trace is None:
        return
    d = dir_vec if dir_vec is not None else state.dir
    trace(TraceEvent(
        iteration=state.inner_iter,
        kind=kind,
        p0=tuple(state.p0.tolist()),
        dir=tuple(d.tolist()) if d is not None else (0.0,) * state.p0.shape[0],
        gutter_indices=state.gutter.indices,
        detail=detail,
    ))


def initial_point(lp: LinearProgram, geom_tol: float = 1e-9, feas_tol: float = 1e-8) -> np.ndarray:
    """Default start: the origin, projected onto the equality planes if any.

    Dependent but consistent equality rows are dropped from the projection;
    an equality left unsatisfied by the projection means the equalities are
    contradictory and InconsistentEqualityError is raised.
    """
    eq_indices = np.flatnonzero(lp.equalities).tolist()
    origin = np.zeros(lp.dimension)
    if not eq_indices:
        return origin
    point, ok = _project_onto_planes(lp, eq_indices, origin, geom_tol, feas_tol)
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
    basis = _pinned_basis(lp, rows, geom_tol)
    q = project_onto_intersection(basis, p, np.zeros(basis.size))
    return q, bool(np.all(np.abs(lp.A[rows] @ q - lp.b[rows]) <= 10 * feas_tol))


def _pinned_basis(lp: LinearProgram, pinned, geom_tol: float) -> GutterBasis:
    basis = GutterBasis(lp.dimension)
    for i in sorted(pinned):
        basis.append_row(i, lp.A[i], lp.b[i], geom_tol)
    return basis


def _slide_direction(lp: LinearProgram, basis: GutterBasis, p0: np.ndarray,
                     target: int, geom_tol: float,
                     epsilon: float = 0.0) -> tuple[Optional[np.ndarray], float]:
    """Movement direction parallel to the gutter that approaches the target plane.

    Equivalent to normalizing P3 - P1, where P1 and P3 are the projections of
    the center and of its target-plane foot onto the gutter intersection; the
    second value is |P3 - P1|, whose vanishing signals "no slope on the gutter".
    For a strict target sitting on its own plane the remaining travel is the
    gap up to the epsilon standoff instead of the plane distance.
    """
    a = lp.A[target]
    if basis.size == 0:
        proj = a.copy()
    else:
        G = basis.normals_matrix()
        proj = a - basis.correction(G @ a)
    norm = float(np.linalg.norm(proj))
    d = float(a @ p0 - lp.b[target])
    travel = abs(d) if d < 0 else max(epsilon - d, 0.0)
    slope = travel * norm
    if norm <= geom_tol or slope <= geom_tol:
        return None, slope
    direction = proj / norm
    if basis.size:
        # one re-orthogonalization pass keeps dir-gutter dot products at rounding level
        G = basis.normals_matrix()
        for _ in range(3):
            drift = G @ direction
            if float(np.max(np.abs(drift))) <= 1e-12:
                break
            direction = direction - basis.correction(drift)
            norm = float(np.linalg.norm(direction))
            if norm <= geom_tol:
                return None, slope
            direction = direction / norm
    return direction, slope


def resolve_constraint(lp: LinearProgram, state: SolverState, config: SolverConfig,
                       trace: TraceSink = None) -> tuple[ResolveOutcome, str]:
    """Drive the ball until the target constraint is satisfied or progress dies.

    Expects state.target_index violated at state.p0 and state.gutter holding
    only the pinned equality rows. Mutates state in place.

    The planes that can stop the ball are the rows satisfied when the cycle
    starts, less the target, the pinned and gutter rows, and rows whose
    append was degenerate (until the next successful append). Each step
    scans all of them at once: the first plane hit is the least hit time t,
    ties going to the lowest index, the target included.
    """
    i = state.target_index
    A, b = lp.A, lp.b
    eps = state.epsilon
    geom_tol = config.geom_tol
    feas_tol = config.feas_tol

    open_rows = lp.satisfied(A @ state.p0 - b, feas_tol)
    open_rows[[i, *state.pinned_eq, *state.gutter.indices]] = False
    direction, _ = _slide_direction(lp, state.gutter, state.p0, i, geom_tol, eps)
    if direction is None:
        _emit(trace, state, EventKind.STALL, "no-slope at cycle start", dir_vec=np.zeros(lp.dimension))
        return ResolveOutcome.STALL, "no-slope"
    state.dir = direction
    skipped: list[int] = []
    inner_cap = config.inner_cap(lp)

    while True:
        d = A @ state.p0 - b
        if lp.satisfied(d, feas_tol)[i]:
            _emit(trace, state, EventKind.RESOLVED, f"target={i}")
            return ResolveOutcome.RESOLVED, "resolved"
        if state.gutter.size >= lp.dimension:
            _emit(trace, state, EventKind.GUTTER_FULL, f"target={i} rows={state.gutter.size}",
                  dir_vec=np.zeros(lp.dimension))
            return ResolveOutcome.GUTTER_FULL, "gutter-full"

        state.inner_iter += 1
        if state.inner_iter > inner_cap:
            _emit(trace, state, EventKind.STALL, "inner-iteration-cap",
                  dir_vec=np.zeros(lp.dimension))
            return ResolveOutcome.STALL, "inner-iteration-cap"

        slope = A @ state.dir
        hit = open_rows & (np.abs(slope) > geom_tol)
        t = np.full(d.shape, np.inf)
        t[hit] = -d[hit] / slope[hit]
        t[t <= geom_tol] = np.inf
        d_i, slope_i = d[i], slope[i]
        if abs(slope_i) > geom_tol:
            # a violated target is hit at its plane; a strict target already on
            # its plane is hit at the epsilon standoff
            t_i = (-d_i if d_i < -feas_tol else eps - d_i) / slope_i
            if t_i > geom_tol:
                t[i] = t_i
        j = int(np.argmin(t))
        t_first = t[j]
        if t_first == np.inf:
            _emit(trace, state, EventKind.STALL, "unbounded-ray")
            return ResolveOutcome.STALL, "unbounded-ray"

        if j == i:
            # the target comes first: land at the epsilon standoff past its plane,
            # stopping early on any open plane crossed on the way
            t_end = t_first
            if d_i < -feas_tol and eps > 0:
                t_end += eps / slope_i
            t[i] = np.inf
            t_end = min(t_end, np.min(t, where=slope < 0, initial=np.inf))
            _advance(state, t_end, trace)
            continue

        slope_j = abs(slope[j])
        if d[j] > eps + feas_tol:
            # far obstacle: retreat along the ray to an epsilon standoff, keep direction
            _advance(state, t_first - eps / slope_j, trace)
            _emit(trace, state, EventKind.OBSTACLE_BACKOFF, f"obstacle={j}")
            continue

        # near obstacle: it touches the ball; put the center at the epsilon
        # standoff on the ray (never moving backward) and add it to the gutter
        t_place = t_first - (eps / slope_j if eps > 0 else 0.0)
        if t_place > 0:
            _advance(state, t_place, trace)
        open_rows[j] = False
        if not state.gutter.append_row(j, A[j], b[j], geom_tol):
            skipped.append(j)
            _emit(trace, state, EventKind.GUTTER_SKIP_DEGENERATE, f"plane={j}")
            continue
        open_rows[skipped] = True
        skipped.clear()
        if state.gutter.size >= lp.dimension:
            _emit(trace, state, EventKind.GUTTER_APPEND, f"plane={j}",
                  dir_vec=np.zeros(lp.dimension))
            continue
        direction, _ = _slide_direction(lp, state.gutter, state.p0, i, geom_tol, eps)
        if direction is None:
            _emit(trace, state, EventKind.GUTTER_APPEND, f"plane={j}",
                  dir_vec=np.zeros(lp.dimension))
            _emit(trace, state, EventKind.STALL, "no-slope",
                  dir_vec=np.zeros(lp.dimension))
            return ResolveOutcome.STALL, "no-slope"
        state.dir = direction
        _emit(trace, state, EventKind.GUTTER_APPEND, f"plane={j}")


def _advance(state: SolverState, t: float, trace: TraceSink) -> None:
    """Move the center t along the current direction; a MOVE event when it changed."""
    moved = state.p0 + t * state.dir
    if not np.array_equal(moved, state.p0):
        state.p0 = moved
        _emit(trace, state, EventKind.MOVE, f"advance t={t:.9e}")


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
    d_origin = A @ origin_at - b
    d_target_o = float(d_origin[i])

    if abs(d_target_o) <= feas_tol:
        new_pinned = set(state.pinned_eq) | {i} | set(basis.indices)
        point, ok = _project_onto_planes(lp, new_pinned, state.p0, config.geom_tol, feas_tol)
        if not ok:
            return RepairOutcome.INFEASIBLE
        state.pinned_eq = new_pinned
        state.p0 = point
        _emit(trace, state, EventKind.EQUALITY_SWITCH,
              f"pinned={sorted(new_pinned)}", dir_vec=np.zeros(lp.dimension))
        return RepairOutcome.EQUALITY_MODE

    others_ok = lp.satisfied(d_origin, feas_tol)
    others_ok[i] = True

    if others_ok.all() and d_target_o > feas_tol:
        d_target_p = float(A[i] @ state.p0 - b[i])
        if d_target_p >= -feas_tol:
            return RepairOutcome.FAILED
        appended = [k for k in basis.indices if k not in state.pinned_eq]
        if not appended:
            return RepairOutcome.FAILED
        s = d_target_o / (d_target_o - d_target_p)
        crossing = origin_at + s * (state.p0 - origin_at)
        center = 0.5 * (origin_at + crossing)
        new_eps = float(np.min(A[appended] @ center - b[appended]))
        if new_eps <= config.geom_tol:
            return RepairOutcome.FAILED
        state.epsilon = new_eps
        state.p0 = center
        _emit(trace, state, EventKind.SHRINK_BALL, f"epsilon={new_eps:.9e}",
              dir_vec=np.zeros(lp.dimension))
        return RepairOutcome.SHRUNK_BALL

    return RepairOutcome.INFEASIBLE


def _solve_feasibility_state(lp: LinearProgram, config: SolverConfig,
                             start, trace: TraceSink) -> tuple[SolveResult, SolverState]:
    """Phase I on an already normalized program."""
    diagnostics: list[str] = []
    pinned = set(np.flatnonzero(lp.equalities).tolist())

    if start is None:
        try:
            p0 = initial_point(lp, config.geom_tol, config.feas_tol)
        except InconsistentEqualityError:
            result = SolveResult(Verdict.INFEASIBLE, iterations=0, epsilon_final=config.epsilon,
                                 diagnostics=("contradictory equality constraints",))
            return result, SolverState(np.zeros(lp.dimension), config.epsilon,
                                       GutterBasis(lp.dimension), pinned_eq=pinned)
    else:
        p0 = _as_vector(start, "start point").copy()
        if p0.shape[0] != lp.dimension:
            raise DimensionMismatchError(
                f"start point has length {p0.shape[0]}, expected {lp.dimension}")
        if pinned:
            p0, ok = _project_onto_planes(lp, pinned, p0, config.geom_tol, config.feas_tol)
            if not ok:
                result = SolveResult(Verdict.INFEASIBLE, iterations=0,
                                     epsilon_final=config.epsilon,
                                     diagnostics=("contradictory equality constraints",))
                return result, SolverState(p0, config.epsilon, GutterBasis(lp.dimension),
                                           pinned_eq=pinned)

    state = SolverState(p0=p0, epsilon=config.epsilon,
                        gutter=_pinned_basis(lp, pinned, config.geom_tol), pinned_eq=pinned)
    outer_cap = config.outer_cap(lp)

    while True:
        state.outer_iter += 1
        if state.outer_iter > outer_cap:
            diagnostics.append("outer-iteration-cap")
            return _result(Verdict.STALLED, state, diagnostics), state

        d = lp.A @ state.p0 - lp.b
        violated = ~lp.satisfied(d, config.feas_tol)
        if not violated.any():
            return _result(Verdict.FEASIBLE, state, diagnostics, point=state.p0), state

        violated[list(state.pinned_eq)] = False
        if not violated.any():
            diagnostics.append("all violated constraints are pinned equalities")
            return _result(Verdict.STALLED, state, diagnostics), state
        # the most violated row; argmin breaks ties by the lowest index
        target = int(np.argmin(np.where(violated, d, np.inf)))
        state.target_index = target
        state.gutter = _pinned_basis(lp, state.pinned_eq, config.geom_tol)
        state.dir = None
        _emit(trace, state, EventKind.SELECT_TARGET, f"target={target} distance={d[target]:.9e}",
              dir_vec=np.zeros(lp.dimension))

        outcome, detail = resolve_constraint(lp, state, config, trace)
        if outcome is ResolveOutcome.RESOLVED:
            continue
        if state.gutter.size == 0:
            diagnostics.append(detail)
            return _result(Verdict.STALLED, state, diagnostics), state
        repair = repair_or_conclude(lp, state, config, trace)
        if repair is RepairOutcome.SHRUNK_BALL:
            continue
        if repair is RepairOutcome.EQUALITY_MODE:
            continue
        if repair is RepairOutcome.INFEASIBLE:
            diagnostics.append(f"unresolvable constraint {target} ({detail})")
            return _result(Verdict.INFEASIBLE, state, diagnostics), state
        diagnostics.append(f"repair failed for constraint {target} ({detail})")
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


def solve_optimum(lp: LinearProgram, config: Optional[SolverConfig] = None,
                  start=None, trace: TraceSink = None) -> SolveResult:
    """Optimize the objective: feasibility first, then drive the objective plane.

    The objective is pushed by resolving an artificial constraint
    c_hat . x >= M; if the constraint keeps getting resolved, M grows
    geometrically until the problem is declared unbounded. A stall or a full
    gutter on the artificial constraint is the stopping condition; projecting
    the center onto the gutter then removes the epsilon gaps.
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
    norm_c = float(np.linalg.norm(work_c))
    diagnostics = list(phase1.diagnostics)
    if norm_c <= config.geom_tol:
        diagnostics.append("objective is numerically zero; any feasible point is optimal")
        return _result(Verdict.OPTIMAL, state, diagnostics, point=state.p0,
                       objective_value=float(c @ state.p0))
    c_hat = work_c / norm_c

    m = lp.num_constraints
    big_m = float(c_hat @ state.p0 + max(1.0, float(np.linalg.norm(state.p0))) * config.big_M_growth)
    # the artificial row c_hat . x >= M is stacked once; each cycle only rewrites its offset
    offsets = np.append(lp.b, big_m)
    lp_aug = LinearProgram._unchecked(np.vstack([lp.A, c_hat]), offsets, lp.senses + (Sense.GE,),
                                      lp.objective, np.append(lp.strict, False),
                                      np.append(lp.equalities, False))
    escalations = 0
    cycles = 0
    cycle_cap = config.outer_cap(lp)
    best_point: Optional[np.ndarray] = None
    best_height = -math.inf
    last_stall_height: Optional[float] = None
    last_detail = ""

    while cycles < cycle_cap:
        cycles += 1
        offsets[m] = big_m
        state.target_index = m
        state.gutter = _pinned_basis(lp, state.pinned_eq, config.geom_tol)
        state.dir = None
        _emit(trace, state, EventKind.SELECT_TARGET,
              f"target={m} artificial M={big_m:.9e}", dir_vec=np.zeros(lp.dimension))
        outcome, detail = resolve_constraint(lp_aug, state, config, trace)

        if outcome is ResolveOutcome.RESOLVED:
            if escalations >= config.max_M_escalations:
                diagnostics.append("objective still improving after all M escalations")
                return _result(Verdict.UNBOUNDED, state, diagnostics)
            escalations += 1
            big_m *= config.big_M_growth
            last_stall_height = None
            _emit(trace, state, EventKind.M_ESCALATION, f"M={big_m:.9e}",
                  dir_vec=np.zeros(lp.dimension))
            continue

        # stalled or full gutter: take the gutter intersection as an optimum
        # candidate, then retry from here with a fresh gutter; a stall that
        # repeats without objective progress is the stopping condition
        last_detail = detail
        optimum = project_onto_intersection(state.gutter, state.p0, np.zeros(state.gutter.size))
        if check_point(lp, optimum, config.feas_tol):
            height = float(c_hat @ optimum)
            if height > best_height:
                best_height = height
                best_point = optimum
        stall_height = float(c_hat @ state.p0)
        if last_stall_height is not None and \
                stall_height <= last_stall_height + 1e-9 * (1.0 + abs(stall_height)):
            break
        last_stall_height = stall_height

    if best_point is not None:
        diagnostics.append(f"optimum at {last_detail}")
        return _result(Verdict.OPTIMAL, state, diagnostics, point=best_point,
                       objective_value=float(c @ best_point))
    diagnostics.append(f"optimum extraction failed feasibility check ({last_detail})")
    return _result(Verdict.STALLED, state, diagnostics)
