"""Independent ground truth: brute-force oracles, certified generators, trace checks.

Everything here deliberately avoids the solver's own machinery. The LP oracle
enumerates vertices from scratch, the projection oracle assembles and solves a
dense KKT system, and the trace checker re-evaluates signed distances event by
event. Desk scale only.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .model import Direction, LinearProgram, Sense, Verdict
from .solver import EventKind, TraceEvent

ORACLE_MAX_DIMENSION = 8
ORACLE_MAX_CONSTRAINTS = 20
_FEAS_TOL = 1e-9


class ScaleExceededError(ValueError):
    """The instance is too large for the brute-force oracle."""


class RankDeficientError(ValueError):
    pass


@dataclass(frozen=True)
class FeasibleInterior:
    point: np.ndarray
    slack: float


@dataclass(frozen=True)
class InfeasiblePair:
    index_a: int
    index_b: int


@dataclass(frozen=True)
class GeneratedInstance:
    lp: LinearProgram
    certificate: Union[FeasibleInterior, InfeasiblePair]
    seed: int


@dataclass(frozen=True)
class OracleResult:
    verdict: Verdict
    point: Optional[np.ndarray] = None
    value: Optional[float] = None


def _enumerate_vertices(planes: np.ndarray, rhs: np.ndarray, senses: list[Sense],
                        n: int) -> np.ndarray:
    """All feasible intersection points of n-subsets of the planes."""
    total = planes.shape[0]
    combos = np.array(list(itertools.combinations(range(total), n)), dtype=int)
    found: list[np.ndarray] = []
    ge_rows = np.array([s is Sense.GE for s in senses])
    gt_rows = np.array([s is Sense.GT for s in senses])
    eq_rows = np.array([s is Sense.EQ for s in senses])

    chunk = 20000
    for lo in range(0, combos.shape[0], chunk):
        idx = combos[lo:lo + chunk]
        mats = planes[idx]
        vecs = rhs[idx]
        dets = np.linalg.det(mats)
        good = np.abs(dets) > 1e-10
        if not np.any(good):
            continue
        pts = np.linalg.solve(mats[good], vecs[good][..., None])[..., 0]
        residuals = pts @ planes.T - rhs
        ok = np.ones(pts.shape[0], dtype=bool)
        if np.any(ge_rows):
            ok &= np.all(residuals[:, ge_rows] >= -_FEAS_TOL, axis=1)
        if np.any(gt_rows):
            ok &= np.all(residuals[:, gt_rows] > _FEAS_TOL, axis=1)
        if np.any(eq_rows):
            ok &= np.all(np.abs(residuals[:, eq_rows]) <= _FEAS_TOL, axis=1)
        if np.any(ok):
            found.append(pts[ok])
    if not found:
        return np.zeros((0, n))
    return np.vstack(found)


def oracle_solve(lp: LinearProgram, bound: float = 100.0,
                 _allow_escalation: bool = True) -> OracleResult:
    """Brute-force verdict by enumerating all vertices inside a box of half-width `bound`.

    Every n-subset of constraint planes plus box faces is solved as a square
    system and kept if feasible. The objective-best vertex wins; if every
    optimal vertex sits on the box and enlarging the box by 10x strictly
    improves the objective, the problem is unbounded. Strict (GT) rows are
    checked strictly, so open regions whose closures only touch at strict
    faces can be missed; generated suites avoid that case.
    """
    n = lp.dimension
    m = lp.num_constraints
    if n > ORACLE_MAX_DIMENSION or m > ORACLE_MAX_CONSTRAINTS:
        raise ScaleExceededError(f"oracle limited to n<={ORACLE_MAX_DIMENSION}, m<={ORACLE_MAX_CONSTRAINTS}")
    if bound <= 0:
        raise ValueError("bound must be positive")

    planes = np.vstack([lp.matrix(), np.eye(n), -np.eye(n)])
    rhs = np.concatenate([lp.offsets(), np.full(n, -bound), np.full(n, -bound)])
    senses = list(lp.senses) + [Sense.GE] * (2 * n)

    vertices = _enumerate_vertices(planes, rhs, senses, n)
    if vertices.shape[0] == 0:
        return OracleResult(Verdict.INFEASIBLE)

    if lp.objective is None:
        return OracleResult(Verdict.FEASIBLE, point=vertices[0].copy())

    c = lp.objective.coefficients
    work_c = c if lp.objective.direction is Direction.MAX else -c
    scores = vertices @ work_c
    best = float(np.max(scores))
    optimal = vertices[scores >= best - 1e-9 * (1.0 + abs(best))]
    on_box = np.any(np.abs(optimal) >= bound - 1e-6, axis=1)

    if np.all(on_box) and _allow_escalation:
        bigger = oracle_solve(lp, bound * 10.0, _allow_escalation=False)
        if bigger.verdict in (Verdict.OPTIMAL, Verdict.FEASIBLE) and bigger.value is not None:
            grown = bigger.value if lp.objective.direction is Direction.MAX else -bigger.value
            if grown > best + 1e-7 * (1.0 + abs(best)):
                return OracleResult(Verdict.UNBOUNDED)

    off_box = optimal[~on_box]
    point = off_box[0] if off_box.shape[0] else optimal[0]
    value = float(c @ point)
    return OracleResult(Verdict.OPTIMAL, point=point.copy(), value=value)


def oracle_projection(normals, offsets, p, targets) -> np.ndarray:
    """Nearest point with prescribed signed distances, by a dense KKT solve.

    Independent of the incremental Gram machinery: the full (n+t) x (n+t)
    saddle system [[I, G^T], [G, 0]] is assembled and solved from scratch.
    """
    G = np.asarray(normals, dtype=float)
    if G.ndim != 2:
        raise ValueError("normals must be a 2-d array")
    t, n = G.shape
    b = np.asarray(offsets, dtype=float).reshape(-1)
    p = np.asarray(p, dtype=float).reshape(-1)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    if b.shape[0] != t or targets.shape[0] != t or p.shape[0] != n:
        raise ValueError("inconsistent shapes")
    if t == 0:
        return p.copy()
    if np.linalg.matrix_rank(G, tol=1e-10) < t:
        raise RankDeficientError("plane normals are linearly dependent")
    kkt = np.zeros((n + t, n + t))
    kkt[:n, :n] = np.eye(n)
    kkt[:n, n:] = G.T
    kkt[n:, :n] = G
    rhs = np.concatenate([p, b + targets])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError(str(exc)) from exc
    return sol[:n]


def _unit_rows(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    rows = rng.standard_normal((m, n))
    norms = np.linalg.norm(rows, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        rows[bad] = rng.standard_normal((int(np.sum(bad)), n))
        norms = np.linalg.norm(rows, axis=1)
    return rows / norms[:, None]


def gen_feasible(n: int, m: int, slack: float, seed: int,
                 interior=None) -> GeneratedInstance:
    """Random instance guaranteed feasible: a ball of radius `slack` around the
    certificate point satisfies every constraint by construction."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if slack <= 0:
        raise ValueError("slack must be positive")
    rng = np.random.default_rng(seed)
    normals = _unit_rows(rng, m, n)
    z = rng.uniform(-1.0, 1.0, n)
    jitter = rng.uniform(0.0, 0.5, m)
    if interior is not None:
        z = np.asarray(interior, dtype=float).reshape(-1)
        if z.shape[0] != n:
            raise ValueError("interior point has wrong length")
    offsets = normals @ z - (slack + jitter)
    lp = LinearProgram.from_arrays(normals, offsets)
    z = z.copy()
    z.setflags(write=False)
    return GeneratedInstance(lp, FeasibleInterior(z, float(slack)), int(seed))


def gen_infeasible(n: int, m: int, seed: int) -> GeneratedInstance:
    """Random instance guaranteed empty: two rows demand a.x >= beta and
    a.x <= -beta' with beta + beta' >= 0.5."""
    if m < 2:
        raise ValueError("m must be at least 2")
    base = gen_feasible(n, m, 0.25, seed)
    rng = np.random.default_rng((int(seed), 0x1F))
    direction = _unit_rows(rng, 1, n)[0]
    beta = float(rng.uniform(0.25, 1.0))
    beta_prime = float(rng.uniform(0.25, 1.0))
    idx = sorted(int(i) for i in rng.choice(m, size=2, replace=False))
    normals = base.lp.matrix()
    offsets = base.lp.offsets()
    normals[idx[0]] = direction
    offsets[idx[0]] = beta
    normals[idx[1]] = -direction
    offsets[idx[1]] = beta_prime
    lp = LinearProgram.from_arrays(normals, offsets)
    return GeneratedInstance(lp, InfeasiblePair(idx[0], idx[1]), int(seed))


_TARGET_RE = re.compile(r"target=(\d+)")
_EPSILON_RE = re.compile(r"epsilon=([0-9eE+.-]+)")


def check_trace(lp: LinearProgram, events: Sequence[TraceEvent], epsilon: float,
                feas_tol: float = 1e-8, ortho_tol: float = 1e-8) -> list[str]:
    """Replay a trace and report invariant violations.

    Checks: direction orthogonality to every gutter plane; no move breaking a
    constraint that previously held with at least an epsilon margin; gutter
    never larger than the dimension, and GUTTER_FULL only at exactly n rows;
    MOVE events strictly change the center. Constraint indices beyond the
    program (the artificial objective plane) are ignored.
    """
    problems: list[str] = []
    m = lp.num_constraints
    n = lp.dimension
    matrix = lp.matrix()
    offsets = lp.offsets()
    senses = lp.senses

    current_eps = float(epsilon)
    current_target: Optional[int] = None
    prev_p0: Optional[np.ndarray] = None

    for k, ev in enumerate(events):
        p0 = np.asarray(ev.p0, dtype=float)
        dir_vec = np.asarray(ev.dir, dtype=float)
        gutter = [g for g in ev.gutter_indices if g < m]

        if len(ev.gutter_indices) > n:
            problems.append(f"event {k}: gutter has {len(ev.gutter_indices)} rows in dimension {n}")
        if ev.kind is EventKind.GUTTER_FULL and len(ev.gutter_indices) != n:
            problems.append(f"event {k}: GUTTER_FULL with {len(ev.gutter_indices)} rows, expected {n}")

        if ev.kind is EventKind.SELECT_TARGET:
            match = _TARGET_RE.search(ev.detail)
            if match:
                current_target = int(match.group(1))

        if float(np.linalg.norm(dir_vec)) > 0.5 and gutter:
            drift = float(np.max(np.abs(matrix[gutter] @ dir_vec)))
            if drift > ortho_tol:
                problems.append(f"event {k} ({ev.kind.value}): direction-gutter drift {drift:.3e}")

        if prev_p0 is not None:
            if ev.kind is EventKind.MOVE and float(np.linalg.norm(p0 - prev_p0)) == 0.0:
                problems.append(f"event {k}: MOVE with unchanged center")
            d_prev = matrix @ prev_p0 - offsets
            d_new = matrix @ p0 - offsets
            for j in range(m):
                if j == current_target:
                    continue
                if senses[j] is Sense.EQ:
                    if abs(d_prev[j]) <= 10 * feas_tol and abs(d_new[j]) > 10 * feas_tol:
                        problems.append(
                            f"event {k}: equality {j} drifted to {d_new[j]:.3e}")
                else:
                    if d_prev[j] >= current_eps - feas_tol and d_new[j] < -feas_tol:
                        problems.append(
                            f"event {k}: satisfied constraint {j} driven to {d_new[j]:.3e}")

        if ev.kind is EventKind.SHRINK_BALL:
            match = _EPSILON_RE.search(ev.detail)
            if match:
                current_eps = float(match.group(1))

        prev_p0 = p0

    return problems


def monotone_approach_violations(lp: LinearProgram, events: Sequence[TraceEvent],
                                 tol: float = 1e-9) -> list[str]:
    """Within each resolve cycle, the target distance must not decrease across MOVEs."""
    problems: list[str] = []
    m = lp.num_constraints
    current_target: Optional[int] = None
    last_d: Optional[float] = None
    for k, ev in enumerate(events):
        if ev.kind is EventKind.SELECT_TARGET:
            match = _TARGET_RE.search(ev.detail)
            current_target = int(match.group(1)) if match else None
            last_d = None
            continue
        if ev.kind is not EventKind.MOVE or current_target is None or current_target >= m:
            continue
        d = float(lp.A[current_target] @ np.asarray(ev.p0) - lp.b[current_target])
        if last_d is not None and d < last_d - tol:
            problems.append(
                f"event {k}: target distance fell from {last_d:.3e} to {d:.3e}")
        last_d = d
    return problems
