"""Reference answers and the checker that judges every solve against them.

References are computed before the timed loop and never by the solver under
test: feasibility verdicts come from the generator's own certificate, optimize
verdicts from HiGHS (through `scipy.optimize.linprog`, imported lazily). On LP
text workloads HiGHS is also cross-checked against the brute-force
`testkit.oracle_solve`; a disagreement between the two references is a
benchmark error, never a solver failure.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from gutterlp import SolveResult, Verdict, check_point, testkit
from workloads import Instance, Kind, build_lp

FEAS_TOL = 1e-8       # residual allowed on a unit-normal row, as SolverConfig.feas_tol
VALUE_RTOL = 1e-6     # objective error allowed, relative to max(1, |reference|)

REASONS = ("exception", "stalled", "wrong_verdict", "bad_point", "wrong_value",
           "unbounded_mismatch")


class BenchError(RuntimeError):
    """A reference could not be established; the benchmark, not the solver, is at fault."""


@dataclass(frozen=True)
class Reference:
    verdict: Verdict
    value: Optional[float] = None
    point: Optional[np.ndarray] = None


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= VALUE_RTOL * max(1.0, abs(ref))


def _unit_rows(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(inst.normals, axis=1)
    return inst.normals / norms[:, None], inst.offsets / norms


def certificate_reference(inst: Instance) -> Reference:
    """Confirm the generator's certificate from the arrays alone."""
    A, b = _unit_rows(inst)
    cert = inst.certificate
    if isinstance(cert, testkit.FeasibleInterior):
        if float(np.min(A @ cert.point - b)) >= cert.slack - 1e-9:
            return Reference(Verdict.FEASIBLE)
        raise BenchError(f"seed {inst.seed}: interior point misses the slack")
    if isinstance(cert, testkit.InfeasiblePair):
        i, j = cert.index_a, cert.index_b
        if np.allclose(A[i], -A[j], atol=1e-12) and b[i] + b[j] > 0:
            return Reference(Verdict.INFEASIBLE)
        raise BenchError(f"seed {inst.seed}: rows {i},{j} are not contradictory")
    raise BenchError(f"seed {inst.seed}: unknown certificate {type(cert).__name__}")


def highs_reference(inst: Instance) -> Reference:
    from scipy.optimize import linprog

    direction, c = inst.objective
    A, b = _unit_rows(inst)
    sign = -1.0 if direction == "max" else 1.0
    res = linprog(sign * c, A_ub=-A, b_ub=-b, bounds=[(None, None)] * inst.kind.n,
                  method="highs")
    if res.status == 2:
        # the instance is certified feasible; HiGHS's presolve can report an
        # unbounded program as infeasible, so ask again without it
        res = linprog(sign * c, A_ub=-A, b_ub=-b, bounds=[(None, None)] * inst.kind.n,
                      method="highs", options={"presolve": False})
    if res.status == 0:
        return Reference(Verdict.OPTIMAL, float(c @ res.x), res.x)
    if res.status == 3:
        return Reference(Verdict.UNBOUNDED)
    raise BenchError(f"seed {inst.seed}: HiGHS status {res.status} ({res.message})")


def reference(inst: Instance, cross_check: bool = False) -> Reference:
    if inst.kind.task == "feasibility":
        return certificate_reference(inst)
    certificate_reference(inst)
    ref = highs_reference(inst)
    if cross_check:
        # the oracle only sees vertices inside its box, so the box must hold HiGHS's optimum
        box = 100.0 if ref.point is None else max(100.0, 10.0 * float(np.max(np.abs(ref.point))))
        oracle = testkit.oracle_solve(build_lp(inst), bound=box)
        agree = oracle.verdict is ref.verdict and (
            ref.value is None or (oracle.value is not None and _close(oracle.value, ref.value)))
        if not agree:
            raise BenchError(f"seed {inst.seed}: HiGHS says {ref}, oracle says "
                             f"{oracle.verdict.value} {oracle.value}")
    return ref


def point_ok(inst: Instance, lp, point) -> bool:
    """The point satisfies every row, by the checker's own residuals and by `check_point`."""
    if point is None:
        return False
    p = np.asarray(point, dtype=float)
    if p.shape != (inst.kind.n,) or not np.all(np.isfinite(p)):
        return False
    A, b = _unit_rows(inst)
    return bool(np.all(A @ p - b >= -FEAS_TOL)) and check_point(lp, p, FEAS_TOL)


def judge(inst: Instance, lp, ref: Reference, result: SolveResult) -> Optional[str]:
    """None when the result is right; otherwise the failure reason (one of REASONS).

    `lp` is the instance as a `LinearProgram`, used only for `check_point`.
    """
    verdict = result.verdict
    if verdict is Verdict.STALLED:
        return "stalled"
    if verdict is Verdict.UNBOUNDED or (verdict is Verdict.OPTIMAL
                                        and ref.verdict is Verdict.UNBOUNDED):
        return None if verdict is ref.verdict else "unbounded_mismatch"
    if verdict in (Verdict.FEASIBLE, Verdict.OPTIMAL) and not point_ok(inst, lp, result.point):
        return "bad_point"
    if verdict is not ref.verdict:
        return "wrong_verdict"
    if verdict is Verdict.OPTIMAL:
        c = inst.objective[1]
        reported = result.objective_value
        if reported is None or not _close(float(reported), ref.value) \
                or not _close(float(c @ result.point), ref.value):
            return "wrong_value"
    return None


def _box(objective: Optional[tuple[str, np.ndarray]], bounded: bool) -> Instance:
    """0 <= x, y (and <= 1 when bounded), with the interior point (0.5, 0.5)."""
    rows = [[1.0, 0.0], [0.0, 1.0]] + ([[-1.0, 0.0], [0.0, -1.0]] if bounded else [])
    offsets = [0.0, 0.0] + ([-1.0, -1.0] if bounded else [])
    kind = Kind(2, len(rows), "feasible", "feasibility" if objective is None else "optimize")
    cert = testkit.FeasibleInterior(np.array([0.5, 0.5]), 0.5)
    return Instance(kind, 0, np.array(rows), np.array(offsets), cert, objective)


def self_test() -> list[str]:
    """Judge answers whose correctness is known; return every misjudged case.

    A checker that accepts a wrong answer (or rejects a right one) must not be
    allowed to report a failure fraction, so the benchmark refuses to run when
    this list is not empty.
    """
    max_xy = ("max", np.array([1.0, 1.0]))
    bounded, unbounded, feasible = _box(max_xy, True), _box(max_xy, False), _box(None, True)
    corner = np.array([1.0, 1.0])
    cases = [
        ("optimum", bounded, SolveResult(Verdict.OPTIMAL, corner, 2.0), True),
        ("perturbed optimal point", bounded,
         SolveResult(Verdict.OPTIMAL, corner + [1e-3, 0.0], 2.0), False),
        ("optimal value off by 1e-3", bounded,
         SolveResult(Verdict.OPTIMAL, corner, 2.0 + 1e-3), False),
        ("sub-optimal point", bounded,
         SolveResult(Verdict.OPTIMAL, np.array([1.0, 1.0 - 1e-3]), 2.0 - 1e-3), False),
        ("UNBOUNDED for OPTIMAL", bounded, SolveResult(Verdict.UNBOUNDED), False),
        ("OPTIMAL for UNBOUNDED", unbounded,
         SolveResult(Verdict.OPTIMAL, corner, 2.0), False),
        ("unbounded", unbounded, SolveResult(Verdict.UNBOUNDED), True),
        ("feasible point", feasible, SolveResult(Verdict.FEASIBLE, np.array([0.2, 0.9])), True),
        ("perturbed feasible point", feasible,
         SolveResult(Verdict.FEASIBLE, np.array([0.2, 1.0 + 1e-6])), False),
        ("INFEASIBLE for FEASIBLE", feasible, SolveResult(Verdict.INFEASIBLE), False),
        ("STALLED", feasible, SolveResult(Verdict.STALLED), False),
    ]
    wrong = []
    for name, inst, result, right in cases:
        ref = reference(inst)
        if (judge(inst, build_lp(inst), ref, result) is None) is not right:
            wrong.append(name)
    return wrong
