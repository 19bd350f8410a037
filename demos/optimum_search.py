"""Optimum search demo: push the objective plane until the gutter locks.

Maximize x + y inside the box x <= 2, y <= 1. The solver first finds any
feasible point, then walks up the objective as if resolving the artificial
constraint c_hat . x >= +inf, which no point meets; the planes it gets stuck
on identify the optimal vertex, their multipliers prove it optimal, and
projecting onto them removes the epsilon slack exactly.
"""
import numpy as np

from gutterlp import Direction, LinearProgram, Objective, SolverConfig, solve_optimum
from gutterlp import testkit

lp = LinearProgram.from_arrays(
    np.array([[-1.0, 0.0],
              [0.0, -1.0]]),
    np.array([-2.0, -1.0]),
    objective=Objective(Direction.MAX, np.array([1.0, 1.0])),
)

events = []
result = solve_optimum(lp, SolverConfig(epsilon=0.01),
                       start=np.array([0.0, 0.0]), trace=events.append)
print("verdict:  ", result.verdict.value)
print("optimum:  ", result.point)
print("objective:", result.objective_value)
print()
print("gutter growth on the way up:")
for ev in events:
    if ev.kind.value in ("GUTTER_APPEND", "GUTTER_FULL"):
        print(f"  {ev.kind.value:<13} planes={list(ev.gutter_indices)} at p0={np.round(ev.p0, 4)}")

oracle = testkit.oracle_solve(lp, bound=100.0)
print()
print("vertex-enumeration oracle agrees:", oracle.verdict.value, oracle.value)

# random cross-check on a batch of boxed instances
rng = np.random.default_rng(7)
print()
print("random bounded instances, solver vs oracle:")
for seed in range(5):
    n = int(rng.integers(2, 5))
    inst = testkit.gen_feasible(n, int(rng.integers(3, 8)), 0.2, seed)
    normals = np.vstack([inst.lp.A, np.eye(n), -np.eye(n)])
    offsets = np.concatenate([inst.lp.b, np.full(2 * n, -3.0)])
    c = rng.standard_normal(n)
    c /= np.linalg.norm(c)
    boxed = LinearProgram.from_arrays(normals, offsets,
                                      objective=Objective(Direction.MAX, c))
    got = solve_optimum(boxed, SolverConfig(epsilon=0.01))
    want = testkit.oracle_solve(boxed, bound=50.0)
    print(f"  seed {seed}: solver {got.objective_value:+.6f}  oracle {want.value:+.6f}  "
          f"gap {abs(got.objective_value - want.value):.2e}")
